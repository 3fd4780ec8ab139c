"""Server-side aggregation of masked client updates.

The server applies w_{t+1} = w_t + sum_k p_k * A(delta_k) over the round's
participants, where A is the identity for fedavg and division by the
client's local step count for fednova, and p_k is the client's data share
within the participating set.  Summation runs in ascending client id so the
result is bit-reproducible regardless of client scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ProtocolError, ShapeError
from .masking import MaskedUpdate
from .models import ParameterVector

AGGREGATION_KINDS = ("fedavg", "fednova")


@dataclass(frozen=True)
class AggregationOp:
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in AGGREGATION_KINDS:
            raise ShapeError(f"unknown aggregation {self.kind!r}, expected {AGGREGATION_KINDS}")


def compute_weights(sample_counts: list[tuple[int, int]]) -> dict[int, float]:
    """Data-proportional weights {client_id: p_k}, p_k = n_k / sum_j n_j, over
    the given clients in their given order."""
    if not sample_counts:
        raise ShapeError("cannot compute weights for an empty client set")
    for client_id, n_k in sample_counts:
        if n_k < 1:
            raise DomainError(f"client {client_id} has no data (n_k = {n_k})")
    total = sum(n for _, n in sample_counts)
    return {cid: n / total for cid, n in sample_counts}


def aggregate(
    w_t: ParameterVector, updates: list[MaskedUpdate], op: AggregationOp
) -> ParameterVector:
    """One server step; coordinates untouched by every update stay bit-identical."""
    if not updates:
        raise ShapeError("aggregate needs at least one update")
    rounds = {u.round_index for u in updates}
    if len(rounds) != 1:
        raise ProtocolError(f"updates span rounds {sorted(rounds)}")
    ids = [u.client_id for u in updates]
    if len(set(ids)) != len(ids):
        raise ProtocolError("duplicate client ids in one round")
    ordered = sorted(updates, key=lambda u: u.client_id)
    first = ordered[0]
    for u in ordered[1:]:
        # updates cut with one mask share its read-only index array
        if u.indices is not first.indices and not np.array_equal(u.indices, first.indices):
            raise ProtocolError("updates do not share a coordinate mask")
    if first.entry_count and not 0 <= first.indices[0] <= first.indices[-1] < w_t.dim:
        raise ShapeError(f"update indices fall outside the {w_t.dim} parameters")
    if op.kind == "fednova":
        for u in ordered:
            if u.tau < 1:
                raise DomainError(f"client {u.client_id} reports tau = {u.tau} < 1")
    weights = compute_weights([(u.client_id, u.n_k) for u in ordered])
    combined = np.zeros(first.entry_count)
    for u in ordered:
        delta = u.deltas / u.tau if op.kind == "fednova" else u.deltas
        combined += weights[u.client_id] * delta
    values = w_t.values.copy()
    values[first.selector] += combined
    return ParameterVector(values, w_t.layout)
