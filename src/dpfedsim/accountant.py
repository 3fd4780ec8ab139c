"""Closed-form (epsilon, delta) accounting for subsampled Gaussian DP-SGD.

The accountant evaluates the square-root composition formula

    epsilon = (q / sigma) * sqrt(2 * E * ln(1 / delta))

verbatim, where q is the per-step sampling ratio and E the total number of
local epochs a client's data experiences.  Tighter accountants (RDP, GDP)
exist, but this module intentionally reproduces the formula arithmetic
exactly so that reported budgets match the cost model the rest of the
simulator is built around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError

FORMULA_TAG = "tls-sqrt-composition"


@dataclass(frozen=True)
class PrivacyParams:
    """Inputs to the accountant."""

    sampling_ratio: float
    noise_multiplier: float
    epochs: int
    delta: float = 1e-4

    def __post_init__(self) -> None:
        if not (0.0 < self.sampling_ratio <= 1.0):
            raise DomainError(f"sampling_ratio must be in (0, 1], got {self.sampling_ratio}")
        if not self.noise_multiplier >= 0:  # NaN fails too
            raise DomainError("noise_multiplier must be >= 0")
        if self.epochs < 0:
            raise DomainError("epochs must be >= 0")
        if not (0.0 < self.delta < 1.0):
            raise DomainError(f"delta must be in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class PrivacyReport:
    epsilon: float
    delta: float
    per_round_epochs: int
    rounds: int
    formula: str = FORMULA_TAG


def epsilon_of(params: PrivacyParams) -> float:
    """Privacy cost of E epochs at ratio q and noise sigma."""
    if params.epochs == 0:
        return 0.0
    if params.noise_multiplier == 0.0:
        raise DomainError("noise_multiplier must be > 0: cost is unbounded without noise")
    return (params.sampling_ratio / params.noise_multiplier) * math.sqrt(
        2.0 * params.epochs * math.log(1.0 / params.delta)
    )


def sigma_for_target(
    sampling_ratio: float, epochs: int, delta: float, target_epsilon: float
) -> float:
    """Smallest noise multiplier whose cost equals target_epsilon.

    Exact closed-form inversion; epsilon_of round-trips the result to within
    floating-point error.
    """
    if not target_epsilon > 0:  # NaN fails too
        raise DomainError("target_epsilon must be > 0")
    # the formula is symmetric in sigma and epsilon: swap them to invert it
    swapped = PrivacyParams(sampling_ratio, target_epsilon, epochs, delta)
    if epochs == 0:
        raise DomainError("cannot hit a positive epsilon target with zero epochs")
    return epsilon_of(swapped)


def compose_rounds(per_round: PrivacyParams, rounds: int) -> PrivacyReport:
    """Total cost of `rounds` federated rounds of per_round.epochs local epochs.

    Square-root composition makes R rounds of E epochs identical to a single
    evaluation at R*E epochs, and that is literally how it is computed here.
    """
    if rounds < 0:
        raise DomainError("rounds must be >= 0")
    total = replace(per_round, epochs=rounds * per_round.epochs)
    epsilon = 0.0 if rounds == 0 else epsilon_of(total)
    return PrivacyReport(
        epsilon=epsilon,
        delta=per_round.delta,
        per_round_epochs=per_round.epochs,
        rounds=rounds,
    )
