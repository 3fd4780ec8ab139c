"""Server aggregation: weights, operators, and bitwise frozen-coordinate care."""

from fractions import Fraction

import numpy as np
import pytest

from dpfedsim import (
    AggregationOp,
    MaskedUpdate,
    ModelSpec,
    ParameterVector,
    ShapeError,
    aggregate,
    compute_weights,
    layer_layout,
    make_mask,
)
from dpfedsim.errors import DomainError, ProtocolError

RNG = np.random.default_rng

SPEC = ModelSpec("mlp", input_dim=3, output_dim=2, hidden_dim=4)
LAYOUT = layer_layout(SPEC)
MASK = make_mask(LAYOUT, ["head.weight", "head.bias"])
DIM = MASK.total_count


def update_for(client_id, deltas, tau=1, n_k=10, round_index=0):
    return MaskedUpdate(
        client_id, round_index, MASK.indices.copy(), np.asarray(deltas, dtype=float), tau, n_k
    )


def w0(seed=0):
    return ParameterVector(RNG(seed).normal(size=DIM), LAYOUT)


# ---------------------------------------------------------------- weights


def test_equal_counts_give_uniform_weights():
    weights = compute_weights([(0, 7), (1, 7), (2, 7), (3, 7)])
    assert list(weights.values()) == pytest.approx([0.25] * 4, abs=0)


def test_two_client_weights():
    weights = compute_weights([(0, 1), (1, 3)])
    assert list(weights.values()) == pytest.approx([0.25, 0.75], abs=0)


def test_weights_match_exact_rational_oracle():
    counts = [(0, 7), (1, 11), (2, 13)]
    weights = compute_weights(counts)
    exact = [Fraction(n, 31) for _, n in counts]
    for p_k, frac in zip(weights.values(), exact):
        assert p_k == pytest.approx(float(frac), abs=1e-16)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_zero_count_client_rejected():
    with pytest.raises(DomainError):
        compute_weights([(0, 5), (1, 0)])


# ---------------------------------------------------------------- aggregate


def test_equal_clients_average_deltas():
    base = w0()
    ones = np.ones(MASK.trainable_count)
    out = aggregate(base, [update_for(0, ones), update_for(1, 3 * ones)], AggregationOp("fedavg"))
    assert out.values[MASK.indices] == pytest.approx(base.values[MASK.indices] + 2.0, abs=1e-15)


def test_fednova_tau_one_identical_to_fedavg():
    base = w0(1)
    rng = RNG(5)
    updates = [update_for(c, rng.normal(size=MASK.trainable_count), tau=1) for c in range(4)]
    fa = aggregate(base, updates, AggregationOp("fedavg"))
    fn = aggregate(base, updates, AggregationOp("fednova"))
    assert np.array_equal(fa.values, fn.values)


def test_fednova_divides_by_local_steps():
    base = w0(2)
    delta = np.full(MASK.trainable_count, 6.0)
    out = aggregate(base, [update_for(0, delta, tau=3)], AggregationOp("fednova"))
    assert out.values[MASK.indices] == pytest.approx(base.values[MASK.indices] + 2.0, abs=1e-15)


def test_weighted_sum_matches_brute_force_oracle():
    base = w0(3)
    rng = RNG(9)
    counts = [(0, 1), (1, 2), (2, 3)]
    deltas = {cid: rng.normal(size=MASK.trainable_count) for cid, _ in counts}
    updates = [update_for(cid, deltas[cid], n_k=n) for cid, n in counts]
    out = aggregate(base, updates, AggregationOp("fedavg"))
    total = sum(n for _, n in counts)
    expected = base.values.copy()
    acc = np.zeros(MASK.trainable_count)
    for cid, n in counts:
        acc += (n / total) * deltas[cid]
    expected[MASK.indices] += acc
    assert np.max(np.abs(out.values - expected)) <= 1e-15


def test_single_client_identity():
    base = w0(4)
    delta = RNG(11).normal(size=MASK.trainable_count)
    out = aggregate(base, [update_for(0, delta)], AggregationOp("fedavg"))
    assert np.array_equal(out.values[MASK.indices], base.values[MASK.indices] + delta)


def test_unmasked_coordinates_bitwise_unchanged():
    base = w0(5)
    frozen = ~MASK.coordinate_mask
    updates = [update_for(c, RNG(c).normal(size=MASK.trainable_count)) for c in range(3)]
    for kind in ("fedavg", "fednova"):
        out = aggregate(base, updates, AggregationOp(kind))
        assert np.array_equal(out.values[frozen], base.values[frozen])


def test_result_independent_of_update_order():
    base = w0(6)
    updates = [update_for(c, RNG(20 + c).normal(size=MASK.trainable_count), n_k=c + 1) for c in range(5)]
    a = aggregate(base, updates, AggregationOp("fedavg"))
    b = aggregate(base, list(reversed(updates)), AggregationOp("fedavg"))
    assert np.array_equal(a.values, b.values)


def test_updates_with_another_mask_are_refused():
    base = w0(8)
    shared = update_for(0, np.ones(MASK.trainable_count))
    aggregate(base, [shared, update_for(1, np.ones(MASK.trainable_count))], AggregationOp("fedavg"))
    hidden_bias = make_mask(LAYOUT, ["hidden.bias"])  # other coordinates, other count
    shifted = MASK.indices - 1  # same count, other coordinates
    for indices in (hidden_bias.indices, shifted, MASK.indices[:-1]):
        other = MaskedUpdate(1, 0, indices, np.ones(indices.size), 1, 10)
        with pytest.raises(ProtocolError, match="coordinate mask"):
            aggregate(base, [shared, other], AggregationOp("fedavg"))


def test_error_paths():
    base = w0(7)
    with pytest.raises(ShapeError):
        aggregate(base, [], AggregationOp("fedavg"))
    u0 = update_for(0, np.zeros(MASK.trainable_count), round_index=0)
    u1 = update_for(1, np.zeros(MASK.trainable_count), round_index=1)
    with pytest.raises(ProtocolError):
        aggregate(base, [u0, u1], AggregationOp("fedavg"))
    dup = update_for(0, np.zeros(MASK.trainable_count))
    with pytest.raises(ProtocolError):
        aggregate(base, [u0, dup], AggregationOp("fedavg"))
    bad_tau = update_for(1, np.zeros(MASK.trainable_count), tau=0)
    with pytest.raises(DomainError):
        aggregate(base, [u0, bad_tau], AggregationOp("fednova"))


def test_update_indices_outside_the_parameters_are_refused():
    base = w0(9)
    for indices in (np.array([0, DIM]), np.array([5, 1000]), np.array([-1, 3])):
        update = MaskedUpdate(0, 0, indices, np.ones(2), 1, 10)
        with pytest.raises(ShapeError, match="outside"):
            aggregate(base, [update], AggregationOp("fedavg"))
    edge = MaskedUpdate(0, 0, np.array([0, DIM - 1]), np.ones(2), 1, 10)
    assert aggregate(base, [edge], AggregationOp("fedavg")).values[DIM - 1] == base.values[DIM - 1] + 1.0
