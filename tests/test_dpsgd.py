"""Clipping, seeded noise, epoch plans, and the masked private step."""

import numpy as np
import pytest

from dpfedsim import (
    AdamState,
    DpConfig,
    ModelSpec,
    ParameterVector,
    SamplerPlan,
    ShapeError,
    clip_per_sample,
    dp_step,
    epoch_batches,
    layer_layout,
    make_mask,
    noisy_mean,
)
from dpfedsim.errors import NumericError

RNG = np.random.default_rng


def _cfg(**kw):
    base = dict(clip_norm=1.0, noise_multiplier=0.0, learning_rate=0.1)
    base.update(kw)
    return DpConfig(**base)


# ---------------------------------------------------------------- clipping


def test_clip_scales_long_row_onto_sphere():
    out = clip_per_sample(np.array([[3.0, 4.0]]), 1.0)
    assert out[0] == pytest.approx([0.6, 0.8], abs=1e-15)


def test_clip_keeps_short_row_bitwise():
    row = np.array([[0.3, 0.4]])
    out = clip_per_sample(row, 1.0)
    assert np.array_equal(out, row)


def test_clip_norm_bound_brute_force():
    rows = RNG(0).normal(size=(1000, 12))
    out = clip_per_sample(rows, 0.7)
    norms = np.linalg.norm(out, axis=1)
    assert np.all(norms <= 0.7 * (1 + 1e-9))
    short = np.linalg.norm(rows, axis=1) <= 0.7
    assert np.array_equal(out[short], rows[short])


def test_clip_is_exactly_idempotent():
    for seed in range(20):
        rows = RNG(seed).normal(scale=3.0, size=(64, 9))
        once = clip_per_sample(rows, 1.1)
        twice = clip_per_sample(once, 1.1)
        assert np.array_equal(once, twice)


def test_clip_scale_covariance_power_of_two():
    # c * g for c a power of two lands bitwise on the same clipped row
    rows = RNG(7).normal(scale=2.0, size=(32, 5))
    rows = rows[np.linalg.norm(rows, axis=1) > 1.0]
    base = clip_per_sample(rows, 1.0)
    for c in (2.0, 4.0, 1024.0):
        assert np.array_equal(clip_per_sample(c * rows, 1.0), base)


def test_clip_scale_covariance_generic_factor():
    rows = RNG(8).normal(scale=2.0, size=(32, 5))
    rows = rows[np.linalg.norm(rows, axis=1) > 1.0]
    base = clip_per_sample(rows, 1.0)
    for c in (1.5, 3.7, 11.0):
        assert np.max(np.abs(clip_per_sample(c * rows, 1.0) - base)) <= 1e-14


def test_clip_rejects_nonfinite_row():
    rows = np.ones((3, 2))
    rows[1, 0] = np.inf
    with pytest.raises(NumericError, match="sample 1"):
        clip_per_sample(rows, 1.0)


def test_clip_rejects_nan_row_naming_the_first_bad_sample():
    rows = np.ones((4, 3))
    rows[1, 0] = 1e300  # overflows its squared norm but is finite
    rows[2, 2] = np.nan
    rows[3, 1] = np.inf
    with pytest.raises(NumericError, match="sample 2"):
        clip_per_sample(rows, 1.0)


def test_clip_projects_overflowing_finite_row_onto_sphere():
    rows = np.zeros((4, 64))
    rows[0, :2] = 1e200
    rows[1, :3] = [3e307, -1e307, 5.0]
    rows[2, :2] = [0.3, 0.4]
    rows[3] = 1e308  # even ||g|| itself is not finite
    clip = 1.5
    out = clip_per_sample(rows, clip)
    for got, row in zip(out[[0, 1, 3]], rows[[0, 1, 3]]):
        assert np.linalg.norm(got) <= clip * (1 + 1e-9)
        assert np.linalg.norm(got) >= clip * (1 - 1e-9)
        direction = row / np.abs(row).max()
        direction /= np.linalg.norm(direction)
        assert np.max(np.abs(got / clip - direction)) <= 1e-12
    assert np.array_equal(out[2], rows[2])
    assert out.tobytes() == clip_per_sample(out, clip).tobytes()


def test_clip_leaves_its_input_unchanged():
    rows = RNG(3).normal(scale=2.0, size=(16, 7))
    rows[0] = 1e200
    before = rows.copy()
    out = clip_per_sample(rows, 1.0)
    assert rows.tobytes() == before.tobytes()
    assert not np.shares_memory(out, rows)


@pytest.mark.parametrize("order", ["C", "F"])
def test_clip_bytes_match_the_reference_formula(order):
    # a mix of clipped and untouched rows, and single-row batches, whose norms
    # numpy sums pairwise instead of in column order
    rng = RNG(4)
    rows = rng.normal(size=(64, 1100)) * rng.uniform(0.0, 0.07, size=(64, 1))
    rows[::5] = 0.0
    clip = 1.0
    for batch in (rows, rows[4:5], rows[8:9]):
        batch = np.array(batch, order=order)
        norm = np.linalg.norm(batch, axis=1)
        scale = np.where(norm > clip * (1 + 1e-12), clip / np.maximum(norm, 1e-300), 1.0)
        expected = batch * scale[:, None]
        assert clip_per_sample(batch, clip).tobytes() == expected.tobytes()
    clipped = np.linalg.norm(rows, axis=1) > clip
    assert 0 < np.count_nonzero(clipped) < rows.shape[0]
    assert clipped[4] and clipped[8]


def test_clip_zero_rows_untouched():
    rows = np.zeros((4, 3))
    assert np.array_equal(clip_per_sample(rows, 0.5), rows)


# ---------------------------------------------------------------- noisy mean


def test_noisy_mean_sigma_zero_is_plain_mean():
    rows = np.array([[1.0, 1.0], [3.0, 3.0]])
    assert noisy_mean(rows, 0.0, 1.0, noise_seed=123) == pytest.approx([2.0, 2.0], abs=0)


def test_noisy_mean_deterministic_given_seed():
    rows = RNG(1).normal(size=(8, 4))
    a = noisy_mean(rows, 1.5, 0.8, noise_seed=99)
    b = noisy_mean(rows, 1.5, 0.8, noise_seed=99)
    assert np.array_equal(a, b)
    c = noisy_mean(rows, 1.5, 0.8, noise_seed=100)
    assert not np.array_equal(a, c)


def test_noisy_mean_moments_monte_carlo():
    # 1e5 seeded draws: mean near the clipped mean, variance near (sigma*C)^2
    rows = np.array([[0.2, -0.4], [0.6, 0.1], [-0.3, 0.8]])
    sigma, clip = 1.0, 1.0
    base = rows.mean(axis=0)
    n = 100_000
    draws = np.empty((n, 2))
    for s in range(n):
        draws[s] = noisy_mean(rows, sigma, clip, noise_seed=s)
    noise = draws - base
    tol_mean = 4.0 * sigma * clip / np.sqrt(n)
    assert np.all(np.abs(noise.mean(axis=0)) <= tol_mean)
    assert np.all(np.abs(noise.var(axis=0) - sigma**2 * clip**2) <= 0.05 * sigma**2 * clip**2)


def test_noisy_mean_batch_scaling_flag():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    plain = noisy_mean(rows, 2.0, 1.0, noise_seed=5)
    scaled = noisy_mean(rows, 2.0, 1.0, noise_seed=5, scale_noise_by_batch=True)
    base = rows.mean(axis=0)
    assert scaled - base == pytest.approx((plain - base) / 4.0, rel=1e-12)


def test_noisy_mean_rejects_empty_batch():
    with pytest.raises(ShapeError):
        noisy_mean(np.zeros((0, 3)), 1.0, 1.0, noise_seed=0)


# ---------------------------------------------------------------- epoch plans


def test_shuffle_plan_partitions_indices():
    plan = SamplerPlan("shuffle", batch_size=3, dataset_size=10, seed=0)
    batches = epoch_batches(plan)
    assert [b.size for b in batches] == [3, 3, 3, 1]
    assert sorted(np.concatenate(batches).tolist()) == list(range(10))


def test_shuffle_full_batch_is_permutation():
    plan = SamplerPlan("shuffle", batch_size=6, dataset_size=6, seed=4)
    (batch,) = epoch_batches(plan)
    assert sorted(batch.tolist()) == list(range(6))


def test_shuffle_exactly_once_large():
    plan = SamplerPlan("shuffle", batch_size=32, dataset_size=1000, seed=11)
    flat = np.concatenate(epoch_batches(plan))
    assert np.array_equal(np.sort(flat), np.arange(1000))


def test_shuffle_deterministic_and_seed_sensitive():
    plan = SamplerPlan("shuffle", batch_size=4, dataset_size=20, seed=3)
    a = epoch_batches(plan)
    b = epoch_batches(plan)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    other = epoch_batches(SamplerPlan("shuffle", 4, 20, seed=4))
    assert not all(np.array_equal(x, y) for x, y in zip(a, other))


def test_batch_larger_than_dataset_rejected():
    with pytest.raises(ShapeError):
        SamplerPlan("shuffle", batch_size=11, dataset_size=10, seed=0)


def test_distinct_epochs_shuffle_differently():
    from dpfedsim.dpsgd import plan_for_epoch

    plan = SamplerPlan("shuffle", batch_size=50, dataset_size=50, seed=9)
    perms = [epoch_batches(plan_for_epoch(plan, 0, e))[0].tolist() for e in range(1, 6)]
    assert len({tuple(p) for p in perms}) == 5


def test_poisson_plan_contrasts_with_shuffle():
    plan = SamplerPlan("poisson", batch_size=10, dataset_size=100, seed=21)
    batches = epoch_batches(plan)
    assert len(batches) == 10
    sizes = np.array([b.size for b in batches])
    assert sizes.min() != sizes.max()  # variable batch sizes, unlike shuffle


# ---------------------------------------------------------------- dp_step


def _mlp_params(seed=0):
    spec = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=3)
    layout = layer_layout(spec)
    values = RNG(seed).normal(size=layout[-1][1] + layout[-1][2])
    return spec, ParameterVector(values, layout)


def test_dp_step_all_false_mask_returns_params_unchanged():
    spec, params = _mlp_params()
    mask = make_mask(params.layout, [])
    out = dp_step(params, mask, np.zeros(0), _cfg(), step_index=1)
    assert np.array_equal(out.values, params.values)


def test_dp_step_sgd_single_coordinate():
    spec, params = _mlp_params()
    mask = make_mask(params.layout, ["head.bias"])
    values = params.values.copy()
    values[mask.indices[0]] = 0.5
    params = ParameterVector(values, params.layout)
    grad = np.zeros(mask.trainable_count)
    grad[0] = 1.0
    out = dp_step(params, mask, grad, _cfg(), step_index=1)
    assert out.values[mask.indices[0]] == pytest.approx(0.4, abs=1e-15)


def scalar_adam(grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar adam walk over a sequence of gradients."""
    m = v = 0.0
    theta = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**t)) / ((v / (1 - b2**t)) ** 0.5 + eps)
    return theta


def test_dp_step_adam_matches_scalar_oracle():
    layout = (("head.weight", 0, 1),)
    params = ParameterVector(np.zeros(1), layout)
    mask = make_mask(layout, ["head.weight"])
    cfg = _cfg(optimizer="adam", learning_rate=0.05)
    state = AdamState.zeros(1)
    grads = [0.3, -0.7, 1.2, 0.05, -0.4]
    w = params
    for t, g in enumerate(grads, start=1):
        w = dp_step(w, mask, np.array([g]), cfg, step_index=t, state=state)
    assert w.values[0] == pytest.approx(scalar_adam(grads, 0.05), abs=1e-12)


def test_dp_step_adam_requires_state_and_valid_step():
    spec, params = _mlp_params()
    mask = make_mask(params.layout, ["head.bias"])
    cfg = _cfg(optimizer="adam")
    with pytest.raises(ShapeError):
        dp_step(params, mask, np.zeros(mask.trainable_count), cfg, step_index=1)
    with pytest.raises(ShapeError):
        dp_step(
            params, mask, np.zeros(mask.trainable_count), cfg, step_index=0,
            state=AdamState.zeros(mask.trainable_count),
        )


def test_dp_step_grad_length_mismatch():
    spec, params = _mlp_params()
    mask = make_mask(params.layout, ["head.bias"])
    with pytest.raises(ShapeError):
        dp_step(params, mask, np.zeros(mask.trainable_count + 1), _cfg(), 1)


def test_frozen_coordinates_never_move():
    spec, params = _mlp_params(seed=9)
    mask = make_mask(params.layout, ["head.weight", "head.bias"])
    frozen = ~mask.coordinate_mask
    w = params
    rng = RNG(2)
    state = AdamState.zeros(mask.trainable_count)
    cfg = _cfg(optimizer="adam")
    for t in range(1, 30):
        w = dp_step(w, mask, rng.normal(size=mask.trainable_count), cfg, t, state)
    assert np.array_equal(w.values[frozen], params.values[frozen])
