"""Model core: forward/gradient correctness against independent oracles."""

import itertools
import math

import numpy as np
import pytest

from dpfedsim import (
    ModelSpec,
    NumericError,
    ParameterVector,
    SampleBatch,
    ShapeError,
    forward,
    init_params,
    layer_layout,
    mean_gradient,
    parameter_count,
    per_sample_gradients,
    pretrain,
)
from dpfedsim import models
from dpfedsim.dpsgd import clip_per_sample, noisy_mean
from dpfedsim.federation import evaluate
from dpfedsim.masking import make_mask

RNG = np.random.default_rng


def random_instance(kind, seed):
    """Random (spec, params, batch) draw used by the oracle sweeps."""
    rng = RNG(seed)
    input_dim = int(rng.integers(1, 5))
    if kind == "mlp":
        spec = ModelSpec(
            "mlp",
            input_dim=input_dim,
            output_dim=int(rng.integers(2, 5)),
            hidden_dim=int(rng.integers(1, 6)),
            activation=["relu", "tanh"][int(rng.integers(0, 2))],
        )
    elif kind == "logistic":
        spec = ModelSpec("logistic", input_dim=input_dim, output_dim=2)
    else:
        spec = ModelSpec("linear", input_dim=input_dim, output_dim=1)
    params = ParameterVector(rng.normal(scale=0.8, size=parameter_count(spec)), layer_layout(spec))
    n = int(rng.integers(1, 7))
    inputs = rng.normal(size=(n, spec.input_dim))
    if spec.is_classifier:
        targets = rng.integers(0, spec.output_dim, size=n)
    else:
        targets = rng.normal(size=n)
    return spec, params, SampleBatch(inputs, targets)


def loss_at(spec, values, layout, batch):
    losses, _ = forward(spec, ParameterVector(values, layout), batch)
    return losses


def fd_gradients(spec, params, batch, h=1e-5):
    """Central finite differences, one coordinate at a time."""
    d = params.dim
    out = np.zeros((batch.size, d))
    for j in range(d):
        up = params.values.copy()
        up[j] += h
        down = params.values.copy()
        down[j] -= h
        out[:, j] = (
            loss_at(spec, up, params.layout, batch) - loss_at(spec, down, params.layout, batch)
        ) / (2 * h)
    return out


def assert_grad_close(analytic, numeric, tol=1e-4):
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    assert np.all(np.abs(analytic - numeric) <= tol * scale)


# ---------------------------------------------------------------- forward


def test_logistic_zero_params_gives_half_probability():
    spec = ModelSpec("logistic", input_dim=2, output_dim=2)
    params = ParameterVector(np.zeros(3), layer_layout(spec))
    batch = SampleBatch(np.array([[1.0, 0.0]]), np.array([1]))
    losses, scores = forward(spec, params, batch)
    assert losses[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert scores[0] == pytest.approx([0.5, 0.5], abs=0)


def test_linear_zero_params_zero_target_gives_zero_loss():
    spec = ModelSpec("linear", input_dim=3, output_dim=1)
    params = ParameterVector(np.zeros(4), layer_layout(spec))
    batch = SampleBatch(RNG(0).normal(size=(5, 3)), np.zeros(5))
    losses, preds = forward(spec, params, batch)
    assert np.all(losses == 0.0)
    assert np.all(preds == 0.0)


def scalar_mlp_forward(spec, params, x, y):
    """Straight-line scalar re-evaluation: explicit loops, math.* only."""
    w1 = params.layer("hidden.weight").reshape(spec.hidden_dim, spec.input_dim)
    b1 = params.layer("hidden.bias")
    w2 = params.layer("head.weight").reshape(spec.output_dim, spec.hidden_dim)
    b2 = params.layer("head.bias")
    hidden = []
    for h in range(spec.hidden_dim):
        z = b1[h]
        for i in range(spec.input_dim):
            z += w1[h, i] * x[i]
        hidden.append(math.tanh(z) if spec.activation == "tanh" else max(z, 0.0))
    logits = []
    for o in range(spec.output_dim):
        z = b2[o]
        for h in range(spec.hidden_dim):
            z += w2[o, h] * hidden[h]
        logits.append(z)
    m = max(logits)
    lse = m + math.log(sum(math.exp(z - m) for z in logits))
    return lse - logits[int(y)]


def test_mlp_forward_matches_scalar_oracle():
    spec = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=3, activation="tanh")
    params = init_params(spec, seed=0)
    rng = RNG(42)
    batch = SampleBatch(rng.normal(size=(4, 2)), rng.integers(0, 2, size=4))
    losses, _ = forward(spec, params, batch)
    expected = [
        scalar_mlp_forward(spec, params, batch.inputs[i], batch.targets[i]) for i in range(4)
    ]
    assert losses == pytest.approx(expected, abs=1e-12)


def test_classification_losses_nonnegative():
    for seed in range(20):
        for kind in ("logistic", "mlp", "linear"):
            spec, params, batch = random_instance(kind, seed)
            losses, _ = forward(spec, params, batch)
            assert np.all(losses >= 0.0)
            assert np.all(np.isfinite(losses))


def test_forward_rejects_wrong_layout():
    spec = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=3)
    other = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=4)
    params = init_params(other, seed=0)
    batch = SampleBatch(np.zeros((1, 2)), np.array([0]))
    with pytest.raises(ShapeError, match="hidden.weight"):
        forward(spec, params, batch)


def test_forward_rejects_nonfinite_params():
    spec = ModelSpec("logistic", input_dim=2, output_dim=2)
    values = np.zeros(3)
    values[1] = np.nan
    with pytest.raises(NumericError, match="index 1"):
        ParameterVector(values, layer_layout(spec))


def test_forward_rejects_bad_class_index():
    spec = ModelSpec("logistic", input_dim=2, output_dim=2)
    params = ParameterVector(np.zeros(3), layer_layout(spec))
    with pytest.raises(ShapeError, match="class indices"):
        forward(spec, params, SampleBatch(np.zeros((1, 2)), np.array([2])))


# ---------------------------------------------------------------- gradients


def test_logistic_gradient_trivial_case():
    spec = ModelSpec("logistic", input_dim=2, output_dim=2)
    params = ParameterVector(np.zeros(3), layer_layout(spec))
    batch = SampleBatch(np.array([[1.0, 0.0]]), np.array([1]))
    grads = per_sample_gradients(spec, params, batch)
    assert grads[0] == pytest.approx([-0.5, 0.0, -0.5], abs=0)


def test_linear_zero_residual_zero_gradient():
    spec = ModelSpec("linear", input_dim=2, output_dim=1)
    params = ParameterVector(np.zeros(3), layer_layout(spec))
    batch = SampleBatch(RNG(1).normal(size=(4, 2)), np.zeros(4))
    assert np.all(per_sample_gradients(spec, params, batch) == 0.0)


def test_mlp_relu_gradient_matches_finite_differences():
    spec = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=3, activation="relu")
    params = init_params(spec, seed=0)
    rng = RNG(0)
    batch = SampleBatch(rng.normal(size=(5, 2)), rng.integers(0, 2, size=5))
    assert_grad_close(per_sample_gradients(spec, params, batch), fd_gradients(spec, params, batch))


@pytest.mark.parametrize("kind", ["linear", "logistic", "mlp"])
def test_gradient_oracle_sweep(kind):
    # 100 random draws per kind against central finite differences
    for seed in range(100):
        spec, params, batch = random_instance(kind, 1000 + seed)
        assert_grad_close(
            per_sample_gradients(spec, params, batch), fd_gradients(spec, params, batch)
        )


@pytest.mark.parametrize("kind", ["linear", "logistic", "mlp"])
def test_mean_of_rows_matches_mean_loss_gradient(kind):
    for seed in range(50):
        spec, params, batch = random_instance(kind, 2000 + seed)
        rows = per_sample_gradients(spec, params, batch)
        assert np.max(np.abs(rows.mean(axis=0) - mean_gradient(spec, params, batch))) <= 1e-12


@pytest.mark.parametrize("kind", ["linear", "logistic", "mlp"])
def test_permuting_batch_permutes_gradient_rows(kind):
    spec, params, batch = random_instance(kind, 77)
    perm = RNG(3).permutation(batch.size)
    rows = per_sample_gradients(spec, params, batch)
    permuted = per_sample_gradients(spec, params, batch.take(perm))
    assert np.array_equal(rows[perm], permuted)


# Wide enough that row norms and batch means sum in an order that depends on
# the memory layout of the gradient matrix.
WIDE_SPECS = {
    "linear": ModelSpec("linear", input_dim=12, output_dim=1),
    "logistic": ModelSpec("logistic", input_dim=12, output_dim=2),
    "mlp": ModelSpec("mlp", input_dim=6, output_dim=3, hidden_dim=10, activation="relu"),
}
LAYER_SUBSETS = [
    (kind, subset)
    for kind, spec in WIDE_SPECS.items()
    for r in range(1, len(layer_layout(spec)) + 1)
    for subset in itertools.combinations([name for name, _, _ in layer_layout(spec)], r)
]


@pytest.mark.parametrize(
    "kind,layers", LAYER_SUBSETS, ids=[f"{k}-{','.join(s)}" for k, s in LAYER_SUBSETS]
)
def test_layer_subset_gradients_are_the_full_matrix_columns(kind, layers):
    spec = WIDE_SPECS[kind]
    rng = RNG(11)
    layout = layer_layout(spec)
    params = ParameterVector(rng.normal(size=parameter_count(spec)), layout)
    n = 20
    targets = rng.integers(0, spec.output_dim, size=n) if spec.is_classifier else rng.normal(size=n)
    batch = SampleBatch(rng.normal(size=(n, spec.input_dim)), targets)
    cols = make_mask(layout, layers).indices
    full = per_sample_gradients(spec, params, batch)[:, cols]
    subset = per_sample_gradients(spec, params, batch, layers=layers)
    assert np.array_equal(subset, full)
    # the private step reduces in memory order, so the layout must match too
    for clip in (0.1, 1e6):
        assert np.array_equal(
            noisy_mean(clip_per_sample(subset, clip), 0.0, clip, 0),
            noisy_mean(clip_per_sample(full, clip), 0.0, clip, 0),
        )


PINNED_SPECS = {
    "mlp-relu": ModelSpec("mlp", input_dim=7, output_dim=3, hidden_dim=11, activation="relu"),
    "mlp-tanh": ModelSpec("mlp", input_dim=7, output_dim=3, hidden_dim=11, activation="tanh"),
    "logistic": ModelSpec("logistic", input_dim=7, output_dim=2),
}


@pytest.mark.parametrize("name", list(PINNED_SPECS))
def test_weight_gradients_keep_the_bits_of_the_plain_einsum(name):
    # exact zeros in inputs, relu outputs and relu deltas pin the sign of zero
    spec = PINNED_SPECS[name]
    rng = RNG(12)
    layout = layer_layout(spec)
    params = ParameterVector(rng.normal(size=parameter_count(spec)), layout)
    n = 24
    x = rng.normal(size=(n, spec.input_dim))
    x[rng.random(x.shape) < 0.3] = 0.0
    x[x < -1.0] = -0.0
    batch = SampleBatch(x, rng.integers(0, spec.output_dim, size=n))
    grads = per_sample_gradients(spec, params, batch)
    spans = {lname: slice(offset, offset + length) for lname, offset, length in layout}
    zeros = 0
    for layer, a, dz in models._backprop(spec, params, batch, set(spans)):
        expected = np.einsum("no,ni->oin", dz, a).reshape(-1, n).T
        zeros += np.count_nonzero(expected == 0.0)
        got = np.ascontiguousarray(grads[:, spans[layer.weight]])
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()
    assert zeros > 0


def test_per_sample_gradients_rejects_unknown_layer():
    spec = WIDE_SPECS["mlp"]
    params = init_params(spec, seed=0)
    batch = SampleBatch(np.zeros((2, spec.input_dim)), np.array([0, 1]))
    with pytest.raises(ShapeError, match="nope"):
        per_sample_gradients(spec, params, batch, layers=["head.bias", "nope"])


# ---------------------------------------------------------------- layout


def test_mlp_layout_names_and_sizes():
    spec = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=3)
    layout = layer_layout(spec)
    assert [name for name, _, _ in layout] == [
        "hidden.weight",
        "hidden.bias",
        "head.weight",
        "head.bias",
    ]
    assert parameter_count(spec) == 2 * 3 + 3 + 3 * 2 + 2


def test_parameter_vector_layout_invariants():
    with pytest.raises(ShapeError):
        ParameterVector(np.zeros(5), (("a", 0, 2), ("b", 3, 2)))  # gap at offset 2
    with pytest.raises(ShapeError):
        ParameterVector(np.zeros(5), (("a", 0, 2), ("b", 2, 2)))  # covers 4 of 5


# ---------------------------------------------------------------- pretrain


def two_blob_set(n=120, seed=5):
    rng = RNG(seed)
    half = n // 2
    x0 = rng.normal(size=(half, 2)) * 0.4 + np.array([-2.0, 0.0])
    x1 = rng.normal(size=(n - half, 2)) * 0.4 + np.array([2.0, 0.0])
    return SampleBatch(np.vstack([x0, x1]), np.array([0] * half + [1] * (n - half)))


def test_pretrain_zero_epochs_is_initialization():
    spec = ModelSpec("logistic", input_dim=2, output_dim=2)
    data = two_blob_set()
    assert np.array_equal(pretrain(spec, data, 0, 0.1, seed=9).values, init_params(spec, 9).values)


def test_pretrain_separates_two_blobs():
    spec = ModelSpec("logistic", input_dim=2, output_dim=2)
    data = two_blob_set()
    params = pretrain(spec, data, epochs=200, lr=0.1, seed=0)
    assert evaluate(spec, params, data).accuracy >= 0.95


def test_pretrain_is_deterministic():
    spec = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=4)
    data = two_blob_set()
    a = pretrain(spec, data, epochs=50, lr=0.2, seed=3)
    b = pretrain(spec, data, epochs=50, lr=0.2, seed=3)
    assert np.array_equal(a.values, b.values)


def test_pretrain_reports_divergence_epoch():
    spec = ModelSpec("linear", input_dim=1, output_dim=1)
    data = SampleBatch(np.array([[1e4]]), np.array([0.0]))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="epoch"):
        pretrain(spec, data, epochs=200, lr=10.0, seed=0)
