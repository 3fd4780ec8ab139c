"""Model core: forward/gradient correctness against independent oracles."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

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
from dpfedsim.models import layer_spans
from dpfedsim.rng import work_buffer

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


OUT_CASES = LAYER_SUBSETS + [(kind, None) for kind in WIDE_SPECS]


def wide_instance(kind, n, seed):
    spec = WIDE_SPECS[kind]
    rng = RNG(seed)
    params = ParameterVector(rng.normal(size=parameter_count(spec)), layer_layout(spec))
    targets = rng.integers(0, spec.output_dim, size=n) if spec.is_classifier else rng.normal(size=n)
    return spec, params, SampleBatch(rng.normal(size=(n, spec.input_dim)), targets)


@pytest.mark.parametrize(
    "kind,layers", OUT_CASES, ids=[f"{k}-{','.join(s or ['all'])}" for k, s in OUT_CASES]
)
def test_gradients_into_a_caller_buffer_keep_the_bytes(kind, layers):
    work, buf = {}, None
    for n in (20, 1, 7):  # one workspace, sized for the first batch, serves all three
        spec, params, batch = wide_instance(kind, n, seed=n)
        expected = per_sample_gradients(spec, params, batch, layers=layers)
        used = expected.size
        if buf is None:
            buf = work_buffer(work, "grads", (used + 13,))
            buf.fill(np.nan)  # NaN: any read of an unwritten value shows
        tail = buf[used:].copy()
        got = per_sample_gradients(spec, params, batch, layers=layers, work=work)
        assert np.shares_memory(got, buf) and work["grads"].base is buf.base
        assert got.shape == expected.shape and got.strides == expected.strides
        assert got.tobytes(order="A") == expected.tobytes(order="A")
        assert buf[used:].tobytes() == tail.tobytes()  # nothing past width * n written


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


# ---------------------------------------------------------------- workspace

WORK_SPECS = {
    "linear": ModelSpec("linear", input_dim=9, output_dim=1),
    "logistic": ModelSpec("logistic", input_dim=9, output_dim=2),
    "mlp-relu": ModelSpec("mlp", input_dim=9, output_dim=3, hidden_dim=24, activation="relu"),
    "mlp-tanh": ModelSpec("mlp", input_dim=9, output_dim=3, hidden_dim=24, activation="tanh"),
}


def work_instance(spec, n, seed):
    rng = RNG(seed)
    params = ParameterVector(rng.normal(scale=0.5, size=parameter_count(spec)), layer_layout(spec))
    x = rng.normal(size=(n, spec.input_dim))
    x[rng.random(x.shape) < 0.2] = 0.0  # exact zeros pin the sign of zero through relu
    targets = rng.integers(0, spec.output_dim, size=n) if spec.is_classifier else rng.normal(size=n)
    return params, SampleBatch(x, targets)


def pretrain_with_fresh_buffers(spec, data, epochs, lr, seed):
    params = init_params(spec, seed)
    for _ in range(epochs):
        values = params.values - lr * mean_gradient(spec, params, data)
        params = ParameterVector(values, params.layout)
    return params


@pytest.mark.parametrize("name", list(WORK_SPECS))
def test_a_workspace_keeps_the_bytes_of_fresh_buffers(name):
    spec = WORK_SPECS[name]
    work = {}  # one workspace for every row count, so each call reshapes it
    for n in (20, 1, 7, *range(1, 71), 480):
        params, batch = work_instance(spec, n, seed=n)
        fresh = mean_gradient(spec, params, batch)
        assert mean_gradient(spec, params, batch, work=work).tobytes() == fresh.tobytes()
        assert work and all(buf.shape[0] == n for buf in work.values())
        expected = pretrain_with_fresh_buffers(spec, batch, 3, 0.05, seed=n)
        assert pretrain(spec, batch, 3, 0.05, seed=n).values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("name", list(WORK_SPECS))
def test_pretrain_walks_in_one_workspace_across_its_epochs(name, monkeypatch):
    walks, original = [], models._walk

    def spy(spec, params, x, work):
        steps = original(spec, params, x, work)
        walks.append((work, [(a, z) for _, _, a, z in steps]))  # kept alive: ids stay unique
        return steps

    monkeypatch.setattr(models, "_walk", spy)
    spec = WORK_SPECS[name]
    _, data = work_instance(spec, 30, seed=3)
    pretrain(spec, data, epochs=6, lr=0.05, seed=0)
    assert len(walks) == 6
    first_work, first_arrays = walks[0]
    for work, arrays in walks[1:]:
        assert work is first_work
        for (a, z), (a0, z0) in zip(arrays, first_arrays):
            assert a is a0 and z is z0


@pytest.mark.parametrize("name", list(WORK_SPECS))
def test_results_never_alias_a_reused_buffer(name):
    spec = WORK_SPECS[name]
    params, first = work_instance(spec, 12, seed=4)
    _, second = work_instance(spec, 12, seed=5)
    losses, preds = forward(spec, params, first)
    kept = preds.copy()
    forward(spec, params, second)
    mean_gradient(spec, params, second)
    assert preds.tobytes() == kept.tobytes()  # the linear head's predictions are its z
    work = {}
    grad = mean_gradient(spec, params, first, work=work)
    kept = grad.copy()
    assert not any(np.shares_memory(grad, buf) for buf in work.values())
    mean_gradient(spec, params, second, work=work)
    assert grad.tobytes() == kept.tobytes()


FAULT_PROBE = """
import resource
import numpy as np
from dpfedsim import ModelSpec, SampleBatch, pretrain

spec = ModelSpec("mlp", input_dim=64, output_dim=4, hidden_dim=256, activation="tanh")
rng = np.random.default_rng(0)
data = SampleBatch(rng.normal(size=(480, 64)), rng.integers(0, 4, size=480))


def faults(epochs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pretrain(spec, data, epochs, 0.1, 0)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


faults(2)  # warm-up: imports, BLAS buffers, allocator arenas
print(faults(20) - faults(2))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_pretrain_epochs_fault_in_no_fresh_pages():
    # Walking 480 x 64->256->4 in fresh arrays allocates about 2 MB an epoch
    # that glibc returns to the kernel when freed: about 450 minor faults an
    # epoch.  One workspace for all epochs leaves epochs 3-20 almost none.
    src = str(Path(models.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 18 * 100


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_a_hidden_layer_walks_in_one_buffer_plus_its_delta(activation):
    # the activation overwrites the layer's z, and its derivative the activation
    spec = ModelSpec("mlp", input_dim=64, output_dim=4, hidden_dim=256, activation=activation)
    params, batch = work_instance(spec, 480, seed=0)
    work = {}
    mean_gradient(spec, params, batch, work=work)
    assert sum(buf.size for buf in work.values()) == 2 * 480 * 256 + 480 * 4


RSS_PROBE = """
import numpy as np
from dpfedsim import ModelSpec, SampleBatch, pretrain


def peak_kib():
    # this process's own high-water mark: ru_maxrss would start at the parent's
    # peak, which Linux carries across fork and exec
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


spec = ModelSpec("mlp", input_dim=64, output_dim=4, hidden_dim=256, activation="tanh")
rng = np.random.default_rng(0)
data = SampleBatch(rng.normal(size=(480, 64)), rng.integers(0, 4, size=480))
data.inputs @ rng.normal(size=(64, 256))  # warm-up: BLAS buffers for the walk's matmul
before = peak_kib()
pretrain(spec, data, 20, 0.1, 0)
print(peak_kib() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux's VmHWM")
def test_pretrain_raises_peak_memory_by_less_than_four_hidden_buffers():
    # Four 480 x 256 float64 buffers are 3.75 MiB; pretraining in two of them
    # raises the peak by about 2.1 MiB, against 3.9 MiB with four.
    src = str(Path(models.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RSS_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 3 * 1024


# ---------------------------------------------------------------- byte pins

# sha256 over n = 1, 7, 64, 480 of each output's bytes, recorded before the walk
# reused its buffers in place; any change to the walk's arithmetic moves them.
WALK_PINS = {
    ("relu", "forward"): "a857c1d3d9e82ba9a8a762b2216309300c064a072ffbc799696ccb875f379c0a",
    ("relu", "mean_gradient"): "48e5fb93ffa614a97c65ee3c18878f21034c1c144406aac544dd30fa0be1b1d9",
    ("relu", "per_sample_gradients"): "bacfa7d14bad5261b7ad5843f47105e9f044b72814088b2d80dfa233d0500744",
    ("relu", "head_gradients"): "f0e8fa691acc6ef3023a330ad8212e0eb688d92481753784faa0492241b9cdac",
    ("tanh", "forward"): "27afb183e981000f175e56559e66870c0f36759631d6db7e9d2897e171b4cb18",
    ("tanh", "mean_gradient"): "4a69e0d6600390c5c50a8c0584d6c8e1a5ed0d1d83f54f6424bf081938f32541",
    ("tanh", "per_sample_gradients"): "ea4beed3d4e5087f291f5dac3bf7d6642cdc07b9f748c28f845d0bd437f47947",
    ("tanh", "head_gradients"): "3cd7e91193fd9e847633e6e94d1c819105d8d80148e64fb428fa697877c6c542",
}


def pin_instance(activation, n):
    spec = ModelSpec("mlp", input_dim=9, output_dim=3, hidden_dim=24, activation=activation)
    rng = RNG(n)
    params = ParameterVector(rng.normal(scale=0.5, size=parameter_count(spec)), layer_layout(spec))
    params.layer("hidden.bias")[::3] = 0.0
    params.layer("hidden.bias")[1::6] = -0.0
    x = rng.normal(size=(n, spec.input_dim))
    x[rng.random(x.shape) < 0.2] = 0.0
    x[x < -1.0] = -0.0
    x[1::4] = 0.0  # whole rows of +-0 meet the zero biases: pre-activations of exactly +-0
    x[3::4] = -0.0
    return spec, params, SampleBatch(x, rng.integers(0, spec.output_dim, size=n))


def pinned_bytes(quantity, spec, params, batch, work):
    if quantity == "forward":
        return b"".join(out.tobytes() for out in forward(spec, params, batch))
    if quantity == "mean_gradient":
        fresh = mean_gradient(spec, params, batch).tobytes()
        assert mean_gradient(spec, params, batch, work=work).tobytes() == fresh
        return fresh
    layers = ("head.weight", "head.bias") if quantity == "head_gradients" else None
    return per_sample_gradients(spec, params, batch, layers=layers).tobytes()


@pytest.mark.parametrize("activation,quantity", list(WALK_PINS))
def test_the_walk_keeps_its_pinned_bytes(activation, quantity):
    digest, work = hashlib.sha256(), {}  # one workspace for every row count
    for n in (1, 7, 64, 480):
        digest.update(pinned_bytes(quantity, *pin_instance(activation, n), work))
    assert digest.hexdigest() == WALK_PINS[activation, quantity]


# ------------------------------------------------ delta-only head, memoized facts


@pytest.mark.parametrize("name", list(WORK_SPECS))
def test_the_delta_only_head_gives_the_bytes_of_the_full_head(name):
    spec = WORK_SPECS[name]
    head = models.KINDS[spec.kind].head
    for n in (1, 7, 64):
        params, batch = work_instance(spec, n, seed=n)
        z = models._walk(spec, params, batch.inputs, None)[-1][3]
        z[n // 3 :: 3] = 0.0  # rows of +-0
        z[n // 2 :: 5] = -0.0
        if spec.kind == "logistic" and n == 64:
            assert (z > 0).any() and (z < 0).any()  # logits of both signs
        full = head(z.copy(), batch.targets)[2]
        delta = head(z.copy(), batch.targets, only_delta=True)
        assert delta.shape == full.shape == (n, z.shape[1])
        assert delta.tobytes() == full.tobytes()


def test_equal_specs_share_one_layout_and_layer_spans_stays_fresh():
    a = ModelSpec("mlp", input_dim=5, output_dim=3, hidden_dim=4)
    b = ModelSpec("mlp", input_dim=5, output_dim=3, hidden_dim=4)
    assert a is not b and layer_layout(a) is layer_layout(b)
    expected = {name: slice(start, start + size) for name, start, size in layer_layout(a)}
    spans = layer_spans(layer_layout(a))
    assert spans == expected
    spans["head.bias"] = slice(0, 0)  # the caller's own dict
    del spans["hidden.weight"]
    assert layer_spans(layer_layout(b)) == expected
    assert layer_spans(layer_layout(b), ["head.bias"]) == {"head.bias": expected["head.bias"]}


def test_two_layer_sets_in_one_workspace_give_the_bytes_of_fresh_calls():
    spec = WORK_SPECS["mlp-relu"]
    sets = (("head.weight", "head.bias"), ["hidden.bias", "head.weight"], None, ("head.bias",))
    work = {}
    for n in (5, 9, 5):
        params, batch = work_instance(spec, n, seed=n)
        for layers in sets * 2:
            fresh = per_sample_gradients(spec, params, batch, layers=layers)
            got = per_sample_gradients(spec, params, batch, layers=layers, work=work)
            assert got.tobytes() == fresh.tobytes()
            cols = make_mask(params.layout, layers or [name for name, _, _ in params.layout])
            assert np.array_equal(fresh, per_sample_gradients(spec, params, batch)[:, cols.indices])
    assert layer_spans(params.layout) == {
        name: slice(start, start + size) for name, start, size in params.layout
    }
