"""Tiny differentiable models with exact per-example gradients.

Every kind is one stack of affine layers ``z = a @ W.T + b`` plus a loss head,
standing in for a large video backbone at desk scale:

* ``linear``   -- ``[head(in->1)]``, 0.5 * squared-error loss
* ``logistic`` -- ``[head(in->1)]``, one sigmoid logit, binary cross-entropy
* ``mlp``      -- ``[hidden(in->h, relu|tanh), head(h->out)]``, softmax cross-entropy

Parameters live in a single flat float64 vector with named, contiguous layer
ranges, which makes freezing and transport pure index operations.  Layout,
initialization, the forward pass and both gradient forms are one walk over
the stack; gradients are hand-rolled vectorized backprop, checked against
finite differences in the tests.  A hidden layer walks in one batch-sized
buffer plus its delta: its activation overwrites its pre-activation, and
backprop overwrites the activation with its derivative once it is used.
``per_sample_gradients(..., layers=names)`` stops backprop at the lowest
layer that owns one of the named parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from . import lane
from .errors import NumericError, ShapeError
from .rng import STREAM_INIT, derive_seed, generator, work_buffer

# activation name -> (function of the pre-activation, derivative given the activation),
# each written into ``out``, which may be the input; relu's a > 0 equals pre > 0
ACTIVATIONS = {
    "relu": (
        lambda pre, out: np.maximum(pre, 0.0, out=out),
        lambda a, out: np.greater(a, 0.0, out=out),
    ),
    "tanh": (
        lambda pre, out: np.tanh(pre, out=out),
        lambda a, out: np.subtract(1.0, np.multiply(a, a, out=out), out=out),
    ),
}

Layout = tuple[tuple[str, int, int], ...]
# Memoizes the walk's facts, pure functions of a spec, layout or layer set;
# bounded, as a process may build any number of specs.  Results are immutable.
_memo = lru_cache(maxsize=256)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; parameter layout is a pure function of it."""

    kind: str
    input_dim: int
    output_dim: int
    hidden_dim: int = 0
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ShapeError(f"unknown model kind {self.kind!r}, expected one of {tuple(KINDS)}")
        row = KINDS[self.kind]
        if self.input_dim < 1 or self.output_dim < 1:
            raise ShapeError("input_dim and output_dim must be positive")
        if row.output_dim is not None and self.output_dim != row.output_dim:
            raise ShapeError(f"{self.kind} model needs output_dim == {row.output_dim}")
        if not row.hidden and self.hidden_dim != 0:
            raise ShapeError(f"{self.kind} model must have hidden_dim == 0")
        if row.hidden and self.hidden_dim < 1:
            raise ShapeError(f"{self.kind} model needs hidden_dim >= 1")
        if row.hidden and self.activation not in ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}, not in {tuple(ACTIVATIONS)}")

    @property
    def is_classifier(self) -> bool:
        return KINDS[self.kind].head is not _squared_error


class _Affine(NamedTuple):
    """One layer of the stack: ``z = a @ W.T + b``, then ``activation`` if set."""

    weight: str  # parameter names
    bias: str
    fan_in: int
    fan_out: int
    activation: str | None = None


@_memo
def _stack(spec: ModelSpec) -> tuple[_Affine, ...]:
    """The model's layers, bottom first; the last one feeds the loss head."""
    row = KINDS[spec.kind]
    head_in = spec.hidden_dim if row.hidden else spec.input_dim
    head = _Affine("head.weight", "head.bias", head_in, row.head_width or spec.output_dim)
    if not row.hidden:
        return (head,)
    return _Affine("hidden.weight", "hidden.bias", spec.input_dim, head_in, spec.activation), head


@_memo
def layer_layout(spec: ModelSpec) -> Layout:
    """Ordered (name, offset, length) ranges of the flat parameter vector."""
    layout, offset = [], 0
    for layer in _stack(spec):
        layout.append((layer.weight, offset, layer.fan_out * layer.fan_in))
        offset += layer.fan_out * layer.fan_in
        layout.append((layer.bias, offset, layer.fan_out))
        offset += layer.fan_out
    return tuple(layout)


def parameter_count(spec: ModelSpec) -> int:
    return sum(layer.fan_out * (layer.fan_in + 1) for layer in _stack(spec))


@_memo
def _span_map(layout: Layout) -> MappingProxyType:
    """Read-only name -> coordinate range map of a layout, shared by every caller."""
    return MappingProxyType({name: slice(start, start + size) for name, start, size in layout})


def layer_spans(layout: Layout, names=None) -> dict[str, slice]:
    """Coordinate range of each layer in ``names`` (default: all), in layout
    order, as a new dict.  This is the one lookup of layer names: an unknown
    name is a ShapeError that lists the layout's names."""
    spans = _span_map(layout)
    if names is None:
        return dict(spans)
    for name in names:
        if name not in spans:
            raise ShapeError(f"unknown layer {name!r}; layout has {list(spans)}")
    return {name: span for name, span in spans.items() if name in names}


@dataclass
class ParameterVector:
    """Flat model parameters plus the named-layer layout they follow."""

    values: np.ndarray
    layout: Layout

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ShapeError("parameter values must be a 1-D array")
        expected = 0
        for name, offset, length in self.layout:
            if offset != expected:
                raise ShapeError(f"layer {name!r} starts at {offset}, expected {expected}")
            if length < 0:
                raise ShapeError(f"layer {name!r} has negative length")
            expected += length
        if expected != self.values.size:
            raise ShapeError(
                f"layout covers {expected} coordinates but values has {self.values.size}"
            )
        if not np.all(np.isfinite(self.values)):
            bad = int(np.flatnonzero(~np.isfinite(self.values))[0])
            raise NumericError(f"non-finite parameter at flat index {bad}")

    @property
    def dim(self) -> int:
        return self.values.size

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.values.copy(), self.layout)

    def layer(self, name: str) -> np.ndarray:
        """View of one named layer's coordinates."""
        return self.values[layer_spans(self.layout, (name,))[name]]


@dataclass
class SampleBatch:
    """A batch of inputs and targets (class indices or real regression targets)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets)
        if self.inputs.ndim != 2:
            raise ShapeError("inputs must be a [batch x input_dim] matrix")
        if self.inputs.shape[0] < 1:
            raise ShapeError("batch must contain at least one sample")
        if self.targets.ndim != 1 or self.targets.shape[0] != self.inputs.shape[0]:
            raise ShapeError("targets length must equal the inputs row count")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    def take(self, indices: np.ndarray) -> "SampleBatch":
        return SampleBatch(self.inputs[indices], self.targets[indices])


def _check_inputs(spec: ModelSpec, params: ParameterVector, batch: SampleBatch) -> None:
    expected = layer_layout(spec)
    if params.layout != expected:
        for got, want in zip(params.layout, expected):
            if got != want:
                raise ShapeError(f"layer {want[0]!r}: got {got}, expected {want}")
        raise ShapeError(
            f"layout has {len(params.layout)} layers, model expects {len(expected)}"
        )
    check_batch(spec, batch)


def check_batch(spec: ModelSpec, batch: SampleBatch) -> None:
    """Raise ShapeError unless the model takes the batch: its input width and,
    for a classifier, integer class indices in [0, output_dim)."""
    if batch.inputs.shape[1] != spec.input_dim:
        raise ShapeError(
            f"inputs have {batch.inputs.shape[1]} features, model expects {spec.input_dim}"
        )
    if spec.is_classifier:
        y = batch.targets
        if not np.issubdtype(y.dtype, np.integer):
            if not np.all(y == np.floor(y)):
                raise ShapeError("classification targets must be integer class indices")
        if np.any(y < 0) or np.any(y >= spec.output_dim):
            raise ShapeError(
                f"class indices must lie in [0, {spec.output_dim}); got range "
                f"[{y.min()}, {y.max()}]"
            )


# Loss heads map the stack's outputs z and the targets to per-sample losses
# and predictions; each KINDS row names its head.  Given only_delta, a head
# returns the output delta dloss/dz alone and forms neither losses nor
# predictions: the gradients read nothing else.
def _squared_error(z: np.ndarray, targets: np.ndarray, only_delta: bool = False):
    resid = z - targets.astype(np.float64)[:, None]
    if only_delta:
        return resid
    return 0.5 * np.sum(resid * resid, axis=1), z


def _binary_logit(z: np.ndarray, targets: np.ndarray, only_delta: bool = False):
    z = z[:, 0]
    y = targets.astype(np.int64).astype(np.float64)
    p = np.empty_like(z)  # sigmoid(z), split by sign so exp never overflows
    pos = z >= 0
    p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    p[~pos] = ez / (1.0 + ez)
    if only_delta:
        return (p - y)[:, None]
    # -[y log p + (1-y) log(1-p)] in the overflow-safe form
    losses = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return losses, np.column_stack([1.0 - p, p])


def _softmax_cross_entropy(z: np.ndarray, targets: np.ndarray, only_delta: bool = False):
    # a stabilized log-sum-exp keeps losses finite for any finite parameters
    y = targets.astype(np.int64)
    rows = np.arange(z.shape[0])
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    total = ez.sum(axis=1, keepdims=True)
    if only_delta:
        delta = ez / total
        delta[rows, y] -= 1.0
        return delta
    lse = zmax[:, 0] + np.log(total[:, 0])
    return lse - z[rows, y], np.exp(z - lse[:, None])


class _Kind(NamedTuple):
    """Everything that sets a model kind apart; a new kind is a new row."""

    head: Callable  # loss head; every head but _squared_error takes class indices
    head_width: int | None  # width of the head layer; None means output_dim
    output_dim: int | None  # the one output_dim the kind allows; None means any
    hidden: bool  # a hidden layer sits below the head


KINDS = {
    "linear": _Kind(_squared_error, None, 1, False),
    "logistic": _Kind(_binary_logit, 1, 2, False),
    "mlp": _Kind(_softmax_cross_entropy, None, None, True),
}


class _Walk(NamedTuple):
    """A walk's facts for one set of layer names (see _walk_facts)."""

    columns: MappingProxyType  # each named layer's rows of the packed gradient matrix
    width: int  # the packed rows in all
    lowest: int  # stack index of the lowest layer backprop reaches


@_memo
def _walk_facts(spec: ModelSpec, names: tuple[str, ...] | None) -> _Walk:
    """The layers ``names`` (default: all) packed in layout order, and where
    backprop stops for them; the map is read-only, as every caller shares it."""
    columns, width = {}, 0
    for name, span in layer_spans(layer_layout(spec), names).items():
        columns[name] = slice(width, width + span.stop - span.start)
        width = columns[name].stop
    stack = _stack(spec)
    owners = [i for i, layer in enumerate(stack) if {layer.weight, layer.bias} & columns.keys()]
    return _Walk(MappingProxyType(columns), width, owners[0] if owners else len(stack))


def _walk(spec: ModelSpec, params: ParameterVector, x: np.ndarray, work: dict | None) -> list:
    """Forward pass; per layer, bottom first: (layer, W, input a, output z), z in
    the workspace ``work``.  A hidden layer's activation overwrites its z in place."""
    steps, a, spans = [], x, _span_map(params.layout)
    for i, layer in enumerate(_stack(spec)):
        w = params.values[spans[layer.weight]].reshape(layer.fan_out, layer.fan_in)
        z = work_buffer(work, ("z", i), (x.shape[0], layer.fan_out))
        np.add(np.matmul(a, w.T, out=z), params.values[spans[layer.bias]], out=z)
        steps.append((layer, w, a, z))
        a = ACTIVATIONS[layer.activation][0](z, z) if layer.activation else z
    return steps


def _backprop(
    spec: ModelSpec, params: ParameterVector, batch: SampleBatch, names, divisor=1, work=None
):
    """Yield (layer, input activation, output delta) from the head down to the
    lowest layer that owns one of ``names`` (None: all); no delta is formed
    below it.  The head's delta is divided by ``divisor`` before it is
    propagated.  The walk and deltas live in the workspace ``work`` (fresh by
    default): resuming overwrites a yielded activation with its derivative,
    the next walk the rest."""
    lowest = _walk_facts(spec, None if names is None else tuple(names)).lowest
    steps = _walk(spec, params, batch.inputs, work)
    dz = KINDS[spec.kind].head(steps[-1][3], batch.targets, only_delta=True)
    if divisor != 1:
        dz /= divisor
    for i in range(len(steps) - 1, lowest - 1, -1):
        layer, w, a, _ = steps[i]
        yield layer, a, dz
        if i > lowest:
            ACTIVATIONS[steps[i - 1][0].activation][1](a, a)
            dz = np.matmul(dz, w, out=work_buffer(work, ("delta", i - 1), a.shape))
            dz *= a


def forward(
    spec: ModelSpec, params: ParameterVector, batch: SampleBatch
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses and predictions: class probabilities for classifiers
    (shape [batch x output_dim]), raw outputs for regression."""
    _check_inputs(spec, params, batch)
    z = _walk(spec, params, batch.inputs, None)[-1][3]  # fresh: the linear head returns z itself
    return KINDS[spec.kind].head(z, batch.targets)


def per_sample_gradients(
    spec: ModelSpec, params: ParameterVector, batch: SampleBatch, layers=None, work=None
) -> np.ndarray:
    """Matrix of per-example loss gradients, one row per sample.

    Row i is the gradient of sample i's loss with respect to the parameters
    named in ``layers`` (default: all), in layout order: those columns of the
    full matrix, bit for bit.  Backprop stops at the lowest layer that owns
    one of them.  The matrix is column-major; the private step sums row norms
    and batch means in that order, so the layout is part of a run's bits.
    The matrix (``work["grads"]``, transposed) and the walk live in the
    workspace ``work`` (fresh by default; see rng.work_buffer), so the result
    is overwritten by the next call given the same workspace.  A weight block
    wide enough for the helper lane is formed in two halves of its output
    units, the first on the lane (see lane.in_halves).
    """
    _check_inputs(spec, params, batch)
    layers = None if layers is None else tuple(layers)
    spans, width, _ = _walk_facts(spec, layers)
    n = batch.size
    cols = work_buffer(work, "grads", (width, n))  # the transposed result, one row per parameter
    for layer, a, dz in _backprop(spec, params, batch, layers, work=work):
        if layer.weight in spans:
            block = cols[spans[layer.weight]].reshape(layer.fan_out, layer.fan_in, n)
            # transposed operands keep einsum's inner loop on contiguous memory;
            # einsum, not np.multiply, so exact zeros keep their +0.0 sign
            dz_t, a_t = np.ascontiguousarray(dz.T), np.ascontiguousarray(a.T)

            def expand(units):
                # each entry is one product, so a part of the output units
                # writes the bytes it writes in the whole block
                np.einsum("on,in->oin", dz_t[units], a_t, out=block[units])

            lane.in_halves(expand, layer.fan_out, layer.fan_out * layer.fan_in)
        if layer.bias in spans:
            cols[spans[layer.bias]] = dz.T
    return cols.T


def mean_gradient(
    spec: ModelSpec, params: ParameterVector, batch: SampleBatch, *, work: dict | None = None
) -> np.ndarray:
    """Gradient of the batch-mean loss, computed in accumulated (matmul) form.

    The same walk as per_sample_gradients, reduced over the batch by
    contraction instead of forming rows; the tests cross-check the two.
    ``work`` is a workspace (see rng.work_buffer) keyed by (role, layer
    index) that the caller may keep between calls; the returned gradient
    never shares memory with it.
    """
    _check_inputs(spec, params, batch)
    n = batch.size
    # The 1/n stays where each kind has always applied it, since moving it
    # changes low bits (the golden tests pin pretrained mlp parameters): a
    # stack with a hidden layer divides the head's delta before backprop, a
    # single layer divides after contracting.
    before, after = (n, 1) if spec.hidden_dim else (1, n)
    spans = _span_map(params.layout)
    grad = np.empty(params.dim)
    for layer, a, dz in _backprop(spec, params, batch, None, before, work):
        bias = grad[spans[layer.bias]]
        np.divide(np.sum(dz, axis=0, out=bias), after, out=bias)
        weight = grad[spans[layer.weight]].reshape(layer.fan_out, layer.fan_in)
        np.divide(np.matmul(dz.T, a, out=weight), after, out=weight)
    return grad


def init_params(spec: ModelSpec, seed: int) -> ParameterVector:
    """Seeded initialization: uniform weights in [-a, a] with
    a = sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = generator(derive_seed(seed, STREAM_INIT))
    blocks = []
    for layer in _stack(spec):
        a = np.sqrt(6.0 / (layer.fan_in + layer.fan_out))
        blocks += [rng.uniform(-a, a, size=layer.fan_out * layer.fan_in), np.zeros(layer.fan_out)]
    return ParameterVector(np.concatenate(blocks), layer_layout(spec))


def save_params(params: ParameterVector, path) -> None:
    """Persist a parameter vector as an .npz archive (values plus layout)."""
    names, offsets, lengths = zip(*params.layout)
    np.savez(
        path,
        values=params.values,
        layer_names=np.array(names),
        layer_offsets=np.array(offsets, dtype=np.int64),
        layer_lengths=np.array(lengths, dtype=np.int64),
    )


def load_params(path) -> ParameterVector:
    """Inverse of save_params."""
    with np.load(path, allow_pickle=False) as archive:
        layout = tuple(
            (str(name), int(offset), int(length))
            for name, offset, length in zip(
                archive["layer_names"], archive["layer_offsets"], archive["layer_lengths"]
            )
        )
        return ParameterVector(archive["values"], layout)


def pretrain(
    spec: ModelSpec, data: SampleBatch, epochs: int, lr: float, seed: int
) -> ParameterVector:
    """Non-private full-batch gradient descent from a seeded initialization.

    Provides a reproducible warm start; epochs=0 returns the initialization
    untouched.
    """
    if epochs < 0:
        raise ShapeError("epochs must be >= 0")
    if not lr > 0:
        raise ShapeError("lr must be > 0")
    params = init_params(spec, seed)
    work: dict = {}  # one workspace for every epoch, dropped on return
    for epoch in range(epochs):
        params.values -= lr * mean_gradient(spec, params, data, work=work)
        if not np.all(np.isfinite(params.values)):
            raise NumericError(f"pretraining diverged at epoch {epoch}")
    return params
