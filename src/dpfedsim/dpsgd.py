"""Client-side private optimization: per-sample clipping, Gaussian noise,
epoch batch plans, and the masked update step.

The noisy gradient is formed exactly as written in the clip-then-average
rule: the per-coordinate noise has standard deviation sigma * C and is added
once to the already-averaged clipped sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import lane
from .errors import NumericError, ShapeError
from .masking import PartitionMask
from .models import ModelSpec, ParameterVector, SampleBatch, per_sample_gradients
from .rng import STREAM_POISSON, STREAM_SHUFFLE, derive_seed, generator, standard_normal, work_buffer
from .rng import box_muller

OPTIMIZERS = ("sgd", "adam")
SAMPLER_MODES = ("shuffle", "poisson")

# Clip threshold slack: rows within one part in 1e12 of the bound are left
# untouched, which keeps clipping exactly idempotent despite the rounding in
# the recomputed norm of an already-clipped row.
_CLIP_SLACK = 1e-12

@dataclass(frozen=True)
class DpConfig:
    """Clipping, noise, and step-size settings for private local training."""

    clip_norm: float
    noise_multiplier: float
    learning_rate: float
    optimizer: str = "sgd"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        if not 0 < self.clip_norm < np.inf:  # every bound here fails NaN too
            raise ShapeError("clip_norm must be > 0 and finite")
        if not 0 <= self.noise_multiplier < np.inf:
            raise ShapeError("noise_multiplier must be >= 0 and finite")
        if not 0 < self.learning_rate < np.inf:
            raise ShapeError("learning_rate must be > 0 and finite")
        if self.optimizer not in OPTIMIZERS:
            raise ShapeError(f"unknown optimizer {self.optimizer!r}")
        if not (0.0 < self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise ShapeError("adam decay rates must lie in (0, 1)")
        if not self.adam_eps > 0:
            raise ShapeError("adam_eps must be > 0")


@dataclass(frozen=True)
class SamplerPlan:
    """How one client forms mini-batches from its shard for one epoch.

    ``shuffle`` partitions a fresh permutation into consecutive batches, so
    every sample is used exactly once per epoch (the partial final batch is
    kept).  ``poisson``, equally supported, includes each sample independently
    with rate q = batch_size / dataset_size, so a batch may even be empty.
    """

    mode: str
    batch_size: int
    dataset_size: int
    seed: int

    def __post_init__(self) -> None:
        if self.mode not in SAMPLER_MODES:
            raise ShapeError(f"unknown sampler mode {self.mode!r}")
        if self.batch_size < 1 or self.dataset_size < 1:
            raise ShapeError("batch_size and dataset_size must be >= 1")
        if self.mode == "shuffle" and self.batch_size > self.dataset_size:
            raise ShapeError(
                f"batch_size {self.batch_size} exceeds dataset_size {self.dataset_size}"
            )

    @property
    def sampling_ratio(self) -> float:
        return min(1.0, self.batch_size / self.dataset_size)


def clip_per_sample(grads: np.ndarray, clip_norm: float, work=None) -> np.ndarray:
    """Scale each row onto the L2 ball of radius clip_norm.

    Row i becomes g_i / max(1, ||g_i|| / C).  Rows already inside the ball
    are returned bitwise unchanged and the operation is exactly idempotent.
    A finite row whose squared norm overflows is still clipped, not zeroed.
    The input is never written to.  The result is ``work["clipped"]`` in the
    workspace ``work`` (fresh by default; see rng.work_buffer), column-major
    for column-major input and row-major otherwise; the order fixes the
    norms' bits.  A result passed back in with its own workspace is refused.
    """
    if not clip_norm > 0:  # NaN fails too
        raise ShapeError("clip_norm must be > 0")
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2:
        raise ShapeError("expected a [batch x dim] gradient matrix")
    column_major = grads.flags.f_contiguous and not grads.flags.c_contiguous
    if column_major:
        out = work_buffer(work, "clipped", grads.shape[::-1]).T
    else:
        out = work_buffer(work, "clipped", grads.shape)
    if np.shares_memory(out, grads):
        raise ShapeError("grads must not share memory with the workspace's clipped matrix")
    with np.errstate(over="ignore"):  # overflowing rows are redone below
        if column_major:
            # a column-major matrix of >= 2 rows: einsum, like add.reduce,
            # sums each row's squares in column order, so the bits agree
            # where einsum rounds each product before adding it (no fused
            # multiply-add), as the x86-64 numpy 2.4 build measured does;
            # the clip tests pin these bits against np.linalg.norm
            norms = np.sqrt(np.einsum("ij,ij->i", grads, grads))
        else:
            # np.linalg.norm(grads, axis=1) computed in ``out``, bit for bit
            norms = np.sqrt(np.add.reduce(np.multiply(grads, grads, out=out), axis=1))
    # a finite norm means a finite row, so entries are scanned only when a
    # norm is not: a NaN/inf entry or an overflowing square
    unsafe = np.flatnonzero(~np.isfinite(norms))
    finite_rows = np.all(np.isfinite(grads[unsafe]), axis=1)
    if not finite_rows.all():
        raise NumericError(f"non-finite gradient in sample {int(unsafe[np.argmin(finite_rows)])}")
    limit = clip_norm * (1.0 + _CLIP_SLACK)
    scale = np.where(norms > limit, clip_norm / np.maximum(norms, 1e-300), 1.0)
    scaled = np.flatnonzero(norms > limit)
    # few rows to scale: copy, as x * 1.0 == x, then scale those rows; the
    # cut-off sits at the measured crossover (README, Clipping)
    few = scaled.size <= grads.shape[0] // 16

    def scale_columns(cols):
        if few:
            np.copyto(out[:, cols], grads[:, cols])
            for i in scaled:
                np.multiply(grads[i, cols], scale[i], out=out[i, cols])
        else:
            np.multiply(grads[:, cols], scale[:, None], out=out[:, cols])

    lane.in_halves(scale_columns, grads.shape[1])
    for i in unsafe:  # ||g|| = m * ||g / m|| with m = max |g|, free of overflow
        m = np.abs(grads[i]).max()
        unit = grads[i] / m
        r = np.linalg.norm(unit)
        out[i] = unit * (clip_norm / r) if r > limit / m else grads[i]
    return out


def noisy_mean(
    clipped: np.ndarray,
    noise_multiplier: float,
    clip_norm: float,
    noise_seed: int,
    work=None,
    normals=None,
) -> np.ndarray:
    """Average the clipped rows and add seeded N(0, (sigma*C)^2 I) noise.

    The mean divides by the rows actually given, so a Poisson batch is
    averaged over the samples it drew, not over the expected batch size.
    With noise_multiplier == 0 this is the exact clipped mean; with noise the
    draw is a pure function of noise_seed, so reruns are bit-identical.  The
    mean and the draw live in the workspace ``work`` (fresh by default); a
    reused workspace gives the bytes of a fresh one, and its result is
    overwritten by the next call given it.  ``normals``, the standard normals
    of noise_seed drawn beforehand, are scaled in place and not drawn again.
    """
    clipped = np.asarray(clipped, dtype=np.float64)
    if clipped.ndim != 2 or clipped.shape[0] == 0:
        raise ShapeError("expected a non-empty [batch x dim] matrix")
    width = clipped.shape[1]
    if normals is not None and normals.shape != (width,):
        raise ShapeError(f"normals must have shape ({width},)")
    mean = work_buffer(work, "mean", (width,))
    noise = None
    if noise_multiplier != 0.0:
        noise = standard_normal(noise_seed, width, work=work) if normals is None else normals
    std = noise_multiplier * clip_norm

    def mean_columns(cols):
        clipped[:, cols].mean(axis=0, out=mean[cols])
        if noise is not None:
            np.add(mean[cols], np.multiply(noise[cols], std, out=noise[cols]), out=mean[cols])

    lane.in_halves(mean_columns, width)
    return mean


def private_step(
    spec: ModelSpec,
    params: ParameterVector,
    batch: SampleBatch,
    mask: PartitionMask,
    dp: DpConfig,
    noise_seed: int,
    work: dict,
    normals: np.ndarray | None = None,
) -> np.ndarray:
    """One step's noisy clipped mean gradient over the trainable coordinates.

    Per-sample gradients of the mask's layers, clipped row by row, then
    averaged with seeded noise.  Every intermediate, the model walk's
    included, lives in the caller's workspace ``work`` (see rng.work_buffer).
    The result is one of its buffers, overwritten by the next step given the
    same workspace.  ``normals``, noise_seed's standard normals drawn
    beforehand (see noisy_mean), are used in place of a draw.  Otherwise, on
    a wide mask, the noise is drawn on the helper lane while the clip takes
    its row norms, once the gradients are formed; the draw's keys are not
    the clip's.
    """
    width = mask.trainable_count
    grads = per_sample_gradients(spec, params, batch, mask.selected_layers, work=work)
    draw = None
    if normals is None and dp.noise_multiplier != 0.0 and lane.uses_lane(width):
        draw = lane.on_lane(box_muller, generator(noise_seed), width, work)
    try:
        clipped = clip_per_sample(grads, dp.clip_norm, work=work)
    finally:
        if draw is not None:
            normals = draw.result()
    return noisy_mean(
        clipped, dp.noise_multiplier, dp.clip_norm, noise_seed, work=work, normals=normals
    )


def epoch_batches(plan: SamplerPlan) -> list[np.ndarray]:
    """Ordered index batches for one local epoch under the plan's mode."""
    if plan.mode == "shuffle":
        order = generator(plan.seed).permutation(plan.dataset_size)
        return [
            order[start : start + plan.batch_size]
            for start in range(0, plan.dataset_size, plan.batch_size)
        ]
    q = plan.sampling_ratio
    rng = generator(derive_seed(plan.seed, STREAM_POISSON))
    n_batches = -(-plan.dataset_size // plan.batch_size)
    batches = []
    for _ in range(n_batches):
        members = np.flatnonzero(rng.random(plan.dataset_size) < q)
        batches.append(members)
    return batches


@dataclass
class AdamState:
    """First/second moment buffers, owned by one client's training loop and
    updated in place by dp_step."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(np.zeros(dim), np.zeros(dim))


def dp_step(
    params: ParameterVector,
    mask: PartitionMask,
    grad: np.ndarray,
    cfg: DpConfig,
    step_index: int,
    state: AdamState | None = None,
    in_place: bool = False,
) -> ParameterVector:
    """Apply one update to the trainable coordinates only.

    Frozen coordinates of the returned vector are bit-identical to the
    input.  ``grad`` is the (noisy, clipped) gradient over the masked
    subspace, length mask.trainable_count.  Adam uses bias-corrected moments
    held in ``state``, checked for finiteness at every step; step_index
    starts at 1.  By default the result is a new vector, whose values are
    checked for finiteness; with ``in_place`` the same bits are written into
    ``params``, unchecked, and it is returned.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != (mask.trainable_count,):
        raise ShapeError(
            f"gradient has length {grad.size}, mask selects {mask.trainable_count}"
        )
    if mask.total_count != params.dim:
        raise ShapeError("mask and parameter vector cover different dimensions")
    if cfg.optimizer == "adam":
        if state is None:
            raise ShapeError("adam requires a moment state owned by the caller")
        if step_index < 1:
            raise ShapeError("adam step_index starts at 1")
        m, v = state.m, state.v  # updated in place
        np.add(np.multiply(m, cfg.adam_beta1, out=m), (1.0 - cfg.adam_beta1) * grad, out=m)
        np.add(np.multiply(v, cfg.adam_beta2, out=v), (1.0 - cfg.adam_beta2) * grad * grad, out=v)
        update = m / (1.0 - cfg.adam_beta1**step_index)
        update /= np.sqrt(v / (1.0 - cfg.adam_beta2**step_index)) + cfg.adam_eps
        if not all(np.isfinite(x).all() for x in (m, v, update)):
            raise NumericError(f"adam moments or update not finite at step {step_index}")
    else:
        update = grad
    values = params.values if in_place else params.values.copy()
    values[mask.selector] -= cfg.learning_rate * update
    return params if in_place else ParameterVector(values, params.layout)


def plan_for_epoch(plan: SamplerPlan, round_index: int, epoch: int) -> SamplerPlan:
    """Derive the per-epoch plan so each (round, epoch) shuffles independently."""
    return replace(plan, seed=derive_seed(plan.seed, STREAM_SHUFFLE, round_index, epoch))
