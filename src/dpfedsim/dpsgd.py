"""Client-side private optimization: per-sample clipping, Gaussian noise,
epoch batch plans, and the masked update step.

The noisy gradient is formed exactly as written in the clip-then-average
rule: the per-coordinate noise has standard deviation sigma * C and is added
once to the already-averaged clipped sum.  Dividing the noise by the batch
size as well is a common alternative convention; it is available behind
``scale_noise_by_batch`` for sensitivity studies but is off by default.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, ShapeError
from .masking import PartitionMask
from .models import ParameterVector
from .rng import STREAM_POISSON, STREAM_SHUFFLE, derive_seed, generator, standard_normal

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
    scale_noise_by_batch: bool = False

    def __post_init__(self) -> None:
        if self.clip_norm <= 0:
            raise ShapeError("clip_norm must be > 0")
        if self.noise_multiplier < 0:
            raise ShapeError("noise_multiplier must be >= 0")
        if self.learning_rate <= 0:
            raise ShapeError("learning_rate must be > 0")
        if self.optimizer not in OPTIMIZERS:
            raise ShapeError(f"unknown optimizer {self.optimizer!r}")
        if not (0.0 < self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise ShapeError("adam decay rates must lie in (0, 1)")
        if self.adam_eps <= 0:
            raise ShapeError("adam_eps must be > 0")


@dataclass(frozen=True)
class SamplerPlan:
    """How one client forms mini-batches from its shard for one epoch.

    ``shuffle`` partitions a fresh permutation into consecutive batches, so
    every sample is used exactly once per epoch (the partial final batch is
    kept).  ``poisson`` includes each sample independently with rate
    q = batch_size / dataset_size and exists for contrast in tests.
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


def clip_per_sample(grads: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale each row onto the L2 ball of radius clip_norm.

    Row i becomes g_i / max(1, ||g_i|| / C).  Rows already inside the ball
    are returned bitwise unchanged and the operation is exactly idempotent.
    A finite row whose squared norm overflows is still clipped, not zeroed.
    The input is never written to.
    """
    if clip_norm <= 0:
        raise ShapeError("clip_norm must be > 0")
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2:
        raise ShapeError("expected a [batch x dim] gradient matrix")
    with np.errstate(over="ignore"):  # overflowing rows are redone below
        norms = np.linalg.norm(grads, axis=1)
    # a finite norm means a finite row, so entries are scanned only when a
    # norm is not: a NaN/inf entry or an overflowing square
    unsafe = np.flatnonzero(~np.isfinite(norms))
    finite_rows = np.all(np.isfinite(grads[unsafe]), axis=1)
    if not finite_rows.all():
        raise NumericError(f"non-finite gradient in sample {int(unsafe[np.argmin(finite_rows)])}")
    limit = clip_norm * (1.0 + _CLIP_SLACK)
    scale = np.where(norms > limit, clip_norm / np.maximum(norms, 1e-300), 1.0)
    clipped = grads * scale[:, None]
    for i in unsafe:  # ||g|| = m * ||g / m|| with m = max |g|, free of overflow
        m = np.abs(grads[i]).max()
        unit = grads[i] / m
        r = np.linalg.norm(unit)
        clipped[i] = unit * (clip_norm / r) if r > limit / m else grads[i]
    return clipped


def noisy_mean(
    clipped: np.ndarray,
    noise_multiplier: float,
    clip_norm: float,
    noise_seed: int,
    scale_noise_by_batch: bool = False,
) -> np.ndarray:
    """Average the clipped rows and add seeded N(0, (sigma*C)^2 I) noise.

    With noise_multiplier == 0 this is the exact clipped mean; with noise the
    draw is a pure function of noise_seed, so reruns are bit-identical.
    """
    clipped = np.asarray(clipped, dtype=np.float64)
    if clipped.ndim != 2 or clipped.shape[0] == 0:
        raise ShapeError("expected a non-empty [batch x dim] matrix")
    mean = clipped.mean(axis=0)
    if noise_multiplier == 0.0:
        return mean
    noise = noise_multiplier * clip_norm * standard_normal(noise_seed, clipped.shape[1])
    if scale_noise_by_batch:
        noise = noise / clipped.shape[0]
    return mean + noise


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
    """First/second moment buffers, owned by one client's training loop."""

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
) -> ParameterVector:
    """Apply one update to the trainable coordinates only.

    Frozen coordinates of the returned vector are bit-identical to the
    input.  ``grad`` is the (noisy, clipped) gradient over the masked
    subspace, length mask.trainable_count.  Adam uses bias-corrected moments
    held in ``state``; step_index starts at 1.
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
        state.m = cfg.adam_beta1 * state.m + (1.0 - cfg.adam_beta1) * grad
        state.v = cfg.adam_beta2 * state.v + (1.0 - cfg.adam_beta2) * grad * grad
        m_hat = state.m / (1.0 - cfg.adam_beta1**step_index)
        v_hat = state.v / (1.0 - cfg.adam_beta2**step_index)
        update = m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        if not all(np.isfinite(x).all() for x in (state.m, state.v, update)):
            raise NumericError(f"adam moments or update not finite at step {step_index}")
    else:
        update = grad
    values = params.values.copy()
    values[mask.indices] -= cfg.learning_rate * update
    return ParameterVector(values, params.layout)


def plan_for_epoch(plan: SamplerPlan, round_index: int, epoch: int) -> SamplerPlan:
    """Derive the per-epoch plan so each (round, epoch) shuffles independently."""
    return replace(plan, seed=derive_seed(plan.seed, STREAM_SHUFFLE, round_index, epoch))
