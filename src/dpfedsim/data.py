"""Synthetic dataset generators and a small loader of comma-separated numbers."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeError
from .models import SampleBatch
from .rng import STREAM_DATASET, derive_seed, generator

GENERATORS = ("gaussian-blobs", "two-spirals")


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    generator: str
    classes: int
    samples: int
    input_dim: int
    noise_std: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.generator not in GENERATORS:
            raise ShapeError(f"unknown generator {self.generator!r}, expected {GENERATORS}")
        if self.classes < 2:
            raise ShapeError("need at least 2 classes")
        if self.samples < self.classes:
            raise ShapeError("need at least one sample per class")
        if self.input_dim < 1:
            raise ShapeError("input_dim must be >= 1")
        if not self.noise_std >= 0:  # NaN fails too
            raise ShapeError("noise_std must be >= 0")
        if self.generator == "two-spirals" and (self.classes != 2 or self.input_dim != 2):
            raise ShapeError("two-spirals is a 2-class, 2-dimensional generator")


def make_dataset(spec: SyntheticDatasetSpec) -> SampleBatch:
    """Seeded synthetic classification set; every class is represented."""
    rng = generator(derive_seed(spec.seed, STREAM_DATASET))
    # round-robin class sizes, so counts differ by at most one
    counts = np.bincount(np.arange(spec.samples) % spec.classes, minlength=spec.classes)
    if spec.generator == "gaussian-blobs":
        inputs, targets = _blobs(spec, counts, rng)
    else:
        inputs, targets = _spirals(spec, counts, rng)
    order = rng.permutation(spec.samples)
    return SampleBatch(inputs[order], targets[order])


def _blobs(spec: SyntheticDatasetSpec, counts: np.ndarray, rng: np.random.Generator):
    if spec.input_dim >= 2:
        angles = 2.0 * np.pi * np.arange(spec.classes) / spec.classes
        means = np.zeros((spec.classes, spec.input_dim))
        means[:, 0] = 3.0 * np.cos(angles)
        means[:, 1] = 3.0 * np.sin(angles)
    else:
        means = (3.0 * np.arange(spec.classes))[:, None]
    xs, ys = [], []
    for c, n_c in enumerate(counts):
        xs.append(means[c] + spec.noise_std * rng.standard_normal((n_c, spec.input_dim)))
        ys.append(np.full(n_c, c, dtype=np.int64))
    return np.concatenate(xs), np.concatenate(ys)


def _spirals(spec: SyntheticDatasetSpec, counts: np.ndarray, rng: np.random.Generator):
    xs, ys = [], []
    for c, n_c in enumerate(counts):
        t = np.linspace(0.25, 1.0, n_c) * 2.5 * np.pi
        phase = np.pi * c
        pts = np.column_stack([t * np.cos(t + phase), t * np.sin(t + phase)]) / np.pi
        pts += spec.noise_std * rng.standard_normal(pts.shape)
        xs.append(pts)
        ys.append(np.full(n_c, c, dtype=np.int64))
    return np.concatenate(xs), np.concatenate(ys)


def split_train_test(
    data: SampleBatch, test_fraction: float, seed: int
) -> tuple[SampleBatch, SampleBatch]:
    """Seeded shuffled split; both sides are non-empty."""
    if not (0.0 < test_fraction < 1.0):
        raise ShapeError("test_fraction must lie in (0, 1)")
    test, train = seeded_split(data, test_fraction, derive_seed(seed, STREAM_DATASET, 1))
    return train, test


def seeded_split(data: SampleBatch, fraction: float, key: int) -> tuple[SampleBatch, SampleBatch]:
    """The first round(fraction * n) rows of a permutation seeded by key, but
    at least one and at most n - 1, and the rest."""
    n = data.size
    n_first = max(1, min(n - 1, round(fraction * n)))
    order = generator(key).permutation(n)
    return data.take(order[:n_first]), data.take(order[n_first:])


def load_delimited(path: str | Path) -> SampleBatch:
    """Comma-separated finite numbers, no header row, the class label last; a file
    with no rows, a cell that is not a number or a row of another width is a
    ShapeError naming the file."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's "no data", refused below
            table = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ShapeError(f"{path}: {exc}") from exc
    if table.size == 0:
        raise ShapeError(f"{path}: holds no data rows")
    if table.shape[1] < 2:
        raise ShapeError("need at least one feature column plus the label column")
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ShapeError(f"{path}: row {bad[0] + 1} holds a non-finite value")
    labels = table[:, -1]
    if np.all(labels == np.floor(labels)):
        targets: np.ndarray = labels.astype(np.int64)
    else:
        targets = labels
    return SampleBatch(table[:, :-1], targets)
