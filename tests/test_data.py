"""Synthetic generators, splits, and the delimited loader."""

import hashlib

import numpy as np
import pytest

from dpfedsim import ShapeError, SyntheticDatasetSpec, load_delimited, make_dataset, split_train_test
from dpfedsim.federation import split_public_private


def test_blobs_every_class_represented():
    spec = SyntheticDatasetSpec("gaussian-blobs", classes=3, samples=31, input_dim=2, seed=0)
    data = make_dataset(spec)
    assert data.size == 31
    counts = np.bincount(data.targets.astype(int), minlength=3)
    assert counts.min() >= 1
    assert counts.max() - counts.min() <= 1


def test_blobs_deterministic_per_seed():
    spec = SyntheticDatasetSpec("gaussian-blobs", classes=2, samples=40, input_dim=3, seed=5)
    a, b = make_dataset(spec), make_dataset(spec)
    assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.targets, b.targets)
    c = make_dataset(SyntheticDatasetSpec("gaussian-blobs", 2, 40, 3, seed=6))
    assert not np.array_equal(a.inputs, c.inputs)


def test_blobs_low_noise_classes_are_separated():
    spec = SyntheticDatasetSpec("gaussian-blobs", classes=2, samples=100, input_dim=2, noise_std=0.1, seed=1)
    data = make_dataset(spec)
    mean0 = data.inputs[data.targets == 0].mean(axis=0)
    mean1 = data.inputs[data.targets == 1].mean(axis=0)
    assert np.linalg.norm(mean0 - mean1) > 3.0


def test_two_spirals_constraints():
    with pytest.raises(ShapeError):
        SyntheticDatasetSpec("two-spirals", classes=3, samples=30, input_dim=2)
    data = make_dataset(SyntheticDatasetSpec("two-spirals", 2, 80, 2, noise_std=0.05, seed=2))
    assert data.size == 80
    assert set(np.unique(data.targets.astype(int))) == {0, 1}


def test_split_sizes_and_disjointness():
    data = make_dataset(SyntheticDatasetSpec("gaussian-blobs", 2, 100, 2, seed=3))
    train, test = split_train_test(data, 0.25, seed=0)
    assert train.size == 75 and test.size == 25
    # rows are disjoint: every test row occurs in the original but reuse is impossible
    combined = np.vstack([train.inputs, test.inputs])
    assert combined.shape[0] == 100
    assert np.array_equal(np.sort(combined, axis=0), np.sort(data.inputs, axis=0))


def test_split_rejects_degenerate_fraction():
    data = make_dataset(SyntheticDatasetSpec("gaussian-blobs", 2, 10, 2, seed=4))
    with pytest.raises(ShapeError):
        split_train_test(data, 0.0, seed=0)
    with pytest.raises(ShapeError):
        split_train_test(data, 1.0, seed=0)


def test_load_delimited(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,1\n")
    batch = load_delimited(path)
    assert batch.size == 3
    assert batch.inputs.shape == (3, 2)
    assert batch.targets.dtype == np.int64
    assert batch.targets.tolist() == [0, 1, 1]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_delimited_rejects_non_finite_values_naming_the_row(tmp_path, cell):
    path = tmp_path / "toy.csv"
    path.write_text(f"0.5,1.5,0\n-1.0,2.0,1\n0.0,{cell},1\n1.0,{cell},0\n")
    with pytest.raises(ShapeError, match="row 3 holds a non-finite value"):
        load_delimited(path)


def _digest(batch):
    return hashlib.sha256(batch.inputs.tobytes() + batch.targets.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("fraction", [0.01, 0.3, 0.99])
def test_both_seeded_splits_keep_their_rows(fraction):
    # pinned before the two splits shared one function; 0.01 and 0.99 of 10
    # rows hit the clamps of one row and n - 1 rows
    data = make_dataset(SyntheticDatasetSpec("gaussian-blobs", 2, 10, 2, seed=4))
    train, test = split_train_test(data, fraction, seed=7)
    public, private = split_public_private(data, fraction, 7)
    n_first, digests = SPLIT_PINS[fraction]
    assert test.size == public.size == n_first
    assert [_digest(b) for b in (train, test, public, private)] == digests


SPLIT_PINS = {  # fraction -> (test and public rows, digests of train, test, public, private)
    0.01: (1, ["a2dfd8c1c97c71a0", "829f78fc15d269ca", "12d39ad8a74185a3", "4e615f05f7f6fbea"]),
    0.3: (3, ["3433db817717e57d", "c40c5609ace70c96", "7bc55afb162f15cb", "488ac595d728cc56"]),
    0.99: (9, ["33e75d782feff582", "de51f4b7729080aa", "592ea00815a3c404", "829f78fc15d269ca"]),
}
