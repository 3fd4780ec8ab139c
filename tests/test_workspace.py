"""The one workspace rule of the private step: every buffer comes from
rng.work_buffer, one flat allocation per key, grown only when a shape needs
more values than it holds."""

import numpy as np
import pytest

from dpfedsim import (
    DpConfig,
    ModelSpec,
    SampleBatch,
    SamplerPlan,
    epoch_batches,
    init_params,
    make_mask,
    private_step,
)
from dpfedsim import lane
from dpfedsim.rng import work_buffer

RNG = np.random.default_rng

# every layer trained: WIDE is 4 423 columns, above the lane's cut-off; NARROW 93
WIDE = ModelSpec("mlp", input_dim=64, output_dim=3, hidden_dim=65)
NARROW = ModelSpec("mlp", input_dim=6, output_dim=3, hidden_dim=9)
SPECS = {"wide": WIDE, "narrow": NARROW}
# the keys whose shape follows the batch size, and those of the trainable width
ROW_KEYS = ("grads", "clipped", ("z", 0), ("z", 1), ("delta", 0))
WIDTH_KEYS = ("uniforms", "normals", "mean")


def _steps(spec, sizes, work=None):
    """One private step per batch size, in one workspace (fresh per step by
    default); yields each step's result before the next step overwrites it."""
    rng = RNG(0)
    w = init_params(spec, 3)
    mask = make_mask(w.layout, [name for name, _, _ in w.layout])
    dp = DpConfig(0.5, 0.8, 0.1)
    for seed, n in enumerate(sizes):
        batch = SampleBatch(rng.normal(size=(n, spec.input_dim)), rng.integers(0, 3, size=n))
        yield private_step(spec, w, batch, mask, dp, seed, {} if work is None else work)


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_one_workspace_gives_the_bytes_of_a_fresh_one_per_step(name, lanes, monkeypatch):
    monkeypatch.setattr(lane, "_LANES", lanes)
    sizes = (8, 8, 3, 11, 1, 11, 5)
    fresh = [grad.tobytes() for grad in _steps(SPECS[name], sizes)]
    work = {}
    assert [grad.tobytes() for grad in _steps(SPECS[name], sizes, work)] == fresh
    assert set(ROW_KEYS + WIDTH_KEYS) == set(work)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_a_fixed_batch_size_keeps_every_workspace_entry(name):
    work = {}
    steps = _steps(SPECS[name], (8,) * 4, work)
    next(steps)
    first = dict(work)
    assert set(first) == set(ROW_KEYS + WIDTH_KEYS)  # the walk's keys included
    for _ in steps:
        assert work.keys() == first.keys()
        assert all(work[key] is buf for key, buf in first.items())


def test_a_poisson_sequence_regrows_only_past_its_largest_batch():
    plan = SamplerPlan("poisson", 8, 60, seed=2)  # sizes 6 6 8 9 6 12 13 6
    sizes = [batch.size for batch in epoch_batches(plan) if batch.size]
    work, flats = {}, []
    for _ in _steps(NARROW, sizes, work):
        flats.append({key: work[key].base for key in work})  # kept alive: ids stay unique
    grown = [i for i in range(1, len(sizes)) if sizes[i] > max(sizes[:i])]
    assert grown and len(grown) < len(sizes) - 1
    assert any(sizes[i] < max(sizes[:i]) for i in range(1, len(sizes)))
    for i in range(1, len(sizes)):
        for key in ROW_KEYS:
            assert (flats[i][key] is not flats[i - 1][key]) == (i in grown), (i, key)
        for key in WIDTH_KEYS:
            assert flats[i][key] is flats[0][key]


def test_work_buffer_reshapes_within_its_allocation():
    work = {}
    first = work_buffer(work, "k", (3, 4))
    assert work["k"] is first and first.dtype == np.float64 and first.flags.c_contiguous
    assert work_buffer(work, "k", (3, 4)) is first
    flat = first.base
    for shape in ((4, 2), (12,), (2, 6), (0, 5)):  # fewer or as many values
        view = work_buffer(work, "k", shape)
        assert view.shape == shape and work["k"] is view and view is not first
        assert view.base is flat and view.flags.c_contiguous
        assert view.size == 0 or view.ctypes.data == flat.ctypes.data  # its front
    grown = work_buffer(work, "k", (5, 3))
    assert grown.base is not flat and grown.base.size == 15
    assert not np.shares_memory(work_buffer(work, "other", (5, 3)), grown)
