"""A local run's noise passes: each row of one Box-Muller transform over
several streams is the bytes of that stream's own draw, and a run that hands
each narrow step its row trains to the bytes of steps that draw their own."""

import numpy as np
import pytest

from dpfedsim import (
    DpConfig,
    ModelSpec,
    SamplerPlan,
    init_params,
    make_mask,
    partition_data,
    private_step,
    run_local,
)
from dpfedsim import federation, lane
from dpfedsim.data import SyntheticDatasetSpec, make_dataset
from dpfedsim.dpsgd import AdamState, dp_step, epoch_batches, plan_for_epoch
from dpfedsim.federation import ClientShard
from dpfedsim.masking import extract_masked_update
from dpfedsim.rng import STREAM_NOISE, box_muller_rows, derive_seed, generator, standard_normal

# trainable widths: WIDE all 4 423, above the lane's cut-off; NARROW all 93, head 30, none 0
WIDE = ModelSpec("mlp", input_dim=64, output_dim=3, hidden_dim=65)
NARROW = ModelSpec("mlp", input_dim=6, output_dim=3, hidden_dim=9, activation="relu")
MASKS = {
    "all": ["hidden.weight", "hidden.bias", "head.weight", "head.bias"],
    "head": ["head.weight", "head.bias"],
    "none": [],
}


def test_each_row_of_a_pass_is_its_streams_own_draw():
    work = {}  # one workspace through passes that grow and shrink again
    cases = [(n, streams) for streams in (1, 3, 2, 5, 1) for n in (1, 2, 1027, 1028, 2)]
    for case, (n, streams) in enumerate(cases):
        keys = [derive_seed(case, n, i) for i in range(streams)]
        expected = [standard_normal(key, n).tobytes() for key in keys]
        for workspace in (None, {}, work):
            rows = box_muller_rows([generator(key) for key in keys], n, workspace)
            assert rows.shape == (streams, n)
            assert [row.tobytes() for row in rows] == expected


def _shard(spec, samples, seed=0):
    data = make_dataset(
        SyntheticDatasetSpec("gaussian-blobs", spec.output_dim, samples, spec.input_dim, seed=seed)
    )
    (shard,) = partition_data(data, 1, "iid", seed=seed)
    return shard


def _reference_local(spec, client, w_t, mask, dp, plan, local_epochs, round_index):
    """run_local as a plain loop of steps that each draw their own noise."""
    w = w_t.copy()
    state = AdamState.zeros(mask.trainable_count) if dp.optimizer == "adam" else None
    step, work, keys = 0, {}, []
    for epoch in range(1, local_epochs + 1):
        for batch_no, idx in enumerate(epoch_batches(plan_for_epoch(plan, round_index, epoch))):
            if idx.size == 0:
                continue
            keys.append((client.rng_seed, STREAM_NOISE, round_index, epoch, batch_no))
            batch, noise_seed = client.data.take(idx), derive_seed(*keys[-1])
            grad = private_step(spec, w, batch, mask, dp, noise_seed, work)
            step += 1
            dp_step(w, mask, grad, dp, step, state, in_place=True)
    update = extract_masked_update(
        w, w_t, mask, client.client_id, round_index, tau=step, n_k=client.n_k
    )
    return update, keys


def _assert_run_local_is_the_reference(spec, shard, mask_name, plan, dp, epochs, monkeypatch):
    w = init_params(spec, 3)
    mask = make_mask(w.layout, MASKS[mask_name])
    derived = []

    def recording(*parts):
        derived.append(parts)
        return derive_seed(*parts)

    for round_index in range(2):
        expected, keys = _reference_local(spec, shard, w, mask, dp, plan, epochs, round_index)
        derived.clear()
        with monkeypatch.context() as m:
            m.setattr(federation, "derive_seed", recording)
            got = run_local(spec, shard, w, mask, dp, plan, epochs, round_index)
        assert derived == keys  # the noise keys of today's steps, in order
        assert got.tau == expected.tau == len(keys)
        assert got.deltas.tobytes() == expected.deltas.tobytes()


@pytest.mark.parametrize("sigma", [0.0, 0.8])
@pytest.mark.parametrize("epochs", [1, 2, 3])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("sampler", ["shuffle", "poisson"])
@pytest.mark.parametrize("mask_name", sorted(MASKS))
def test_a_narrow_run_keeps_the_bytes_of_steps_that_draw_their_own(
    mask_name, sampler, optimizer, epochs, sigma, monkeypatch
):
    shard = _shard(NARROW, samples=40)
    plan = SamplerPlan(sampler, 8, shard.n_k, shard.rng_seed)
    dp = DpConfig(0.5, sigma, 0.1, optimizer=optimizer)
    # five steps an epoch: one pass each, then passes of 2 (all), 6 (head) or 5 (none) steps
    for pass_values in (federation._PASS_VALUES, 2 * 93):
        monkeypatch.setattr(federation, "_PASS_VALUES", pass_values)
        _assert_run_local_is_the_reference(NARROW, shard, mask_name, plan, dp, epochs, monkeypatch)


@pytest.mark.parametrize("sigma", [0.0, 0.8])
@pytest.mark.parametrize("sampler", ["shuffle", "poisson"])
def test_a_wide_run_with_one_lane_takes_the_passes_and_keeps_the_bytes(
    sampler, sigma, monkeypatch
):
    monkeypatch.setattr(lane, "_LANES", 1)
    assert not lane.uses_lane(4423)
    # 80 rows in batches of 8: 10 steps an epoch, over the 7 of one pass at 4 423 wide
    shard = _shard(WIDE, samples=80)
    plan = SamplerPlan(sampler, 8, shard.n_k, shard.rng_seed)
    assert federation._PASS_VALUES // 4423 < 10
    dp = DpConfig(0.5, sigma, 0.1, optimizer="adam")
    _assert_run_local_is_the_reference(WIDE, shard, "all", plan, dp, 2, monkeypatch)


def test_epochs_of_empty_poisson_batches_draw_nothing(monkeypatch):
    # two rows at q = 1/2: some batches, and some whole epochs, are empty;
    # the first stream root whose six epochs show both is taken
    rows = _shard(NARROW, samples=40).data.take(np.arange(2))
    for root in range(100):
        plan = SamplerPlan("poisson", 1, 2, root)
        epochs = [
            [idx.size for idx in epoch_batches(plan_for_epoch(plan, r, e))]
            for r in range(2)
            for e in range(1, 4)
        ]
        if [0, 0] in epochs and any(sizes.count(0) == 1 for sizes in epochs):
            break
    else:
        pytest.fail("no stream root gives both an empty batch and an empty epoch")
    shard = ClientShard(0, rows, root)
    passes = []

    def counting(gens, n, work=None):
        assert len(gens) > 0
        passes.append(len(gens))
        return box_muller_rows(gens, n, work)

    monkeypatch.setattr(federation, "box_muller_rows", counting)
    dp = DpConfig(0.5, 0.8, 0.1)
    _assert_run_local_is_the_reference(NARROW, shard, "all", plan, dp, 3, monkeypatch)
    assert passes and sum(passes) == sum(np.count_nonzero(sizes) for sizes in epochs)
