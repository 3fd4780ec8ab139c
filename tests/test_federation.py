"""Orchestrator: partitioning, local training, rounds, accounting, records."""

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dpfedsim import (
    AggregationOp,
    ConfigError,
    DpConfig,
    ExperimentConfig,
    ModelSpec,
    SampleBatch,
    SamplerPlan,
    PrivacyParams,
    Seeds,
    ShapeError,
    aggregate,
    clip_per_sample,
    compose_rounds,
    evaluate,
    init_params,
    make_mask,
    noisy_mean,
    parse_config,
    partition_data,
    per_sample_gradients,
    run_experiment,
    run_local,
    sigma_for_target,
)
from dpfedsim import dpsgd, federation, models
from dpfedsim.comm import render_rounds_table
from dpfedsim.config import load_dataset
from dpfedsim.data import SyntheticDatasetSpec, make_dataset, split_train_test
from dpfedsim.rng import STREAM_NOISE, derive_seed

DATA_DIR = Path(__file__).parent / "data"
RNG = np.random.default_rng

MLP = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=4)


def blob_data(samples=120, seed=0, classes=2, input_dim=2):
    return make_dataset(
        SyntheticDatasetSpec("gaussian-blobs", classes, samples, input_dim, seed=seed)
    )


def base_config(**kw):
    defaults = dict(
        model=MLP,
        clients=2,
        rounds=3,
        local_epochs=2,
        batch_size=8,
        dp=DpConfig(clip_norm=1.0, noise_multiplier=0.5, learning_rate=0.1),
        seeds=Seeds(0, 1, 2),
        seconds_per_coord=0.0,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------- partition


def test_single_client_gets_everything():
    data = blob_data(50)
    (shard,) = partition_data(data, 1, "iid", seed=0)
    assert shard.n_k == 50


def test_iid_sizes_even():
    data = blob_data(100)
    shards = partition_data(data, 4, "iid", seed=1)
    assert [s.n_k for s in shards] == [25, 25, 25, 25]
    all_rows = np.vstack([s.data.inputs for s in shards])
    assert all_rows.shape[0] == 100
    assert np.array_equal(np.sort(all_rows, axis=0), np.sort(data.inputs, axis=0))


def test_iid_sizes_differ_at_most_one():
    shards = partition_data(blob_data(103), 4, "iid", seed=2)
    sizes = [s.n_k for s in shards]
    assert sum(sizes) == 103
    assert max(sizes) - min(sizes) <= 1


def test_dirichlet_conserves_class_histograms():
    data = blob_data(200, seed=3)
    shards = partition_data(data, 2, "dirichlet", seed=0, alpha=0.5)
    global_hist = np.bincount(data.targets.astype(int), minlength=2)
    shard_hist = sum(
        np.bincount(s.data.targets.astype(int), minlength=2) for s in shards
    )
    assert np.array_equal(shard_hist, global_hist)
    assert all(s.n_k >= 1 for s in shards)


def test_dirichlet_skews_classes():
    data = blob_data(400, seed=4)
    shards = partition_data(data, 4, "dirichlet", seed=7, alpha=0.1)
    fractions = [
        np.mean(s.data.targets.astype(int) == 0) for s in shards if s.n_k > 0
    ]
    assert max(fractions) - min(fractions) > 0.3  # alpha=0.1 is strongly non-iid


def test_a_shard_counts_its_own_rows():
    # n_k is the shard's row count, so no shard can disagree with its rows
    # and mis-weight aggregation or the sampling ratio
    data = make_dataset(SyntheticDatasetSpec("gaussian-blobs", 2, 10, 2, seed=0))
    shard = federation.ClientShard(0, data, rng_seed=5)
    assert shard.n_k == data.size == 10
    with pytest.raises(TypeError):
        federation.ClientShard(0, data, 5, 5)
    shards = partition_data(data, 3, "iid", seed=1)
    assert [s.n_k for s in shards] == [s.data.size for s in shards] == [4, 3, 3]


def test_partition_impossible():
    with pytest.raises(ShapeError):
        partition_data(blob_data(3), 4, "iid", seed=0)


def test_client_seeds_distinct():
    shards = partition_data(blob_data(40), 4, "iid", seed=0)
    seeds = {s.rng_seed for s in shards}
    assert len(seeds) == 4


# ---------------------------------------------------------------- run_local


def test_run_local_zero_epochs_rejected():
    data = blob_data(20)
    (shard,) = partition_data(data, 1, "iid", seed=0)
    w = init_params(MLP, 0)
    mask = make_mask(w.layout, ["head.weight", "head.bias"])
    plan = SamplerPlan("shuffle", 8, shard.n_k, shard.rng_seed)
    cfg = DpConfig(1.0, 0.0, 0.1)
    with pytest.raises(ShapeError):
        run_local(MLP, shard, w, mask, cfg, plan, local_epochs=0, round_index=0)


def test_run_local_single_step_matches_hand_rolled_oracle():
    # sigma=0, full batch, one epoch, sgd: update is -lr * clipped mean gradient
    data = blob_data(16, seed=9)
    (shard,) = partition_data(data, 1, "iid", seed=0)
    w = init_params(MLP, 3)
    mask = make_mask(w.layout, [name for name, _, _ in w.layout])
    cfg = DpConfig(clip_norm=1.0, noise_multiplier=0.0, learning_rate=0.2)
    plan = SamplerPlan("shuffle", shard.n_k, shard.n_k, shard.rng_seed)
    update = run_local(MLP, shard, w, mask, cfg, plan, local_epochs=1, round_index=0)
    assert update.tau == 1
    grads = per_sample_gradients(MLP, w, shard.data)
    expected = -0.2 * clip_per_sample(grads, 1.0).mean(axis=0)
    assert update.deltas == pytest.approx(expected, abs=1e-12)


def test_run_local_deterministic_and_pure():
    data = blob_data(30, seed=1)
    (shard,) = partition_data(data, 1, "iid", seed=0)
    w = init_params(MLP, 1)
    before = w.values.copy()
    mask = make_mask(w.layout, ["head.weight"])
    cfg = DpConfig(1.0, 1.2, 0.1)
    plan = SamplerPlan("shuffle", 10, shard.n_k, shard.rng_seed)
    a = run_local(MLP, shard, w, mask, cfg, plan, 3, round_index=5)
    b = run_local(MLP, shard, w, mask, cfg, plan, 3, round_index=5)
    assert np.array_equal(a.deltas, b.deltas)
    assert np.array_equal(w.values, before)  # broadcast params untouched
    c = run_local(MLP, shard, w, mask, cfg, plan, 3, round_index=6)
    assert not np.array_equal(a.deltas, c.deltas)  # new round, new streams


def test_run_local_tau_counts_batches():
    data = blob_data(25, seed=2)
    (shard,) = partition_data(data, 1, "iid", seed=0)
    w = init_params(MLP, 2)
    mask = make_mask(w.layout, ["head.bias"])
    plan = SamplerPlan("shuffle", 10, shard.n_k, shard.rng_seed)
    update = run_local(MLP, shard, w, mask, DpConfig(1.0, 0.0, 0.1), plan, 2, 0)
    assert update.tau == 2 * 3  # ceil(25/10) = 3 batches per epoch, 2 epochs


def test_run_local_updates_only_masked_indices():
    data = blob_data(30, seed=5)
    (shard,) = partition_data(data, 1, "iid", seed=0)
    w = init_params(MLP, 4)
    mask = make_mask(w.layout, ["head.weight", "head.bias"])
    plan = SamplerPlan("shuffle", 8, shard.n_k, shard.rng_seed)
    update = run_local(MLP, shard, w, mask, DpConfig(1.0, 0.8, 0.1), plan, 2, 0)
    assert np.array_equal(update.indices, mask.indices)
    rebuilt = aggregate(w, [update], AggregationOp("fedavg"))
    frozen = ~mask.coordinate_mask
    assert np.array_equal(rebuilt.values[frozen], w.values[frozen])


def _record_clip_calls(monkeypatch):
    calls = []

    def recording(grads, clip_norm, work=None):
        calls.append((grads, clip_per_sample(grads, clip_norm, work=work)))
        return calls[-1][1]

    monkeypatch.setattr(dpsgd, "clip_per_sample", recording)
    return calls


def test_run_local_reuses_its_gradient_and_clip_buffers(monkeypatch):
    calls = _record_clip_calls(monkeypatch)
    data = blob_data(30, seed=7)
    (shard,) = partition_data(data, 1, "iid", seed=0)
    w = init_params(MLP, 5)
    mask = make_mask(w.layout, [name for name, _, _ in w.layout])
    plan = SamplerPlan("shuffle", 8, shard.n_k, shard.rng_seed)
    update = run_local(MLP, shard, w, mask, DpConfig(1.0, 0.5, 0.1), plan, 2, 0)
    assert update.tau == len(calls) == 8
    first_grads, first_out = calls[0]
    for grads, out in calls:
        assert np.shares_memory(grads, first_grads)
        assert np.shares_memory(out, first_out)
        assert not np.shares_memory(grads, out)


def test_run_local_grows_its_buffers_only_for_a_larger_batch(monkeypatch):
    calls = _record_clip_calls(monkeypatch)
    data = blob_data(60, seed=8)
    (shard,) = partition_data(data, 1, "iid", seed=0)
    w = init_params(MLP, 6)
    mask = make_mask(w.layout, [name for name, _, _ in w.layout])
    plan = SamplerPlan("poisson", 8, shard.n_k, shard.rng_seed)
    run_local(MLP, shard, w, mask, DpConfig(1.0, 0.5, 0.1), plan, 3, 0)
    sizes = [grads.shape[0] for grads, _ in calls]
    grown = [i for i in range(1, len(calls)) if sizes[i] > max(sizes[:i])]
    assert grown and max(sizes) > 8  # poisson draws batches above batch_size
    for i in range(1, len(calls)):
        same = np.shares_memory(calls[i][0], calls[i - 1][0])
        assert same == (i not in grown)
        assert np.shares_memory(calls[i][1], calls[i - 1][1]) == same


def test_run_local_builds_no_parameter_vector_per_step(monkeypatch):
    built = []
    check = models.ParameterVector.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(models.ParameterVector, "__post_init__", counting)
    data = blob_data(30, seed=7)
    (shard,) = partition_data(data, 1, "iid", seed=0)
    w = init_params(MLP, 5)
    mask = make_mask(w.layout, [name for name, _, _ in w.layout])
    plan = SamplerPlan("shuffle", 8, shard.n_k, shard.rng_seed)
    for epochs, optimizer in ((1, "sgd"), (3, "sgd"), (3, "adam")):
        built.clear()
        dp = DpConfig(1.0, 0.5, 0.1, optimizer=optimizer)
        update = run_local(MLP, shard, w, mask, dp, plan, epochs, 0)
        assert update.tau == 4 * epochs
        assert len(built) == 1  # the working copy of the broadcast parameters


def test_run_local_reuses_its_noise_and_mean_buffers(monkeypatch):
    # a narrow step is handed its row of the pass's normals
    draws, means = [], []

    def averaging(*args, **kwargs):
        draws.append(kwargs["normals"])
        means.append(noisy_mean(*args, **kwargs))
        return means[-1]

    monkeypatch.setattr(dpsgd, "noisy_mean", averaging)
    data = blob_data(60, seed=8)
    (shard,) = partition_data(data, 1, "iid", seed=0)
    w = init_params(MLP, 6)
    mask = make_mask(w.layout, ["hidden.bias", "head.weight"])
    plan = SamplerPlan("poisson", 8, shard.n_k, shard.rng_seed)
    update = run_local(MLP, shard, w, mask, DpConfig(1.0, 0.5, 0.1), plan, 3, 0)
    assert update.tau == len(draws) == len(means) > 1
    for draw, mean in zip(draws, means):
        assert draw.shape == mean.shape == (mask.trainable_count,)
        # each step's normals are a row of the one buffer the passes reuse
        assert np.shares_memory(draw.base, draws[0].base) and np.shares_memory(mean, means[0])
        assert not np.shares_memory(draw, mean)
    # the next client starts a workspace of its own
    run_local(MLP, shard, w, mask, DpConfig(1.0, 0.5, 0.1), plan, 1, 1)
    assert not np.shares_memory(draws[-1].base, draws[0].base)


# ---------------------------------------------------------------- evaluate


def test_evaluate_perfect_classifier():
    data = blob_data(60, seed=6)
    from dpfedsim import pretrain

    params = pretrain(MLP, data, epochs=300, lr=0.5, seed=0)
    result = evaluate(MLP, params, data)
    assert result.accuracy == 1.0


def test_evaluate_zero_params_ties_break_to_class_zero():
    spec = ModelSpec("logistic", input_dim=2, output_dim=2)
    params = init_params(spec, 0)
    params.values[:] = 0.0
    inputs = RNG(0).normal(size=(40, 2))
    targets = np.array([0, 1] * 20)
    result = evaluate(spec, params, SampleBatch(inputs, targets))
    assert result.accuracy == 0.5  # everything predicted class 0; half correct


def test_evaluate_matches_counting_oracle():
    data = blob_data(80, seed=7)
    params = init_params(MLP, 0)
    from dpfedsim import forward

    _, scores = forward(MLP, params, data)
    correct = sum(
        int(np.argmax(scores[i]) == int(data.targets[i])) for i in range(data.size)
    )
    assert evaluate(MLP, params, data).accuracy == correct / data.size


def test_evaluate_rejects_empty_and_regression():
    params = init_params(MLP, 0)
    with pytest.raises(ShapeError):
        evaluate(MLP, params, SampleBatch(np.zeros((1, 2)), np.array([0])).take(np.array([], dtype=int)))
    linear = ModelSpec("linear", input_dim=2, output_dim=1)
    with pytest.raises(ShapeError):
        evaluate(linear, init_params(linear, 0), SampleBatch(np.zeros((1, 2)), np.array([0.0])))


# ---------------------------------------------------------------- experiment


def test_updates_of_a_run_share_the_read_only_mask_indices(monkeypatch):
    rounds, original = [], federation.aggregate

    def recording(w_t, updates, op):
        rounds.append(updates)
        return original(w_t, updates, op)

    monkeypatch.setattr(federation, "aggregate", recording)
    train, test = split_train_test(blob_data(80, seed=9), 0.25, 0)
    run_experiment(base_config(clients=3, mask_layers=("head.weight", "head.bias")), train, test)
    shared = rounds[0][0].indices
    assert len(rounds) == 3 and all(len(updates) == 3 for updates in rounds)
    assert all(u.indices is shared for updates in rounds for u in updates)
    assert not shared.flags.writeable


def test_zero_rounds_returns_initial_params():
    data = blob_data(60, seed=8)
    train, test = split_train_test(data, 0.25, 0)
    cfg = base_config(rounds=0)
    result = run_experiment(cfg, train, test)
    assert result.records == []
    assert np.array_equal(result.final_params.values, init_params(MLP, 0).values)


def test_centralized_equivalence_with_identical_clients():
    # K clients holding the same data, E=1, full batch, sigma=0, full mask,
    # fedavg: the global step equals one centralized gradient step
    data = blob_data(24, seed=10)
    w0 = init_params(MLP, 7)
    full_mask = tuple(name for name, _, _ in w0.layout)
    for k in (1, 2, 3):
        train = SampleBatch(np.tile(data.inputs, (k, 1)), np.tile(data.targets, k))
        cfg = base_config(
            clients=k,
            rounds=1,
            local_epochs=1,
            batch_size=data.size,
            dp=DpConfig(clip_norm=1e9, noise_multiplier=0.0, learning_rate=0.3),
            mask_layers=full_mask,
            seeds=Seeds(7, 1, 2),
            partition="iid",
        )
        result = run_experiment(cfg, train, data)
        central = w0.values - 0.3 * per_sample_gradients(MLP, w0, data).mean(axis=0)
        assert np.max(np.abs(result.final_params.values - central)) <= 1e-12


def test_single_client_run_equals_centralized_replay():
    # K=1, sigma=0, all-true mask: the federated loop is centralized training;
    # replay the same batch schedule with an independent update loop
    data = blob_data(40, seed=20)
    train, test = split_train_test(data, 0.25, 0)
    full_mask = tuple(name for name, _, _ in init_params(MLP, 0).layout)
    cfg = base_config(
        clients=1,
        rounds=2,
        local_epochs=2,
        batch_size=8,
        dp=DpConfig(clip_norm=0.9, noise_multiplier=0.0, learning_rate=0.15),
        mask_layers=full_mask,
    )
    result = run_experiment(cfg, train, test)

    from dpfedsim import ParameterVector
    from dpfedsim.dpsgd import epoch_batches, plan_for_epoch
    from dpfedsim.rng import STREAM_PARTITION, derive_seed

    (shard,) = partition_data(
        train, 1, "iid", derive_seed(cfg.seeds.data_seed, STREAM_PARTITION),
        client_seed_root=cfg.seeds.noise_seed,
    )
    layout = init_params(MLP, 0).layout
    w = init_params(MLP, cfg.seeds.global_seed).values.copy()
    plan = SamplerPlan("shuffle", 8, shard.n_k, shard.rng_seed)
    for t in range(2):
        for epoch in (1, 2):
            for idx in epoch_batches(plan_for_epoch(plan, t, epoch)):
                batch = shard.data.take(idx)
                rows = per_sample_gradients(MLP, ParameterVector(w, layout), batch)
                norms = np.linalg.norm(rows, axis=1)
                rows = rows * np.minimum(1.0, 0.9 / np.maximum(norms, 1e-300))[:, None]
                w = w - 0.15 * rows.mean(axis=0)
    assert np.max(np.abs(result.final_params.values - w)) <= 1e-12


def test_head_mask_preserves_backbone_bitwise():
    data = blob_data(80, seed=11)
    train, test = split_train_test(data, 0.25, 0)
    cfg = base_config(mask_layers=("head.weight", "head.bias"), rounds=4)
    w0 = init_params(MLP, 0)
    result = run_experiment(cfg, train, test)
    mask = make_mask(w0.layout, ["head.weight", "head.bias"])
    frozen = ~mask.coordinate_mask
    assert np.array_equal(result.final_params.values[frozen], w0.values[frozen])


def test_epsilon_monotone_and_closed_form():
    data = blob_data(96, seed=12)
    train, test = split_train_test(data, 0.25, 0)
    cfg = base_config(rounds=5, local_epochs=2, batch_size=6)
    result = run_experiment(cfg, train, test)
    eps = [r.epsilon_to_date for r in result.records]
    assert all(b >= a for a, b in zip(eps, eps[1:]))
    from dpfedsim import PrivacyParams, compose_rounds

    n_k = 36  # 72 train rows over 2 clients
    per_round = PrivacyParams(6 / n_k, 0.5, 2, cfg.delta)
    for t, r in enumerate(result.records, start=1):
        assert r.epsilon_to_date == pytest.approx(compose_rounds(per_round, t).epsilon, rel=1e-12)


@pytest.mark.parametrize("target", [None, 2.0])
@pytest.mark.parametrize("fraction", [1.0, 0.6])
@pytest.mark.parametrize("sampler", ["shuffle", "poisson"])
@pytest.mark.parametrize("partition", ["iid", "dirichlet"])
def test_each_round_charges_every_shard_its_own_ratio_for_the_rounds_it_took(
    monkeypatch, partition, sampler, fraction, target
):
    # recomputed from who trained on how many rows in which round, as
    # perfbench/child.py's shim notes it; dirichlet shards differ in size,
    # and at 0.6 two of five clients sit out each round
    train, test = split_train_test(blob_data(160, seed=5), 0.25, 0)
    cfg = base_config(
        clients=5,
        rounds=4,
        partition=partition,
        sampler_mode=sampler,
        participation_fraction=fraction,
        target_epsilon=target,
    )
    calls = []

    def logged(*args, **kwargs):
        update = run_local(*args, **kwargs)
        calls.append((update.client_id, update.n_k, update.round_index))
        return update

    monkeypatch.setattr(federation, "run_local", logged)
    result = run_experiment(cfg, train, test)
    assert result.error is None and len(result.records) == cfg.rounds
    sigma = result.noise_multiplier
    if target is None:
        assert sigma == cfg.dp.noise_multiplier
    else:
        _, shards = federation.client_shards(cfg, train)
        q = max(min(cfg.batch_size, s.n_k) / s.n_k for s in shards)
        assert sigma == sigma_for_target(q, cfg.rounds * cfg.local_epochs, cfg.delta, target)
    taken, n_k = {}, {}
    for record in result.records:
        for k, n, t in calls:
            if t == record.round_index:
                taken[k] = taken.get(k, 0) + 1
                n_k[k] = n
        expected = max(
            compose_rounds(
                PrivacyParams(min(cfg.batch_size, n_k[k]) / n_k[k], sigma, cfg.local_epochs, cfg.delta),
                r,
            ).epsilon
            for k, r in taken.items()
        )
        assert record.epsilon_to_date == expected
    assert (len(set(n_k.values())) > 1) == (partition == "dirichlet")
    assert (len(calls) < cfg.clients * cfg.rounds) == (fraction < 1.0)


def test_a_target_is_the_budget_spent_on_the_library_path():
    # the run solves sigma from its own shards; the 0.1 given is overridden
    train, test = split_train_test(blob_data(400, seed=1), 0.25, 1)
    cfg = base_config(local_epochs=1, dp=DpConfig(1.0, 0.1, 0.1), target_epsilon=1.0, seeds=Seeds())
    result = run_experiment(cfg, train, test)
    assert result.error is None
    assert math.isclose(result.records[-1].epsilon_to_date, 1.0, rel_tol=1e-12)
    assert result.noise_multiplier != 0.1
    assert run_experiment(base_config(), train, test).noise_multiplier == 0.5


def test_sigma_zero_reports_infinite_epsilon():
    data = blob_data(40, seed=13)
    train, test = split_train_test(data, 0.25, 0)
    cfg = base_config(dp=DpConfig(1.0, 0.0, 0.1), rounds=2)
    result = run_experiment(cfg, train, test)
    assert all(math.isinf(r.epsilon_to_date) for r in result.records)


def test_records_and_bytes_shape():
    data = blob_data(80, seed=14)
    train, test = split_train_test(data, 0.25, 0)
    cfg = base_config(mask_layers=("head.weight", "head.bias"), rounds=3)
    result = run_experiment(cfg, train, test)
    assert len(result.records) == 3
    mask_dt = 4 * 2 + 2
    for t, r in enumerate(result.records):
        assert r.round_index == t
        assert r.bytes_up_per_client == 4.0 * mask_dt
        assert r.bytes_down_per_client == 4.0 * 22  # full model broadcast
        assert r.participants == 2
        assert 0.0 <= r.global_accuracy <= 1.0


def test_partial_participation_selects_ceil():
    data = blob_data(90, seed=15)
    train, test = split_train_test(data, 0.25, 0)
    cfg = base_config(clients=3, participation_fraction=0.5, rounds=4)
    result = run_experiment(cfg, train, test)
    assert all(r.participants == 2 for r in result.records)  # ceil(1.5)


@pytest.mark.parametrize(
    "fraction, clients, count", [(0.07, 100, 7), (0.14, 50, 7), (0.5, 3, 2), (0.6, 3, 2)]
)
def test_participant_count_is_the_exact_decimal_ceil(fraction, clients, count):
    # in floats 0.07 * 100 is 7.000000000000001, whose ceil would pick 8 clients
    cfg = base_config(clients=clients, participation_fraction=fraction)
    assert len(federation._select_participants(cfg, 0)) == count


def test_full_determinism_of_records():
    data = blob_data(70, seed=16)
    train, test = split_train_test(data, 0.25, 0)
    for sigma in (1.0, 0.0):
        cfg = base_config(rounds=4, dp=DpConfig(1.0, sigma, 0.1))
        a = run_experiment(cfg, train, test)
        b = run_experiment(cfg, train, test)
        assert a.records == b.records
        assert np.array_equal(a.final_params.values, b.final_params.values)


# sha256 of the round table followed by the final parameters as <f8 bytes, for
# the reference run with every layer trained; the golden round table pins the
# head-only path, these pin the hidden-layer gradients and their clipping
FULL_TUNING_DIGESTS = {
    "tanh": "2526b90052db5f7434f1356e2a16c74c3949f7fedc7aa72424797d303d4fff67",
    "relu": "4b09b521e0b0fe33b745374a25ef99f099a0db2afad787f71b13227114023e65",
}


@pytest.mark.parametrize("activation", list(FULL_TUNING_DIGESTS))
def test_full_tuning_reference_run_is_bit_reproducible(activation):
    overrides = ["mask_layers=all", f"model.activation={activation}"]
    resolved = parse_config(DATA_DIR / "reference.cfg", overrides)
    train, test = load_dataset(resolved)
    result = run_experiment(resolved.experiment, train, test)
    assert result.error is None
    digest = hashlib.sha256(render_rounds_table(result.records).encode())
    digest.update(result.final_params.values.astype("<f8").tobytes())
    assert digest.hexdigest() == FULL_TUNING_DIGESTS[activation]


# the same digest for the reference run with every layer trained under poisson
# sampling, whose batches outgrow batch_size and so the private step's buffers
POISSON_FULL_TUNING_DIGEST = "328ef2eb3c23bf966a3ee6adc1e08d6c33796959a82d6c4cf719fdde9f576372"


def test_poisson_full_tuning_reference_run_is_bit_reproducible():
    resolved = parse_config(DATA_DIR / "reference.cfg", ["sampler=poisson", "mask_layers=all"])
    train, test = load_dataset(resolved)
    result = run_experiment(resolved.experiment, train, test)
    assert result.error is None
    digest = hashlib.sha256(render_rounds_table(result.records).encode())
    digest.update(result.final_params.values.astype("<f8").tobytes())
    assert digest.hexdigest() == POISSON_FULL_TUNING_DIGEST


def test_divergence_aborts_with_partial_records():
    # unclipped relu training at a huge step size blows up multiplicatively
    spec = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=4, activation="relu")
    train = blob_data(40, seed=0)
    cfg = base_config(
        model=spec,
        rounds=6,
        dp=DpConfig(clip_norm=1e300, noise_multiplier=0.0, learning_rate=1e8),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_experiment(cfg, train, train)
    assert result.error is not None
    assert result.error.startswith("round ")
    assert 0 < len(result.records) < 6


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        base_config(clients=0).validate()
    with pytest.raises(ConfigError):
        base_config(local_epochs=0).validate()
    with pytest.raises(ConfigError):
        base_config(participation_fraction=0.0).validate()
    with pytest.raises(ConfigError):
        base_config(mask_layers=("nope",)).validate()
    with pytest.raises(ConfigError):
        base_config(pretrain_epochs=5, public_fraction=0.0).validate()
    with pytest.raises(ConfigError):
        base_config(model=ModelSpec("linear", 2, 1)).validate()


def test_replace_checks_the_config_it_builds():
    # the rules used to run only when a caller remembered validate()
    cfg = base_config()
    with pytest.raises(ConfigError, match="clients"):
        replace(cfg, clients=0)
    with pytest.raises(ConfigError, match="rounds >= 1"):
        replace(cfg, target_epsilon=1.0, rounds=0)
    assert replace(cfg, rounds=0).rounds == 0  # zero rounds without a target run


def test_poisson_sampler_end_to_end():
    data = blob_data(80, seed=18)
    train, test = split_train_test(data, 0.25, 0)
    cfg = base_config(sampler_mode="poisson", rounds=3)
    a = run_experiment(cfg, train, test)
    b = run_experiment(cfg, train, test)
    assert a.error is None
    assert len(a.records) == 3
    assert a.records == b.records


def test_masked_broadcast_flag_shrinks_downstream():
    data = blob_data(80, seed=19)
    train, test = split_train_test(data, 0.25, 0)
    mask_layers = ("head.weight", "head.bias")
    dense = run_experiment(base_config(mask_layers=mask_layers, rounds=1), train, test)
    masked = run_experiment(
        base_config(mask_layers=mask_layers, rounds=1, masked_broadcast=True), train, test
    )
    assert dense.records[0].bytes_down_per_client == 4.0 * 22
    assert masked.records[0].bytes_down_per_client == dense.records[0].bytes_up_per_client


def test_save_and_load_params_round_trip(tmp_path):
    from dpfedsim import load_params, save_params

    params = init_params(MLP, 5)
    save_params(params, tmp_path / "model.npz")
    back = load_params(tmp_path / "model.npz")
    assert back.layout == params.layout
    assert np.array_equal(back.values, params.values)


def test_pretrained_start_is_used():
    data = blob_data(120, seed=17)
    train, test = split_train_test(data, 0.25, 0)
    cfg = base_config(
        rounds=1,
        pretrain_epochs=100,
        pretrain_lr=0.3,
        public_fraction=0.4,
        mask_layers=("head.weight", "head.bias"),
    )
    result = run_experiment(cfg, train, test)
    from dpfedsim.federation import initial_params, split_public_private

    public, _ = split_public_private(train, 0.4, cfg.seeds.data_seed)
    w0 = initial_params(cfg, public)
    mask = make_mask(w0.layout, ["head.weight", "head.bias"])
    frozen = ~mask.coordinate_mask
    assert np.array_equal(result.final_params.values[frozen], w0.values[frozen])


def test_run_local_skips_an_empty_poisson_batch():
    # batch size 1 on 12 rows: a batch is empty with probability (11/12)^12,
    # about a third; each step's noise is keyed by its own batch number
    data = blob_data(12, seed=4)
    (shard,) = partition_data(data, 1, "iid", seed=0)
    w = init_params(MLP, 4)
    mask = make_mask(w.layout, ["head.weight", "head.bias"])
    cfg = DpConfig(1.0, 0.7, 0.1)
    plan = SamplerPlan("poisson", 1, shard.n_k, shard.rng_seed)
    update = run_local(MLP, shard, w, mask, cfg, plan, 2, round_index=3)
    v, steps, empty = w, 0, 0
    for epoch in (1, 2):
        for batch_no, idx in enumerate(dpsgd.epoch_batches(dpsgd.plan_for_epoch(plan, 3, epoch))):
            if idx.size == 0:
                empty += 1
                continue
            seed = derive_seed(shard.rng_seed, STREAM_NOISE, 3, epoch, batch_no)
            grads = per_sample_gradients(MLP, v, shard.data.take(idx), mask.selected_layers)
            steps += 1
            v = dpsgd.dp_step(v, mask, noisy_mean(clip_per_sample(grads, 1.0), 0.7, 1.0, seed), cfg, steps)
    assert 0 < empty < 24
    assert update.tau == steps == 24 - empty
    assert update.deltas.tobytes() == (v.values[mask.indices] - w.values[mask.indices]).tobytes()
