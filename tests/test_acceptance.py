"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from dpfedsim import (
    AggregationOp,
    DpConfig,
    ExperimentConfig,
    MaskedUpdate,
    ModelSpec,
    ParameterVector,
    PrivacyParams,
    SampleBatch,
    SamplerPlan,
    Seeds,
    aggregate,
    clip_per_sample,
    epoch_batches,
    epsilon_of,
    forward,
    init_params,
    layer_layout,
    make_mask,
    noisy_mean,
    parameter_count,
    per_sample_gradients,
    parse_config,
    run_experiment,
    run_local,
    sigma_for_target,
)
from dpfedsim.comm import MB, CommModel, default_comm, delay_seconds, render_rounds_table
from dpfedsim.comm import traffic_per_round
from dpfedsim.config import load_dataset
from dpfedsim.data import SyntheticDatasetSpec, make_dataset, split_train_test
from dpfedsim.masking import PartitionMask

DATA_DIR = Path(__file__).parent / "data"
RNG = np.random.default_rng

mp.mp.dps = 50


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {label}: FAIL")
        raise
    print(f"[criterion {number:02d}] {label}: PASS")


def random_model_instance(kind, seed, batch_range=(1, 7)):
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
    params = ParameterVector(
        rng.normal(scale=0.8, size=parameter_count(spec)), layer_layout(spec)
    )
    n = int(rng.integers(*batch_range))
    inputs = rng.normal(size=(n, spec.input_dim))
    if spec.is_classifier:
        targets = rng.integers(0, spec.output_dim, size=n)
    else:
        targets = rng.normal(size=n)
    return spec, params, SampleBatch(inputs, targets)


def test_criterion_01_clipping_bound():
    with criterion(1, "clipping bound over 1e4 per-sample gradients"):
        total = 0
        seed = 0
        clip = 0.7
        while total < 10_000:
            for kind in ("linear", "logistic", "mlp"):
                spec, params, batch = random_model_instance(kind, seed, batch_range=(8, 64))
                grads = per_sample_gradients(spec, params, batch)
                out = clip_per_sample(grads, clip)
                norms_in = np.linalg.norm(grads, axis=1)
                norms_out = np.linalg.norm(out, axis=1)
                assert np.all(norms_out <= clip * (1 + 1e-9))
                short = norms_in <= clip
                assert np.array_equal(out[short], grads[short])
                total += grads.shape[0]
                seed += 1
        assert total >= 10_000


def test_criterion_02_accountant_arithmetic():
    with criterion(2, "accountant closed form and inverse round-trip"):
        eps = epsilon_of(PrivacyParams(0.01, 1.0, 5, 1e-4))
        oracle = float(
            mp.mpf("0.01") / mp.mpf(1) * mp.sqrt(2 * 5 * mp.log(1 / mp.mpf("1e-4")))
        )
        assert abs(eps - 0.0959705) <= 1e-6
        assert abs(eps - oracle) <= 1e-15
        rng = RNG(7)
        for _ in range(1000):
            q = float(rng.uniform(0.001, 1.0))
            epochs = int(rng.integers(1, 400))
            delta = float(10.0 ** rng.uniform(-9, -2))
            target = float(rng.uniform(0.01, 10.0))
            sigma = sigma_for_target(q, epochs, delta, target)
            back = epsilon_of(PrivacyParams(q, sigma, epochs, delta))
            assert abs(back - target) / target <= 1e-12


def test_criterion_03_shuffle_exactly_once():
    with criterion(3, "without-replacement sampler emits each index exactly once"):
        rng = RNG(11)
        for _ in range(100):
            n = int(rng.integers(1, 2000))
            b = int(rng.integers(1, n + 1))
            plan = SamplerPlan("shuffle", b, n, int(rng.integers(0, 2**32)))
            flat = np.concatenate(epoch_batches(plan))
            assert np.array_equal(np.sort(flat), np.arange(n))


def test_criterion_04_gradient_oracle():
    with criterion(4, "per-sample gradients match central finite differences"):
        h = 1e-5
        for kind in ("linear", "logistic", "mlp"):
            for seed in range(100):
                spec, params, batch = random_model_instance(kind, 5000 + seed)
                analytic = per_sample_gradients(spec, params, batch)
                numeric = np.zeros_like(analytic)
                for j in range(params.dim):
                    up = params.values.copy()
                    up[j] += h
                    down = params.values.copy()
                    down[j] -= h
                    lu, _ = forward(spec, ParameterVector(up, params.layout), batch)
                    ld, _ = forward(spec, ParameterVector(down, params.layout), batch)
                    numeric[:, j] = (lu - ld) / (2 * h)
                scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
                assert np.all(np.abs(analytic - numeric) <= 1e-4 * scale)


def test_criterion_05_centralized_equivalence():
    with criterion(5, "identical clients reproduce the centralized step"):
        spec = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=5)
        data = make_dataset(SyntheticDatasetSpec("gaussian-blobs", 2, 24, 2, seed=3))
        w0 = init_params(spec, 9)
        mask = make_mask(w0.layout, [name for name, _, _ in w0.layout])
        for clip in (1e9, 0.5):  # inactive and active clipping
            for k in (1, 2, 4):
                from dpfedsim.federation import ClientShard

                dp = DpConfig(clip_norm=clip, noise_multiplier=0.0, learning_rate=0.25)
                updates = []
                for cid in range(k):
                    shard = ClientShard(cid, data, rng_seed=1000 + cid)
                    plan = SamplerPlan("shuffle", data.size, data.size, shard.rng_seed)
                    updates.append(
                        run_local(spec, shard, w0, mask, dp, plan, local_epochs=1, round_index=0)
                    )
                w1 = aggregate(w0, updates, AggregationOp("fedavg"))
                grads = per_sample_gradients(spec, w0, data)
                central = w0.values - 0.25 * clip_per_sample(grads, clip).mean(axis=0)
                assert np.max(np.abs(w1.values - central)) <= 1e-12


def test_criterion_06_frozen_coordinate_conservation():
    with criterion(6, "head-only runs leave backbone bitwise frozen"):
        rng = RNG(23)
        for case in range(20):
            hidden = int(rng.integers(2, 9))
            spec = ModelSpec("mlp", input_dim=2, output_dim=2, hidden_dim=hidden)
            samples = int(rng.integers(40, 90))
            data = make_dataset(
                SyntheticDatasetSpec("gaussian-blobs", 2, samples, 2, seed=case)
            )
            train, test = split_train_test(data, 0.25, case)
            cfg = ExperimentConfig(
                model=spec,
                clients=int(rng.integers(1, 4)),
                rounds=int(rng.integers(1, 4)),
                local_epochs=int(rng.integers(1, 3)),
                batch_size=int(rng.integers(4, 17)),
                dp=DpConfig(
                    clip_norm=float(rng.uniform(0.3, 2.0)),
                    noise_multiplier=float(rng.uniform(0.0, 1.5)),
                    learning_rate=0.1,
                    optimizer=["sgd", "adam"][int(rng.integers(0, 2))],
                ),
                mask_layers=("head.weight", "head.bias"),
                aggregation=AggregationOp(["fedavg", "fednova"][int(rng.integers(0, 2))]),
                seeds=Seeds(case, case + 1, case + 2),
                comm=replace(default_comm(spec), seconds_per_coord=0.0),
            )
            w0 = init_params(spec, cfg.seeds.global_seed)
            mask = make_mask(w0.layout, ["head.weight", "head.bias"])
            frozen = ~mask.coordinate_mask
            result = run_experiment(cfg, train, test)
            assert result.error is None
            assert np.array_equal(result.final_params.values[frozen], w0.values[frozen])
            # transmitted updates carry masked indices only
            from dpfedsim.federation import partition_data

            shard = partition_data(train, 1, "iid", seed=case)[0]
            plan = SamplerPlan("shuffle", min(8, shard.n_k), shard.n_k, shard.rng_seed)
            update = run_local(spec, shard, w0, mask, cfg.dp, plan, 1, 0)
            assert np.all(np.isin(update.indices, mask.indices))
            assert np.array_equal(update.indices, mask.indices)


def test_criterion_07_traffic_model():
    with criterion(7, "traffic and delay reproduce the reference link scale"):
        comm = CommModel(bandwidth_mbps=1456.0 / 174.72, full_model_bytes=1456.0 * MB)
        flags = np.zeros(10_000, dtype=bool)
        flags[:21] = True  # trainable fraction 0.0021
        mask = PartitionMask(("head",), flags)
        masked_bytes = traffic_per_round(mask, comm)
        assert masked_bytes / MB == pytest.approx(3.0576, rel=1e-12)
        assert abs(masked_bytes / MB - 3.10) / 3.10 <= 0.02
        d_masked = delay_seconds(masked_bytes, comm)
        d_full = delay_seconds(comm.full_model_bytes, comm)
        assert d_masked == pytest.approx(0.37, abs=0.01)
        assert d_full == pytest.approx(174.72, abs=0.1)
        speedup = d_full / d_masked
        assert abs(speedup - 470.0) / 470.0 <= 0.02


def test_criterion_08_fednova_identity_and_parity():
    with criterion(8, "fednova at tau=1 is bitwise fedavg; toy parity holds"):
        rng = RNG(31)
        for case in range(20):
            dim = int(rng.integers(4, 40))
            flags = np.zeros(dim, dtype=bool)
            flags[: int(rng.integers(1, dim + 1))] = True
            mask = PartitionMask(("layer",), flags)
            layout = (("layer", 0, dim),)
            w0 = ParameterVector(rng.normal(size=dim), layout)
            updates = [
                MaskedUpdate(
                    cid,
                    0,
                    mask.indices.copy(),
                    rng.normal(size=mask.trainable_count),
                    tau=1,
                    n_k=int(rng.integers(1, 50)),
                )
                for cid in range(int(rng.integers(1, 6)))
            ]
            fa = aggregate(w0, updates, AggregationOp("fedavg"))
            fn = aggregate(w0, updates, AggregationOp("fednova"))
            assert np.array_equal(fa.values, fn.values)
        # near-parity of final accuracy on a toy federated run
        accs = {}
        for kind in ("fedavg", "fednova"):
            spec = ModelSpec("mlp", 2, 2, hidden_dim=8)
            data = make_dataset(SyntheticDatasetSpec("gaussian-blobs", 2, 200, 2, seed=5))
            train, test = split_train_test(data, 0.25, 5)
            cfg = ExperimentConfig(
                model=spec,
                clients=2,
                rounds=3,
                local_epochs=2,
                batch_size=8,
                dp=DpConfig(1.0, 0.4, 0.1),
                aggregation=AggregationOp(kind),
                mask_layers=("head.weight", "head.bias"),
                pretrain_epochs=100,
                pretrain_lr=0.3,
                public_fraction=0.3,
                seeds=Seeds(5, 6, 7),
                comm=replace(default_comm(spec), seconds_per_coord=0.0),
            )
            accs[kind] = run_experiment(cfg, train, test).records[-1].global_accuracy
        assert abs(accs["fedavg"] - accs["fednova"]) <= 0.1


def test_criterion_09_selective_beats_full_under_privacy():
    with criterion(9, "selective DP tuning beats full tuning at matched epsilon"):
        target_eps = 0.65  # tight budget, well under 1.0
        gaps = []
        sel_accs, full_accs = [], []
        for seed in range(5):
            accs = {}
            for label, mask_layers in (
                ("selective", ("head.weight", "head.bias")),
                ("full", ()),
            ):
                spec = ModelSpec("mlp", 2, 2, hidden_dim=32, activation="tanh")
                data = make_dataset(
                    SyntheticDatasetSpec("two-spirals", 2, 640, 2, noise_std=0.05, seed=seed)
                )
                train, test = split_train_test(data, 0.25, seed)
                n_train = train.size
                n_public = round(0.5 * n_train)
                shard = (n_train - n_public) // 2
                q = min(16, shard) / shard
                sigma = sigma_for_target(q, 3 * 1, 1e-4, target_eps)
                cfg = ExperimentConfig(
                    model=spec,
                    clients=2,
                    rounds=3,
                    local_epochs=1,
                    batch_size=16,
                    dp=DpConfig(1.0, sigma, 0.05),
                    mask_layers=mask_layers,
                    pretrain_epochs=400,
                    pretrain_lr=0.5,
                    public_fraction=0.5,
                    seeds=Seeds(seed, seed + 1, seed + 2),
                    comm=replace(default_comm(spec), seconds_per_coord=0.0),
                )
                result = run_experiment(cfg, train, test)
                assert result.error is None
                accs[label] = result.records[-1].global_accuracy
            sel_accs.append(accs["selective"])
            full_accs.append(accs["full"])
            gaps.append(accs["selective"] - accs["full"])
        mean_sel = float(np.mean(sel_accs))
        mean_full = float(np.mean(full_accs))
        assert mean_sel >= mean_full
        assert float(np.mean(gaps)) > 0.0
        print(
            f"  selective={mean_sel:.3f} full={mean_full:.3f} "
            f"mean_gap={np.mean(gaps):+.3f}"
        )


def test_criterion_10_determinism_golden_file(tmp_path):
    with criterion(10, "reference run reproduces byte-identical round tables"):
        tables = []
        for _ in range(2):
            resolved = parse_config(DATA_DIR / "reference.cfg")
            train, test = load_dataset(resolved)
            result = run_experiment(resolved.experiment, train, test)
            assert result.error is None
            tables.append(render_rounds_table(result.records))
        assert tables[0] == tables[1]
        golden = (DATA_DIR / "golden_rounds.csv").read_text()
        assert tables[0] == golden


def test_criterion_11_noise_statistics():
    with criterion(11, "injected noise variance matches (sigma*clip)^2"):
        rows = np.array([[0.1, -0.2, 0.4], [0.5, 0.3, -0.1], [-0.2, 0.1, 0.0]])
        sigma, clip = 0.8, 1.25
        base = rows.mean(axis=0)
        n = 100_000
        draws = np.empty((n, 3))
        for s in range(n):
            draws[s] = noisy_mean(rows, sigma, clip, noise_seed=s)
        noise = draws - base
        target = (sigma * clip) ** 2
        assert np.all(np.abs(noise.var(axis=0) - target) <= 0.05 * target)
        assert np.all(np.abs(noise.mean(axis=0)) <= 4 * sigma * clip / math.sqrt(n))
