"""Benchmark workloads: two dpfedsim configurations.

Every workload runs the closed loop of ``run_experiment``: one process, the
selected clients train one after another, and the server waits for all of
them before aggregating.  Each sets ``dp.noise_multiplier`` explicitly and
leaves ``privacy.target_epsilon`` unset, so a change to how sigma is solved
from an epsilon target cannot move the benchmark's outputs.
"""

from __future__ import annotations

# The seed whose outputs are pinned by digests.json.  Every benchmark run
# executes this seed once, whatever --seed it was given.
REFERENCE_SEED = 0


def seeded(raw: dict[str, str], seed: int) -> dict[str, str]:
    """``raw`` with REFERENCE_SEED's data and ``seed``'s DP noise.

    ``resolve_raw(raw, seed=s)`` sets seeds.global = s (client selection,
    pretraining), seeds.data = s + 1 (dataset, public split, partition) and
    seeds.noise = s + 2.  Only the noise follows ``seed`` here, so every seed
    trains on the same examples and a workload's example count is fixed; at
    REFERENCE_SEED the result resolves exactly as ``resolve_raw(raw,
    seed=REFERENCE_SEED)`` does.
    """
    return dict(
        raw,
        **{
            "seeds.global": str(REFERENCE_SEED),
            "seeds.data": str(REFERENCE_SEED + 1),
            "seeds.noise": str(seed + 2),
        },
    )


_WIDE = {
    "model.kind": "mlp",
    "model.input_dim": "64",
    "model.hidden_dim": "256",
    "model.output_dim": "4",
    "clients": "10",
    "rounds": "3",
    "local_epochs": "1",
    "batch_size": "64",
    "partition": "iid",
    "aggregation": "fedavg",
    "dp.optimizer": "adam",
    "dp.learning_rate": "0.01",
    "dp.clip_norm": "1.0",
    "dp.noise_multiplier": "1.0",
    "pretrain.epochs": "20",
    "pretrain.lr": "0.1",
    "pretrain.public_fraction": "0.2",
    "dataset.samples": "3200",
}

# key=value settings as ``resolve_raw`` takes them, per workload.
WORKLOADS: dict[str, dict[str, str]] = {
    # The paper's selective regime: only the 1 028 head coordinates of
    # d = 17 668 are trained, yet per-sample gradients are computed for all.
    "head-wide": dict(_WIDE, **{"mask_layers": "head.weight,head.bias"}),
    # The same run with every layer trainable: a change that only skips
    # frozen layers must leave this workload unchanged.
    "full-wide": dict(_WIDE, **{"mask_layers": "all"}),
}

# Which end-to-end metric each per-layer metric of BENCHMARK.json should
# move, and on which workload.  The per-step overhead layers (rng, noisy_mean,
# dp_step, epoch_batches, update extraction, aggregation) take a few percent
# of the run on both workloads.  A faster layer saves at most its self-time
# share of the run on that workload: nothing here waits on a queue or lock.
LAYER_MAP: dict[str, str] = {
    "models.per_sample_gradients.self_s": "run_s and peak_rss_mb on head-wide",
    "models.per_sample_gradients.calls": "should not change on full-wide",
    "models.grad_cols_used_ratio": "run_s and peak_rss_mb on head-wide (1028/17668 at the seed)",
    "models.mean_gradient.self_s": "run_s on head-wide and full-wide (pretraining)",
    "models.forward.self_s": "run_s on head-wide and full-wide (evaluation)",
    "dpsgd.clip_per_sample.self_s": "run_s on full-wide",
    "dpsgd.clipped_rows_frac": "no end-to-end metric; shows what clipping did",
    "dpsgd.noisy_mean.self_s": "run_s on head-wide and full-wide (per-step noise)",
    "dpsgd.dp_step.self_s": "run_s on head-wide and full-wide (per-step overhead)",
    "dpsgd.epoch_batches.self_s": "run_s on head-wide and full-wide (per-step overhead)",
    "rng.derive_seed.self_s": "run_s on head-wide and full-wide (noise streams)",
    "rng.derive_seed.calls": "run_s on head-wide and full-wide (noise streams)",
    "rng.generator.self_s": "run_s on head-wide and full-wide (noise streams)",
    "rng.standard_normal.self_s": "run_s on head-wide and full-wide (noise streams)",
    "federation.run_experiment.self_s": "run_s on all workloads (work no wrapped layer covers)",
    "federation.run_local.self_s": "run_s on full-wide (batch take and mask slice)",
    "federation.partition_data.self_s": "run_s on all workloads",
    "federation.initial_params.self_s": "run_s on all workloads",
    "federation.evaluate.self_s": "run_s on all workloads",
    "masking.extract_masked_update.self_s": "run_s on head-wide and full-wide",
    "aggregation.aggregate.self_s": "run_s on head-wide and full-wide",
    "aggregation.aggregate.calls": "run_s on head-wide and full-wide",
    "accountant.compose_rounds.calls": "run_s on head-wide and full-wide",
    "config.resolve_raw.self_s": "setup_s on all workloads",
    "config.load_dataset.self_s": "setup_s on all workloads",
    "masking.serialize_update.self_s": "no end-to-end metric (off the run path)",
    "masking.deserialize_update.self_s": "no end-to-end metric (off the run path)",
    "masking.wire_bytes_per_update": "no end-to-end metric (off the run path)",
    "masking.wire_to_model_ratio": "no end-to-end metric (off the run path)",
    "trace.hooks.self_s": "no end-to-end metric (cost of the tracer's counters)",
    "trace.run_s": "no end-to-end metric (run_s of the traced run)",
    "trace.overhead_frac": "no end-to-end metric (traced run_s / untraced run_s - 1)",
}
