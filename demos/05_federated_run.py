#!/usr/bin/env python3
"""One complete federated experiment, from config to per-round records."""

from dpfedsim import resolve_raw
from dpfedsim.comm import render_rounds_table, summarize
from dpfedsim.config import load_dataset
from dpfedsim.federation import run_experiment

raw = {
    "name": "demo",
    "model.kind": "mlp",
    "model.input_dim": "2",
    "model.output_dim": "2",
    "model.hidden_dim": "8",
    "clients": "2",
    "rounds": "5",
    "local_epochs": "5",
    "batch_size": "8",
    "mask_layers": "head.weight,head.bias",
    "privacy.target_epsilon": "1.33",
    "pretrain.epochs": "100",
    "pretrain.public_fraction": "0.3",
    "dataset.samples": "240",
    "dataset.noise_std": "0.4",
}
resolved = resolve_raw(raw)
train, test = load_dataset(resolved)
print(f"train={train.size} test={test.size} clients={resolved.experiment.clients}")

# the run solves sigma from its own client shards
result = run_experiment(resolved.experiment, train, test)
print(f"noise multiplier solved for epsilon=1.33: {result.noise_multiplier:.4f}\n")
print(render_rounds_table(result.records))

summary = summarize(result.records)
for key, value in summary.items():
    print(f"{key}={value}")
