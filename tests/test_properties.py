"""Properties of seeded tiny configurations drawn over the configuration space.

Each draw is a raw key/value table from a numpy generator seeded by the draw's
index: an mlp or logistic model, at most 4 clients, 3 rounds and 120 samples,
and now and then one value out of range.  Per draw: a refused configuration
is a ConfigError from resolve_raw, load_dataset or run_experiment before
round 0; an accepted one runs to the end or stops with its error and a partial
record list, reruns bit for bit, leaves every coordinate outside the mask at
the run's initial parameters, meets its epsilon target, and its resolved dump
round-trips.  Raise DRAWS for a longer search by hand.
"""

import numpy as np
import pytest

from dpfedsim import ConfigError, federation, layer_layout, make_mask, resolve_raw, run_experiment
from dpfedsim.config import load_dataset, rendered_raw
from dpfedsim.masking import ENCODINGS

DRAWS = 120
ROOT_SEED = 28

MASKS = {
    "mlp": ["all", "head.weight,head.bias", "hidden.bias,head.bias", "hidden.weight"],
    "logistic": ["all", "head.bias"],
}

# one value a draw may carry in place of its own; each is out of range at
# least in some context (dirichlet_alpha only under the dirichlet partition)
OUT_OF_RANGE = {
    "clients": "0",
    "rounds": "-1",
    "batch_size": "0",
    "participation_fraction": "1.5",
    "mask_layers": "head.wieght",
    "dirichlet_alpha": "0",
    "dp.clip_norm": "-1",
    "dp.noise_multiplier": "nan",
    "privacy.delta": "1",
    "dataset.samples": "1",
    "comm.bandwidth_mbps": "0",
    "comm.masked_broadcast": "maybe",
    "comm.seconds_per_coord": "-1e-9",
    "comm.encoding": "bogus",
}


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def draw(index: int) -> dict[str, str]:
    """Draw number ``index``: a raw table, the same on every call."""
    rng = np.random.default_rng([ROOT_SEED, index])
    kind = _pick(rng, ["mlp", "logistic"])
    input_dim = int(rng.integers(1, 4))
    classes = 2 if kind == "logistic" else int(rng.integers(2, 4))
    pretrain = _pick(rng, ["0", "0", "2"])
    raw = {
        "model.kind": kind,
        "model.input_dim": str(input_dim),
        "model.output_dim": str(classes),
        "clients": str(rng.integers(1, 5)),
        "rounds": str(rng.integers(1, 4)),
        "local_epochs": str(rng.integers(1, 3)),
        "batch_size": str(rng.integers(1, 17)),
        "participation_fraction": _pick(rng, ["1.0", "0.5", "0.34"]),
        "mask_layers": _pick(rng, MASKS[kind]),
        "aggregation": _pick(rng, ["fedavg", "fednova"]),
        "partition": _pick(rng, ["iid", "dirichlet"]),
        "dirichlet_alpha": _pick(rng, ["0.3", "1.0", "5.0"]),
        "sampler": _pick(rng, ["shuffle", "poisson"]),
        "dp.clip_norm": repr(float(rng.uniform(0.2, 2.0))),
        "dp.noise_multiplier": _pick(rng, ["0.0", "0.5", "1.3"]),
        "dp.learning_rate": _pick(rng, ["0.05", "0.2"]),
        "dp.optimizer": _pick(rng, ["sgd", "adam"]),
        "privacy.target_epsilon": _pick(rng, ["0.0", "0.0", "0.7", "4.0"]),
        "privacy.delta": _pick(rng, ["1e-05", "0.0001"]),
        "seeds.global": str(rng.integers(0, 10_000)),
        "pretrain.epochs": pretrain,
        "pretrain.public_fraction": "0.2" if pretrain != "0" else _pick(rng, ["0.0", "0.2"]),
        "dataset.samples": str(rng.integers(30, 121)),
        "dataset.noise_std": _pick(rng, ["0.1", "0.5"]),
        "comm.bandwidth_mbps": _pick(rng, ["1.0", "8.5"]),
        "comm.overhead_bytes": _pick(rng, ["0.0", "40.0"]),
        "comm.masked_broadcast": _pick(rng, ["true", "false"]),
        "comm.seconds_per_coord": _pick(rng, ["0.0", "1e-09", "3e-07"]),
        "comm.encoding": _pick(rng, ENCODINGS),
    }
    if kind == "mlp":
        raw["model.hidden_dim"] = str(rng.integers(2, 7))
        raw["model.activation"] = _pick(rng, ["relu", "tanh"])
    if classes == 2 and input_dim == 2:
        raw["dataset.generator"] = _pick(rng, ["gaussian-blobs", "two-spirals"])
    if rng.random() < 0.3:
        key = _pick(rng, sorted(OUT_OF_RANGE))
        raw[key] = OUT_OF_RANGE[key]
    return raw


def test_the_draws_span_the_space():
    tables = [draw(i) for i in range(DRAWS)]
    assert tables[3] == draw(3)
    assert min(len(t) for t in tables) >= 20
    assert {"comm.masked_broadcast", "comm.seconds_per_coord", "comm.encoding"} <= set(tables[0])
    refused = 0
    for table in tables:
        try:
            resolve_raw(table)
        except ConfigError:
            refused += 1
    assert 0 < refused < DRAWS // 2
    assert {t["model.kind"] for t in tables} == {"mlp", "logistic"}


@pytest.mark.parametrize("index", range(DRAWS))
def test_a_drawn_configuration_keeps_every_guarantee(index):
    raw = draw(index)
    try:
        resolved = resolve_raw(raw)
        train, test = load_dataset(resolved)
        result = run_experiment(resolved.experiment, train, test)
    except ConfigError:
        return  # refused before round 0, and only as a ConfigError
    cfg = resolved.experiment
    if result.error is None:
        assert len(result.records) == cfg.rounds
    else:
        assert result.error.startswith(f"round {len(result.records)}: ")
        assert len(result.records) < cfg.rounds

    again = run_experiment(cfg, train, test)
    assert repr(again.records) == repr(result.records)
    assert again.error == result.error
    assert again.final_params.values.tobytes() == result.final_params.values.tobytes()

    public, _ = federation.client_shards(cfg, train)
    initial = federation.initial_params(cfg, public).values
    frozen = ~make_mask(layer_layout(cfg.model), cfg.resolved_mask_layers()).coordinate_mask
    assert result.final_params.values[frozen].tobytes() == initial[frozen].tobytes()

    if cfg.target_epsilon is not None and result.records:
        epsilon = result.records[-1].epsilon_to_date
        assert epsilon <= cfg.target_epsilon * (1 + 1e-12)

    assert resolve_raw(rendered_raw(resolved)).dump() == resolved.dump()
