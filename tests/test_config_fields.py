"""Every config key reaches the field it sets, the derived defaults follow
their rules, and one renderer writes the dump and the metrics files."""

import dataclasses

import pytest

from dpfedsim import CommModel, DpConfig, ExperimentConfig, ModelSpec, Seeds, SyntheticDatasetSpec
from dpfedsim import config, resolve_raw
from dpfedsim.aggregation import AggregationOp
from dpfedsim.comm import render_value
from dpfedsim.config import SCHEMA, load_dataset

BASE = {
    "model.kind": "mlp",
    "model.input_dim": "2",
    "model.output_dim": "2",
    "model.hidden_dim": "4",
    "clients": "2",
    "rounds": "2",
    "batch_size": "8",
    "dataset.samples": "80",
}

# keys that set no field of the experiment or the synthetic dataset spec
NO_FIELD = {
    "name",
    "dataset.source",
    "dataset.path",
    "dataset.test_fraction",
    "sweep.clients",
    "sweep.rounds",
    "sweep.epsilon",
}

# key -> (raw value, the value the field must hold, the field, other keys it needs);
# the field reads (experiment, synthetic dataset spec)
FIELDS = {
    "model.kind": ("logistic", "logistic", lambda e, d: e.model.kind, {"model.hidden_dim": "0"}),
    "model.input_dim": ("3", 3, lambda e, d: e.model.input_dim, {}),
    "model.output_dim": ("3", 3, lambda e, d: e.model.output_dim, {}),
    "model.hidden_dim": ("5", 5, lambda e, d: e.model.hidden_dim, {}),
    "model.activation": ("relu", "relu", lambda e, d: e.model.activation, {}),
    "clients": ("3", 3, lambda e, d: e.clients, {}),
    "rounds": ("4", 4, lambda e, d: e.rounds, {}),
    "local_epochs": ("2", 2, lambda e, d: e.local_epochs, {}),
    "batch_size": ("7", 7, lambda e, d: e.batch_size, {}),
    "participation_fraction": ("0.5", 0.5, lambda e, d: e.participation_fraction, {}),
    "mask_layers": (
        "head.weight, head.bias",
        ("head.weight", "head.bias"),
        lambda e, d: e.mask_layers,
        {},
    ),
    "aggregation": ("fednova", AggregationOp("fednova"), lambda e, d: e.aggregation, {}),
    "partition": ("dirichlet", "dirichlet", lambda e, d: e.partition, {}),
    "dirichlet_alpha": ("0.7", 0.7, lambda e, d: e.dirichlet_alpha, {}),
    "sampler": ("poisson", "poisson", lambda e, d: e.sampler_mode, {}),
    "dp.clip_norm": ("2.5", 2.5, lambda e, d: e.dp.clip_norm, {}),
    "dp.noise_multiplier": ("1.5", 1.5, lambda e, d: e.dp.noise_multiplier, {}),
    "dp.learning_rate": ("0.2", 0.2, lambda e, d: e.dp.learning_rate, {}),
    "dp.optimizer": ("adam", "adam", lambda e, d: e.dp.optimizer, {}),
    "dp.adam_beta1": ("0.8", 0.8, lambda e, d: e.dp.adam_beta1, {}),
    "dp.adam_beta2": ("0.99", 0.99, lambda e, d: e.dp.adam_beta2, {}),
    "dp.adam_eps": ("1e-06", 1e-6, lambda e, d: e.dp.adam_eps, {}),
    "privacy.delta": ("1e-05", 1e-5, lambda e, d: e.delta, {}),
    "privacy.target_epsilon": ("2.0", 2.0, lambda e, d: e.target_epsilon, {}),
    "seeds.global": ("7", 7, lambda e, d: e.seeds.global_seed, {}),
    "seeds.data": ("11", 11, lambda e, d: e.seeds.data_seed, {}),
    "seeds.noise": ("13", 13, lambda e, d: e.seeds.noise_seed, {}),
    "pretrain.epochs": (
        "2",
        2,
        lambda e, d: e.pretrain_epochs,
        {"pretrain.public_fraction": "0.2"},
    ),
    "pretrain.lr": ("0.3", 0.3, lambda e, d: e.pretrain_lr, {}),
    "pretrain.public_fraction": ("0.2", 0.2, lambda e, d: e.public_fraction, {}),
    "dataset.generator": ("two-spirals", "two-spirals", lambda e, d: d.generator, {}),
    "dataset.classes": ("3", 3, lambda e, d: d.classes, {"model.output_dim": "4"}),
    "dataset.samples": ("90", 90, lambda e, d: d.samples, {}),
    "dataset.noise_std": ("0.5", 0.5, lambda e, d: d.noise_std, {}),
    "dataset.seed": ("21", 21, lambda e, d: d.seed, {}),
    "comm.bandwidth_mbps": ("10.0", 10.0, lambda e, d: e.comm.bandwidth_mbps, {}),
    "comm.full_model_bytes": ("1000", 1000.0, lambda e, d: e.comm.full_model_bytes, {}),
    "comm.overhead_bytes": ("12", 12.0, lambda e, d: e.comm.per_message_overhead_bytes, {}),
    "comm.masked_broadcast": ("true", True, lambda e, d: e.comm.masked_broadcast, {}),
    "comm.seconds_per_coord": ("2e-09", 2e-9, lambda e, d: e.comm.seconds_per_coord, {}),
    "comm.encoding": ("sparse-idx32-f32", "sparse-idx32-f32", lambda e, d: e.comm.encoding, {}),
}


def _built(raw, monkeypatch):
    """The experiment and the synthetic dataset spec a raw table builds."""
    specs = []
    real = config.make_dataset

    def recording(spec):
        specs.append(spec)
        return real(spec)

    monkeypatch.setattr(config, "make_dataset", recording)
    resolved = resolve_raw(raw)
    load_dataset(resolved)
    return resolved.experiment, specs[-1]


def test_every_key_is_covered():
    assert set(FIELDS) | NO_FIELD == set(SCHEMA)
    assert not set(FIELDS) & NO_FIELD


@pytest.mark.parametrize("key", sorted(FIELDS))
def test_key_reaches_its_field(key, monkeypatch):
    raw_value, want, read, needs = FIELDS[key]
    before = read(*_built(BASE, monkeypatch))
    after = read(*_built(dict(BASE, **needs, **{key: raw_value}), monkeypatch))
    assert before != want  # the value set is not the one the key already had
    assert after == want
    assert type(after) is type(want)


def test_derived_defaults_when_unset(monkeypatch):
    raw = dict(BASE, **{"seeds.global": "7", "model.input_dim": "3", "model.output_dim": "5"})
    experiment, spec = _built(raw, monkeypatch)
    assert (experiment.seeds.data_seed, experiment.seeds.noise_seed) == (8, 9)
    assert (spec.classes, spec.input_dim, spec.seed) == (5, 3, 8)
    resolved = resolve_raw(raw)
    assert [resolved.values[k] for k in ("seeds.data", "seeds.noise", "dataset.seed")] == [8, 9, 8]
    assert resolved.values["dataset.classes"] == 5


def test_derived_defaults_follow_what_is_set(monkeypatch):
    # dataset.seed follows seeds.data whether that is set or derived
    raw = dict(BASE, **{"seeds.global": "7", "seeds.data": "11"})
    experiment, spec = _built(raw, monkeypatch)
    assert (experiment.seeds.data_seed, experiment.seeds.noise_seed, spec.seed) == (11, 9, 11)
    raw = dict(
        BASE,
        **{
            "seeds.global": "7",
            "seeds.noise": "4",
            "model.output_dim": "4",
            "model.input_dim": "6",
            "dataset.classes": "3",
            "dataset.seed": "5",
        },
    )
    experiment, spec = _built(raw, monkeypatch)
    assert (experiment.seeds.data_seed, experiment.seeds.noise_seed) == (8, 4)
    assert (spec.classes, spec.input_dim, spec.seed) == (3, 6, 5)


def test_seed_argument_rederives_the_seed_family(monkeypatch):
    raw = dict(BASE, **{"seeds.data": "11", "seeds.noise": "13", "dataset.seed": "21"})
    resolved = resolve_raw(raw, seed=40)
    assert resolved.experiment.seeds == type(resolved.experiment.seeds)(40, 41, 42)
    assert resolved.values["dataset.seed"] == 21


@pytest.mark.parametrize(
    "value,text",
    [(float("-inf"), "-inf"), (float("inf"), "inf"), (0.1, "0.1"), (True, "true"), (3, "3")],
)
def test_one_renderer_for_dumps_and_metrics(value, text):
    assert render_value(value) == text


def test_a_key_left_unset_takes_its_field_default(monkeypatch):
    # a configuration of the required keys only builds, for every key with a
    # constant default whose field has a plain default, the value that field
    # takes in an object built in code from its required arguments
    raw = {"model.kind": "logistic", "model.input_dim": "2", "model.output_dim": "2"}
    experiment, spec = _built(dict(raw, clients="2", rounds="2"), monkeypatch)
    dp = experiment.dp
    in_code = ExperimentConfig(
        model=ModelSpec("logistic", 2, 2),
        clients=2,
        rounds=2,
        local_epochs=experiment.local_epochs,
        batch_size=experiment.batch_size,
        dp=DpConfig(dp.clip_norm, dp.noise_multiplier, dp.learning_rate),
    )
    objects = {  # field group -> (built from the config, built in code)
        "": (experiment, in_code),
        "model": (experiment.model, in_code.model),
        "dp": (dp, in_code.dp),
        "seeds": (experiment.seeds, in_code.seeds),
        "comm": (experiment.comm, CommModel(experiment.comm.bandwidth_mbps, experiment.comm.full_model_bytes)),
        "dataset": (spec, SyntheticDatasetSpec(spec.generator, spec.classes, spec.samples, spec.input_dim)),
    }
    checked = []
    for key, (_, default, field_path) in SCHEMA.items():
        if field_path is None or default is config._REQUIRED or callable(default):
            continue
        group, _, name = field_path.rpartition(".")
        built, coded = objects[group]
        field = {f.name: f for f in dataclasses.fields(built)}[name]
        if field.default is dataclasses.MISSING:
            continue
        assert getattr(built, name) == getattr(coded, name), key
        assert type(getattr(built, name)) is type(getattr(coded, name)), key
        checked.append(key)
    # the seed rule rows read Seeds' own rule, at the default global seed and another
    for global_seed in (0, 5):
        raw_seeds = dict(raw, clients="2", rounds="2", **{"seeds.global": str(global_seed)})
        assert _built(raw_seeds, monkeypatch)[0].seeds == Seeds(global_seed)
    assert experiment.seeds == Seeds(0, 1, 2)
    checked += ["seeds.data", "seeds.noise"]
    assert {
        "model.hidden_dim", "model.activation", "participation_fraction", "aggregation",
        "partition", "dirichlet_alpha", "sampler", "dp.optimizer", "dp.adam_beta1",
        "dp.adam_beta2", "dp.adam_eps", "privacy.delta", "seeds.global", "pretrain.epochs",
        "pretrain.lr", "pretrain.public_fraction", "dataset.noise_std", "comm.overhead_bytes",
        "comm.masked_broadcast", "comm.seconds_per_coord", "comm.encoding",
        "seeds.data", "seeds.noise",
    } <= set(checked)
