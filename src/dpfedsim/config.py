"""Experiment configuration: a flat key=value text format with dotted keys.

Every key has a schema entry (type plus default); unknown keys are rejected
rather than ignored, in files and in --set overrides alike.  parse_config
resolves a file plus overrides into a fully-populated value table and an
ExperimentConfig.  This module only maps keys onto the dataclasses, which
check their own rules; it checks the dataset source itself, and whatever it
rejects is raised as a ConfigError.  When privacy.target_epsilon is set, the
noise multiplier is solved from the client shards the run will train on and
echoed in the resolved dump, and load_dataset reuses that split.  The dump
format is versioned and round-trips to an identical configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .aggregation import AggregationOp
from .comm import CommModel
from .data import SyntheticDatasetSpec, load_delimited, make_dataset, split_train_test
from .dpsgd import DpConfig
from .errors import ConfigError, DomainError, ShapeError
from .federation import (
    DEFAULT_BANDWIDTH_MBPS,
    ExperimentConfig,
    Seeds,
    client_shards,
    default_comm,
    sigma_for_shards,
)
from .models import ModelSpec, SampleBatch

DUMP_VERSION = "# dpfedsim resolved config v1"
RESOLVED_FILE = "resolved_config.txt"

_REQUIRED = object()

# key -> (type tag, default); order here is the dump order
SCHEMA: dict[str, tuple[str, object]] = {
    "name": ("str", "run"),
    "model.kind": ("str", _REQUIRED),
    "model.input_dim": ("int", _REQUIRED),
    "model.output_dim": ("int", _REQUIRED),
    "model.hidden_dim": ("int", 0),
    "model.activation": ("str", "tanh"),
    "clients": ("int", _REQUIRED),
    "rounds": ("int", _REQUIRED),
    "local_epochs": ("int", 1),
    "batch_size": ("int", 32),
    "participation_fraction": ("float", 1.0),
    "mask_layers": ("str", "all"),
    "aggregation": ("str", "fedavg"),
    "partition": ("str", "iid"),
    "dirichlet_alpha": ("float", 0.5),
    "sampler": ("str", "shuffle"),
    "dp.clip_norm": ("float", 1.0),
    "dp.noise_multiplier": ("float", 1.0),
    "dp.learning_rate": ("float", 0.1),
    "dp.optimizer": ("str", "sgd"),
    "dp.adam_beta1": ("float", 0.9),
    "dp.adam_beta2": ("float", 0.999),
    "dp.adam_eps": ("float", 1e-8),
    "privacy.delta": ("float", 1e-4),
    "privacy.target_epsilon": ("float", 0.0),  # 0 means "not set"
    "seeds.global": ("int", 0),
    "seeds.data": ("int", None),
    "seeds.noise": ("int", None),
    "pretrain.epochs": ("int", 0),
    "pretrain.lr": ("float", 0.1),
    "pretrain.public_fraction": ("float", 0.0),
    "dataset.source": ("str", "synthetic"),
    "dataset.generator": ("str", "gaussian-blobs"),
    "dataset.classes": ("int", None),
    "dataset.samples": ("int", 600),
    "dataset.input_dim": ("int", None),
    "dataset.noise_std": ("float", 0.25),
    "dataset.seed": ("int", None),
    "dataset.path": ("str", ""),
    "dataset.test_fraction": ("float", 0.25),
    "comm.bandwidth_mbps": ("float", DEFAULT_BANDWIDTH_MBPS),
    "comm.full_model_bytes": ("str", "auto"),
    "comm.overhead_bytes": ("float", 0.0),
    "comm.masked_broadcast": ("bool", False),
    "comm.seconds_per_coord": ("float", 1e-9),
    "comm.encoding": ("str", "dense-f32"),
    "sweep.clients": ("str", ""),
    "sweep.rounds": ("str", ""),
    "sweep.epsilon": ("str", ""),
}


@dataclass
class ResolvedConfig:
    """Fully-defaulted value table, the experiment it encodes, and the (train,
    test) split that solving a target_epsilon loaded (None without a target)."""

    values: dict[str, object]
    experiment: ExperimentConfig
    data: tuple[SampleBatch, SampleBatch] | None = field(default=None, compare=False, repr=False)

    @property
    def name(self) -> str:
        return str(self.values["name"])

    def dump(self) -> str:
        lines = [DUMP_VERSION]
        for key in SCHEMA:
            lines.append(f"{key} = {_render(self.values[key])}")
        return "\n".join(lines) + "\n"


def _render(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _coerce(key: str, raw: str) -> object:
    kind, _ = SCHEMA[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from exc


def parse_kv_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Raw key -> value strings from `key = value` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_config(
    path: str | Path | None,
    overrides: list[str] | tuple[str, ...] = (),
    seed: int | None = None,
) -> ResolvedConfig:
    """Load, override, default, validate, and resolve a configuration."""
    raw: dict[str, str] = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        raw = parse_kv_text(p.read_text(), origin=str(p))
    return resolve_raw(raw, overrides, seed)


def resolve_raw(
    raw: dict[str, str],
    overrides: list[str] | tuple[str, ...] = (),
    seed: int | None = None,
) -> ResolvedConfig:
    """Resolve raw key/value strings plus overrides into a full configuration."""
    raw = dict(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"unknown override key {key!r}")
        raw[key] = value.strip()
    if seed is not None:
        raw["seeds.global"] = str(seed)
        raw.pop("seeds.data", None)
        raw.pop("seeds.noise", None)
    values: dict[str, object] = {}
    for key, (kind, default) in SCHEMA.items():
        if key in raw:
            values[key] = _coerce(key, raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            values[key] = default
    _apply_derived_defaults(values)
    _check_dataset_source(values)
    try:
        experiment = _build_experiment(values)
        data = None
        if experiment.target_epsilon is not None:
            data = _load(values)
            _, shards = client_shards(experiment, data[0])
            values["dp.noise_multiplier"] = sigma_for_shards(experiment, shards)
            experiment = _build_experiment(values)
    except (ShapeError, DomainError) as exc:
        raise ConfigError(str(exc)) from exc
    return ResolvedConfig(values=values, experiment=experiment, data=data)


def rendered_raw(resolved: ResolvedConfig) -> dict[str, str]:
    """The resolved table as raw strings, suitable for re-resolution."""
    return {key: _render(resolved.values[key]) for key in SCHEMA}


def _apply_derived_defaults(values: dict[str, object]) -> None:
    g = int(values["seeds.global"])
    if values["seeds.data"] is None:
        values["seeds.data"] = g + 1
    if values["seeds.noise"] is None:
        values["seeds.noise"] = g + 2
    if values["dataset.classes"] is None:
        values["dataset.classes"] = int(values["model.output_dim"])
    if values["dataset.input_dim"] is None:
        values["dataset.input_dim"] = int(values["model.input_dim"])
    if values["dataset.seed"] is None:
        values["dataset.seed"] = int(values["seeds.data"])


def _check_dataset_source(values: dict[str, object]) -> None:
    source = str(values["dataset.source"])
    if source not in ("synthetic", "file"):
        raise ConfigError("dataset.source: must be synthetic or file")
    path = Path(str(values["dataset.path"]))
    if source == "file" and not path.is_file():
        raise ConfigError(f"dataset.path: file not found: {path}")


def _build_experiment(values: dict[str, object]) -> ExperimentConfig:
    model = ModelSpec(
        kind=str(values["model.kind"]),
        input_dim=int(values["model.input_dim"]),
        output_dim=int(values["model.output_dim"]),
        hidden_dim=int(values["model.hidden_dim"]),
        activation=str(values["model.activation"]),
    )
    mask_value = str(values["mask_layers"]).strip()
    if mask_value in ("all", ""):
        mask_layers: tuple[str, ...] = ()
    else:
        mask_layers = tuple(s.strip() for s in mask_value.split(",") if s.strip())

    full_bytes = str(values["comm.full_model_bytes"]).strip()
    if full_bytes == "auto":
        b_f = default_comm(model).full_model_bytes
    else:
        try:
            b_f = float(full_bytes)
        except ValueError as exc:
            raise ConfigError("comm.full_model_bytes: expected a number or 'auto'") from exc
    values["comm.full_model_bytes"] = repr(b_f)  # echo the resolved size, not 'auto'
    comm = CommModel(
        bandwidth_mbps=float(values["comm.bandwidth_mbps"]),
        full_model_bytes=b_f,
        per_message_overhead_bytes=float(values["comm.overhead_bytes"]),
    )

    dp = DpConfig(
        clip_norm=float(values["dp.clip_norm"]),
        noise_multiplier=float(values["dp.noise_multiplier"]),
        learning_rate=float(values["dp.learning_rate"]),
        optimizer=str(values["dp.optimizer"]),
        adam_beta1=float(values["dp.adam_beta1"]),
        adam_beta2=float(values["dp.adam_beta2"]),
        adam_eps=float(values["dp.adam_eps"]),
    )
    cfg = ExperimentConfig(
        model=model,
        clients=int(values["clients"]),
        rounds=int(values["rounds"]),
        local_epochs=int(values["local_epochs"]),
        batch_size=int(values["batch_size"]),
        dp=dp,
        delta=float(values["privacy.delta"]),
        target_epsilon=float(values["privacy.target_epsilon"]) or None,
        participation_fraction=float(values["participation_fraction"]),
        mask_layers=mask_layers,
        aggregation=AggregationOp(str(values["aggregation"])),
        partition=str(values["partition"]),
        dirichlet_alpha=float(values["dirichlet_alpha"]),
        sampler_mode=str(values["sampler"]),
        seeds=Seeds(
            global_seed=int(values["seeds.global"]),
            data_seed=int(values["seeds.data"]),
            noise_seed=int(values["seeds.noise"]),
        ),
        pretrain_epochs=int(values["pretrain.epochs"]),
        pretrain_lr=float(values["pretrain.lr"]),
        public_fraction=float(values["pretrain.public_fraction"]),
        comm=comm,
        masked_broadcast=bool(values["comm.masked_broadcast"]),
        seconds_per_coord=float(values["comm.seconds_per_coord"]),
        encoding=str(values["comm.encoding"]),
    )
    cfg.validate()
    return cfg


def load_dataset(resolved: ResolvedConfig) -> tuple[SampleBatch, SampleBatch]:
    """(train, test) splits of a configuration; a target solve's split is reused."""
    if resolved.data is not None:
        return resolved.data
    return _load(resolved.values)


def _load(values: dict[str, object]) -> tuple[SampleBatch, SampleBatch]:
    if str(values["dataset.source"]) == "synthetic":
        spec = SyntheticDatasetSpec(
            generator=str(values["dataset.generator"]),
            classes=int(values["dataset.classes"]),
            samples=int(values["dataset.samples"]),
            input_dim=int(values["dataset.input_dim"]),
            noise_std=float(values["dataset.noise_std"]),
            seed=int(values["dataset.seed"]),
        )
        full = make_dataset(spec)
    else:
        full = load_delimited(str(values["dataset.path"]))
    return split_train_test(
        full, float(values["dataset.test_fraction"]), int(values["dataset.seed"])
    )
