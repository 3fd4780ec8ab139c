"""Experiment configuration: a flat key=value text format with dotted keys.

Every key has one schema row: its type, its default and the field it sets.
Unknown keys are rejected rather than ignored, in files, raw tables and
--set overrides alike.  parse_config resolves a file plus overrides into a
fully-populated value table and an ExperimentConfig.  This module only maps
keys onto the dataclasses, which check their own rules.  resolve_raw checks
each rule that needs no data: the dataset source and path, and the generated
dataset's generator, classes, samples and noise, whose spec it keeps.
Resolution loads no data: load_dataset checks the rest (the file parses, the
model takes the data, the test split), each refusal a ConfigError, and a run
with privacy.target_epsilon solves its noise multiplier from its own client
shards.  The dump format is versioned and round-trips to an identical
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .aggregation import AggregationOp
from .comm import DEFAULT_BANDWIDTH_MBPS, CommModel, default_comm, render_value, write_records
from .data import SyntheticDatasetSpec, load_delimited, make_dataset, split_train_test
from .dpsgd import DpConfig
from .errors import ConfigError, as_config_error
from .federation import ExperimentConfig, ExperimentResult, Seeds
from .models import ModelSpec, SampleBatch, check_batch

DUMP_VERSION = "# dpfedsim resolved config v1"
RESOLVED_FILE = "resolved_config.txt"

_REQUIRED = object()

# key -> (type tag, default, field); order here is the dump order.  A default
# is the field's own default read from its class, a constant only the config
# has, _REQUIRED, or a rule over the values of the rows above it.  A field
# "group.name" sets `name` of the model, dp, seeds, comm or dataset object, a
# bare one sets the ExperimentConfig field, and None sets no field.
SCHEMA: dict[str, tuple[str, object, str | None]] = {
    "name": ("str", "run", None),
    "model.kind": ("str", _REQUIRED, "model.kind"),
    "model.input_dim": ("int", _REQUIRED, "model.input_dim"),
    "model.output_dim": ("int", _REQUIRED, "model.output_dim"),
    "model.hidden_dim": ("int", ModelSpec.hidden_dim, "model.hidden_dim"),
    "model.activation": ("str", ModelSpec.activation, "model.activation"),
    "clients": ("int", _REQUIRED, "clients"),
    "rounds": ("int", _REQUIRED, "rounds"),
    "local_epochs": ("int", 1, "local_epochs"),
    "batch_size": ("int", 32, "batch_size"),
    "participation_fraction": ("float", ExperimentConfig.participation_fraction, "participation_fraction"),
    "mask_layers": ("str", "all", "mask_layers"),
    "aggregation": ("str", ExperimentConfig.aggregation.kind, "aggregation"),
    "partition": ("str", ExperimentConfig.partition, "partition"),
    "dirichlet_alpha": ("float", ExperimentConfig.dirichlet_alpha, "dirichlet_alpha"),
    "sampler": ("str", ExperimentConfig.sampler_mode, "sampler_mode"),
    "dp.clip_norm": ("float", 1.0, "dp.clip_norm"),
    "dp.noise_multiplier": ("float", 1.0, "dp.noise_multiplier"),
    "dp.learning_rate": ("float", 0.1, "dp.learning_rate"),
    "dp.optimizer": ("str", DpConfig.optimizer, "dp.optimizer"),
    "dp.adam_beta1": ("float", DpConfig.adam_beta1, "dp.adam_beta1"),
    "dp.adam_beta2": ("float", DpConfig.adam_beta2, "dp.adam_beta2"),
    "dp.adam_eps": ("float", DpConfig.adam_eps, "dp.adam_eps"),
    "privacy.delta": ("float", ExperimentConfig.delta, "delta"),
    "privacy.target_epsilon": ("float", 0.0, "target_epsilon"),  # 0 means "not set"
    "seeds.global": ("int", Seeds.global_seed, "seeds.global_seed"),
    "seeds.data": ("int", lambda v: Seeds(v["seeds.global"]).data_seed, "seeds.data_seed"),
    "seeds.noise": ("int", lambda v: Seeds(v["seeds.global"]).noise_seed, "seeds.noise_seed"),
    "pretrain.epochs": ("int", ExperimentConfig.pretrain_epochs, "pretrain_epochs"),
    "pretrain.lr": ("float", ExperimentConfig.pretrain_lr, "pretrain_lr"),
    "pretrain.public_fraction": ("float", ExperimentConfig.public_fraction, "public_fraction"),
    "dataset.source": ("str", "synthetic", None),
    "dataset.generator": ("str", "gaussian-blobs", "dataset.generator"),
    "dataset.classes": ("int", lambda v: v["model.output_dim"], "dataset.classes"),
    "dataset.samples": ("int", 600, "dataset.samples"),
    "dataset.noise_std": ("float", SyntheticDatasetSpec.noise_std, "dataset.noise_std"),
    "dataset.seed": ("int", lambda v: v["seeds.data"], "dataset.seed"),
    "dataset.path": ("str", "", None),
    "dataset.test_fraction": ("float", 0.25, None),
    "comm.bandwidth_mbps": ("float", DEFAULT_BANDWIDTH_MBPS, "comm.bandwidth_mbps"),
    "comm.full_model_bytes": ("str", "auto", "comm.full_model_bytes"),
    "comm.overhead_bytes": ("float", CommModel.per_message_overhead_bytes, "comm.per_message_overhead_bytes"),
    "comm.masked_broadcast": ("bool", CommModel.masked_broadcast, "comm.masked_broadcast"),
    "comm.seconds_per_coord": ("float", CommModel.seconds_per_coord, "comm.seconds_per_coord"),
    "comm.encoding": ("str", CommModel.encoding, "comm.encoding"),
    "sweep.clients": ("str", "", None),
    "sweep.rounds": ("str", "", None),
    "sweep.epsilon": ("str", "", None),
}


@dataclass
class ResolvedConfig:
    """Fully-defaulted value table, the experiment it encodes and its generated data's spec."""

    values: dict[str, object]
    experiment: ExperimentConfig
    dataset: SyntheticDatasetSpec | None

    @property
    def name(self) -> str:
        return self.values["name"]

    def dump(self) -> str:
        lines = [DUMP_VERSION] + [f"{k} = {v}" for k, v in rendered_raw(self).items()]
        return "\n".join(lines) + "\n"

    def write_run(self, result: ExperimentResult, run_dir: Path) -> dict:
        """Write a run directory: rounds.csv, summary.txt and the dump, which
        echoes the noise multiplier the run used (solved when it had a target).
        Returns the summary."""
        summary = write_records(result.records, run_dir)
        ran = replace(self, values={**self.values, "dp.noise_multiplier": result.noise_multiplier})
        (run_dir / RESOLVED_FILE).write_text(ran.dump())
        return summary


def _coerce(key: str, raw: str) -> object:
    kind = SCHEMA[key][0]
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
    for key in raw:
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
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
    for key, (_, default, _) in SCHEMA.items():
        if key in raw:
            values[key] = _coerce(key, raw[key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            values[key] = default(values) if callable(default) else default
    with as_config_error():
        experiment, dataset = _build_experiment(values)
    return ResolvedConfig(values=values, experiment=experiment, dataset=dataset)


def rendered_raw(resolved: ResolvedConfig) -> dict[str, str]:
    """The resolved table as raw strings, suitable for re-resolution."""
    return {key: render_value(resolved.values[key]) for key in SCHEMA}


def _dataset_spec(values: dict, fields: dict, model: ModelSpec) -> SyntheticDatasetSpec | None:
    """The generated dataset's spec, as wide as the model; None for a data file."""
    source = values["dataset.source"]
    if source == "synthetic":
        return SyntheticDatasetSpec(**fields, input_dim=model.input_dim)
    if source != "file":
        raise ConfigError("dataset.source: must be synthetic or file")
    path = Path(values["dataset.path"])
    if not path.is_file():
        raise ConfigError(f"dataset.path: file not found: {path}")
    return None


def _fields(values: dict[str, object]) -> dict[str, dict[str, object]]:
    """The values grouped by the object they set, keyed by field name; group
    "" holds the ExperimentConfig fields."""
    groups: dict[str, dict[str, object]] = {}
    for key, (_, _, field_path) in SCHEMA.items():
        if field_path is not None:
            group, _, name = field_path.rpartition(".")
            groups.setdefault(group, {})[name] = values[key]
    return groups


def _build_experiment(values: dict) -> tuple[ExperimentConfig, SyntheticDatasetSpec | None]:
    groups = _fields(values)
    model = ModelSpec(**groups["model"])
    dataset = _dataset_spec(values, groups["dataset"], model)
    top = groups[""]
    mask_value = top["mask_layers"].strip()
    if mask_value in ("all", ""):
        top["mask_layers"] = ()
    else:
        top["mask_layers"] = tuple(s.strip() for s in mask_value.split(",") if s.strip())

    link = groups["comm"]
    full_bytes = link["full_model_bytes"].strip()
    if full_bytes == "auto":
        link["full_model_bytes"] = default_comm(model).full_model_bytes
    else:
        try:
            link["full_model_bytes"] = float(full_bytes)
        except ValueError as exc:
            raise ConfigError("comm.full_model_bytes: expected a number or 'auto'") from exc
    values["comm.full_model_bytes"] = repr(link["full_model_bytes"])  # echo the size, not 'auto'
    comm = CommModel(**link)
    dp = DpConfig(**groups["dp"])
    top["target_epsilon"] = top["target_epsilon"] or None
    top["aggregation"] = AggregationOp(top["aggregation"])
    experiment = ExperimentConfig(model=model, dp=dp, seeds=Seeds(**groups["seeds"]), comm=comm, **top)
    return experiment, dataset


def load_dataset(resolved: ResolvedConfig) -> tuple[SampleBatch, SampleBatch]:
    """(train, test) splits of a configuration, whose model must take the data:
    generated from its spec, or read from its data file.  Data that cannot be
    read or split, or that the model cannot take, is a ConfigError."""
    values, spec = resolved.values, resolved.dataset
    with as_config_error():
        full = load_delimited(values["dataset.path"]) if spec is None else make_dataset(spec)
    with as_config_error("dataset: "):
        check_batch(resolved.experiment.model, full)
    with as_config_error():
        return split_train_test(full, values["dataset.test_fraction"], values["dataset.seed"])
