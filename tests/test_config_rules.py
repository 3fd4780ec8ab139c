"""Where configurations are rejected, and the privacy budget a target buys."""

import math
import re
import warnings

import pytest

from dpfedsim import ConfigError, ShapeError, federation, parse_config, resolve_raw, run_experiment
from dpfedsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from dpfedsim.config import RESOLVED_FILE, load_dataset, rendered_raw

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

# 40 samples leave 30 training rows, all private
TOO_MANY_CLIENTS = {"dataset.samples": "40", "clients": "31"}
TARGET = {"privacy.target_epsilon": "1.0"}

# every value rejected before a run starts; "{tmp}" is the test's directory
REJECTED = {
    "model.kind": {"model.kind": "bogus"},
    "model.hidden_dim": {"model.hidden_dim": "0"},
    "aggregation": {"aggregation": "bogus"},
    "partition": {"partition": "bogus"},
    "sampler": {"sampler": "bogus"},
    "dp.optimizer": {"dp.optimizer": "bogus"},
    "dp.clip_norm": {"dp.clip_norm": "0"},
    "comm.encoding": {"comm.encoding": "bogus"},
    "dataset.generator": {"dataset.generator": "bogus"},
    "dataset.test_fraction": {"dataset.test_fraction": "2"},
    "dataset.source": {"dataset.source": "bogus"},
    "dataset.path": {"dataset.source": "file", "dataset.path": "{tmp}/missing.csv"},
    # data the model cannot take: three classes under a two-way head
    "dataset.classes": {"dataset.classes": "3"},
    # a removed key: generated data is as wide as model.input_dim
    "dataset.input_dim": {"dataset.input_dim": "3"},
    "clients": {"clients": "0"},
    "rounds-with-target": {"rounds": "0", **TARGET},
    "batch_size": {"batch_size": "0"},
    "privacy.target_epsilon": {"privacy.target_epsilon": "-1"},
    "mask_layers": {"mask_layers": "head.wieght"},
    "clients-over-rows": TOO_MANY_CLIENTS,
    "clients-over-rows-with-target": {**TOO_MANY_CLIENTS, **TARGET},
    # NaN fails every bound, "x > 0" and "x >= 0" alike
    "comm.bandwidth_mbps=nan": {"comm.bandwidth_mbps": "nan"},
    "comm.overhead_bytes=nan": {"comm.overhead_bytes": "nan"},
    "comm.seconds_per_coord=nan": {"comm.seconds_per_coord": "nan"},
    "comm.full_model_bytes=nan": {"comm.full_model_bytes": "nan"},
    "dp.clip_norm=nan": {"dp.clip_norm": "nan"},
    "dp.noise_multiplier=nan": {"dp.noise_multiplier": "nan"},
    "dp.learning_rate=nan": {"dp.learning_rate": "nan"},
    "dp.adam_eps=nan": {"dp.optimizer": "adam", "dp.adam_eps": "nan"},
    "privacy.target_epsilon=nan": {"privacy.target_epsilon": "nan"},
    "dataset.noise_std=nan": {"dataset.noise_std": "nan"},
    # and so does inf: these bounds read "0 < x < inf"
    "dp.clip_norm=inf": {"dp.clip_norm": "inf"},
    "dp.noise_multiplier=inf": {"dp.noise_multiplier": "inf"},
    "dp.learning_rate=inf": {"dp.learning_rate": "inf"},
    "privacy.target_epsilon=inf": {"privacy.target_epsilon": "inf"},
    "comm.bandwidth_mbps=inf": {"comm.bandwidth_mbps": "inf"},
    "comm.full_model_bytes=inf": {"comm.full_model_bytes": "inf"},
    # "0 <= x < inf"
    "comm.overhead_bytes=inf": {"comm.overhead_bytes": "inf"},
    "dirichlet_alpha=nan": {"partition": "dirichlet", "dirichlet_alpha": "nan"},
    "pretrain.lr=nan": {
        "pretrain.epochs": "2",
        "pretrain.public_fraction": "0.25",
        "pretrain.lr": "nan",
    },
    # out of bounds: delta, an Adam decay rate and the public share lie below 1
    "privacy.delta=1": {"privacy.delta": "1"},
    "dp.adam_beta1=1": {"dp.optimizer": "adam", "dp.adam_beta1": "1"},
    "pretrain.public_fraction=1": {"pretrain.public_fraction": "1"},
    "rounds=-1": {"rounds": "-1"},  # and rounds at or above 0
    # values that do not parse as their type
    "comm.masked_broadcast=maybe": {"comm.masked_broadcast": "maybe"},
    "comm.full_model_bytes=lots": {"comm.full_model_bytes": "lots"},
    # data too small to learn from: one class, or one sample
    "dataset.classes=1": {"dataset.classes": "1"},
    "dataset.samples=1": {"dataset.samples": "1"},
}

# rejected while the raw values are mapped, not first when data is loaded or run
AT_RESOLVE = sorted(
    set(REJECTED)
    - {"dataset.classes", "dataset.test_fraction", "clients-over-rows"}  # when the data is loaded
    - {"clients-over-rows-with-target"}  # at the run's sigma solve
)

# a sweep refuses every case federated does, and a grid value the configuration
# refuses
SWEEP_REJECTED = dict(
    REJECTED,
    **{
        "sweep.epsilon=inf": {"sweep.epsilon": "inf"},
        "sweep.epsilon=nan": {"sweep.epsilon": "1.0,nan"},
        "sweep.clients=0,2": {"sweep.clients": "0,2"},
        "sweep.rounds=0-with-target": {"sweep.rounds": "1,0", **TARGET},
    },
)


def _values(case, tmp_path, table=REJECTED):
    return {k: v.format(tmp=tmp_path) for k, v in table[case].items()}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_before_the_run(case, tmp_path):
    with pytest.raises(ConfigError):
        resolved = resolve_raw(dict(BASE, **_values(case, tmp_path)))
        train, test = load_dataset(resolved)
        run_experiment(resolved.experiment, train, test)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_cli_rejects_without_a_run_directory(case, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in BASE.items()))
    sets = [arg for k, v in _values(case, tmp_path).items() for arg in ("--set", f"{k}={v}")]
    out = tmp_path / "out"
    assert main(["federated", "--config", str(cfg), *sets, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(SWEEP_REJECTED))
def test_cli_sweep_rejects_without_a_sweep_directory(case, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in BASE.items()))
    values = _values(case, tmp_path, SWEEP_REJECTED).items()
    sets = [arg for k, v in values for arg in ("--set", f"{k}={v}")]
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), *sets, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("case", AT_RESOLVE)
def test_resolve_raises_config_error(case, tmp_path):
    with pytest.raises(ConfigError):
        resolve_raw(dict(BASE, **_values(case, tmp_path)))


@pytest.mark.parametrize("flag", ["--sigma", "--target-epsilon"])
def test_accountant_rejects_a_nan_budget(flag, capsys):
    assert main(["accountant", "--q", "0.1", flag, "nan", "--epochs", "1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "epsilon=" not in captured.out


@pytest.mark.parametrize("flags", [["--sigma", "1", "--target-epsilon", "1"], []], ids=["both", "neither"])
def test_accountant_takes_exactly_one_of_sigma_and_a_target(flags, capsys):
    assert main(["accountant", "--q", "0.1", *flags, "--epochs", "1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error: give exactly one of --sigma or --target-epsilon" in captured.err
    assert captured.out == ""


def test_accountant_has_no_clip_norm_flag(capsys):
    with pytest.raises(SystemExit):
        main(["accountant", "--q", "0.1", "--sigma", "1", "--epochs", "1", "--clip-norm", "2"])
    assert "--clip-norm" in capsys.readouterr().err


# ---------------------------------------------------------------- one class per refusal

ROWS = ["%f,%f,%d" % (i * 0.1, -i * 0.2, i % 2) for i in range(40)]

# files numpy cannot parse: each names its file in the message
UNPARSABLE = {
    "header-row": ["x1,x2,label", *ROWS],
    "non-numeric-cell": [*ROWS[:5], "0.5,oops,1", *ROWS[5:]],
    "ragged-row": [*ROWS[:5], "0.5,1", *ROWS[5:]],
}

# mlp 2-4-2 over 30 training rows: eight shards at alpha 0.01 stay out of reach
DIRICHLET_OUT_OF_REACH = {
    "clients": "8",
    "dataset.samples": "30",
    "partition": "dirichlet",
    "dirichlet_alpha": "0.01",
}


def _file_source(tmp_path, rows):
    csv = tmp_path / "rows.csv"
    csv.write_text("\n".join(rows) + "\n")
    return csv, {"dataset.source": "file", "dataset.path": str(csv)}


def _cli(command, tmp_path, values):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in dict(BASE, **values).items()))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    return code, out


@pytest.mark.parametrize("case", sorted(UNPARSABLE))
def test_a_data_file_numpy_cannot_parse_is_a_config_error(case, tmp_path, capsys):
    csv, values = _file_source(tmp_path, UNPARSABLE[case])
    with pytest.raises(ConfigError, match=f"^{re.escape(str(csv))}: "):
        load_dataset(resolve_raw(dict(BASE, **values)))
    code, out = _cli("federated", tmp_path, values)
    assert code == EXIT_CONFIG
    assert f"configuration error: {csv}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n\n\n"], ids=["zero-byte", "newline-only"])
def test_an_empty_data_file_is_a_config_error_naming_it(text, tmp_path, capsys):
    csv, values = _file_source(tmp_path, [])
    csv.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" included
        with pytest.raises(ConfigError, match=f"^{re.escape(str(csv))}: holds no data rows$"):
            load_dataset(resolve_raw(dict(BASE, **values)))
        code, out = _cli("federated", tmp_path, values)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {csv}: holds no data rows\n"
    assert not out.exists()


@pytest.mark.parametrize("fraction", ["0", "1", "1.5", "nan"])
def test_a_test_fraction_outside_the_unit_interval_is_a_config_error(fraction):
    resolved = resolve_raw(dict(BASE, **{"dataset.test_fraction": fraction}))
    with pytest.raises(ConfigError, match="^test_fraction must lie in \\(0, 1\\)$"):
        load_dataset(resolved)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([str(i % 2) for i in range(40)], "need at least one feature column"),
        ([*ROWS, "nan,0,1"], "row 41"),
    ],
    ids=["one-column", "nan"],
)
def test_a_data_file_load_dataset_refuses_is_a_config_error(rows, message, tmp_path):
    _, values = _file_source(tmp_path, rows)
    with pytest.raises(ConfigError, match=message):
        load_dataset(resolve_raw(dict(BASE, **values)))


@pytest.mark.parametrize(
    "values, message",
    [
        ({"clients": "50", "dataset.samples": "40"}, "^cannot split 30 rows across 50 clients$"),
        (DIRICHLET_OUT_OF_REACH, "^could not produce 8 non-empty dirichlet shards in 200 draws$"),
    ],
    ids=["clients-over-rows", "dirichlet-out-of-reach"],
)
def test_a_split_the_data_cannot_give_is_refused_before_round_0(values, message, tmp_path, capsys):
    resolved = resolve_raw(dict(BASE, **values))
    train, test = load_dataset(resolved)
    with pytest.raises(ConfigError, match=message):
        run_experiment(resolved.experiment, train, test)
    for command in ("federated", "sweep"):
        code, out = _cli(command, tmp_path, values)
        assert code == EXIT_CONFIG, command
        assert "configuration error: " in capsys.readouterr().err
        assert not out.exists()


def test_a_shape_error_outside_a_round_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    def planted(*args):
        raise ShapeError("planted layout bug")

    monkeypatch.setattr(federation, "initial_params", planted)
    code, out = _cli("federated", tmp_path, {})
    assert code == EXIT_RUNTIME
    assert "runtime error: planted layout bug" in capsys.readouterr().err
    assert not out.exists()


def test_an_accountant_ratio_past_one_is_a_config_error(capsys):
    assert main(["accountant", "--q", "1.5", "--sigma", "1", "--epochs", "1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error: sampling_ratio must be in (0, 1], got 1.5" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------- budget

BUDGET = {
    "model.kind": "mlp",
    "model.input_dim": "2",
    "model.output_dim": "2",
    "model.hidden_dim": "4",
    "clients": "5",
    "rounds": "3",
    "batch_size": "8",
    "dataset.samples": "400",
    "dirichlet_alpha": "0.3",
    "privacy.target_epsilon": "1.0",
}


@pytest.mark.parametrize("participation", ["1.0", "0.6"])
@pytest.mark.parametrize("sampler", ["shuffle", "poisson"])
@pytest.mark.parametrize("partition", ["iid", "dirichlet"])
def test_target_epsilon_is_the_budget_spent(partition, sampler, participation):
    resolved = resolve_raw(
        dict(BUDGET, partition=partition, sampler=sampler, participation_fraction=participation)
    )
    train, test = load_dataset(resolved)
    result = run_experiment(resolved.experiment, train, test)
    assert result.error is None and len(result.records) == 3
    spent = result.records[-1].epsilon_to_date
    assert spent <= 1.0 * (1 + 1e-12)
    if participation == "1.0":
        assert math.isclose(spent, 1.0, rel_tol=1e-12)


def test_dirichlet_target_dump_round_trips(tmp_path, capsys):
    raw = dict(BUDGET, partition="dirichlet")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
    out = tmp_path / "out"
    assert main(["federated", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    dump = next(out.iterdir()) / RESOLVED_FILE
    again = parse_config(dump)
    assert again.dump() == dump.read_text()
    resolved = resolve_raw(raw)
    train, test = load_dataset(resolved)
    sigma = run_experiment(resolved.experiment, train, test).noise_multiplier
    assert sigma != resolved.experiment.dp.noise_multiplier  # the dump echoes the solved value
    assert again.values["dp.noise_multiplier"] == again.experiment.dp.noise_multiplier == sigma
    assert run_experiment(again.experiment, train, test).noise_multiplier == sigma


def test_writing_a_run_leaves_the_resolved_table_as_it_was_resolved(tmp_path):
    resolved = resolve_raw(dict(BUDGET, partition="dirichlet"))
    before = rendered_raw(resolved)
    train, test = load_dataset(resolved)
    result = run_experiment(resolved.experiment, train, test)
    resolved.write_run(result, tmp_path)
    assert rendered_raw(resolved) == before
    sigma = resolved.experiment.dp.noise_multiplier
    assert resolved.values["dp.noise_multiplier"] == sigma != result.noise_multiplier
    dumped = parse_config(tmp_path / RESOLVED_FILE)  # the dump still echoes the solved sigma
    assert dumped.values["dp.noise_multiplier"] == result.noise_multiplier
