"""Where configurations are rejected, and the privacy budget a target buys."""

import math

import pytest

from dpfedsim import ConfigError, DpFedSimError, parse_config, resolve_raw, run_experiment
from dpfedsim.cli import EXIT_CONFIG, EXIT_OK, main
from dpfedsim.config import RESOLVED_FILE, load_dataset

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
    # data the model cannot take: three classes under a two-way head, three
    # features into two inputs
    "dataset.classes": {"dataset.classes": "3"},
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
}

# rejected while the raw values are mapped, not first when data is loaded or run
AT_RESOLVE = sorted(
    set(REJECTED)
    - {"dataset.generator", "dataset.noise_std=nan", "dataset.test_fraction", "clients-over-rows"}
    - {"dataset.classes", "dataset.input_dim"}  # when the data is loaded
    - {"clients-over-rows-with-target"}  # at the run's sigma solve
)

# a sweep refuses every case federated does, and a grid value the configuration
# refuses; only the client shards, cut as a cell runs, find too many clients
SWEEP_REJECTED = dict(
    {case: values for case, values in REJECTED.items() if not case.startswith("clients-over-rows")},
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
    with pytest.raises(DpFedSimError):
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


def test_accountant_has_no_clip_norm_flag(capsys):
    with pytest.raises(SystemExit):
        main(["accountant", "--q", "0.1", "--sigma", "1", "--epochs", "1", "--clip-norm", "2"])
    assert "--clip-norm" in capsys.readouterr().err


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
