"""Config parsing/resolution, sweeps, the report, and CLI exit codes."""

import math

import numpy as np
import pytest

from dpfedsim import ConfigError, parse_config, resolve_raw, run_experiment, sigma_for_target
from dpfedsim import NumericError, sweep
from dpfedsim.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, main
from dpfedsim.comm import read_summary, render_rounds_table
from dpfedsim.config import load_dataset, rendered_raw
from dpfedsim.rng import STREAM_SWEEP, derive_seed
from dpfedsim.sweep import run_sweep, sweep_grid, with_overrides

MINIMAL = {
    "model.kind": "mlp",
    "model.input_dim": "2",
    "model.output_dim": "2",
    "model.hidden_dim": "4",
    "clients": "2",
    "rounds": "3",
}


def write_cfg(tmp_path, extra=(), base=MINIMAL):
    lines = [f"{k} = {v}" for k, v in base.items()]
    lines += list(extra)
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------- parsing


def test_minimal_config_gets_defaults(tmp_path):
    resolved = parse_config(write_cfg(tmp_path))
    assert resolved.experiment.clients == 2
    assert resolved.experiment.local_epochs == 1
    assert resolved.experiment.dp.clip_norm == 1.0
    assert resolved.experiment.delta == 1e-4
    assert "dataset.input_dim" not in resolved.values  # the data is as wide as the model
    dump = resolved.dump()
    assert dump.splitlines()[0].startswith("#")
    assert "batch_size = 32" in dump


def test_a_file_or_table_that_spells_dataset_input_dim_is_refused(tmp_path):
    # the key is gone: generated data is as wide as model.input_dim
    with pytest.raises(ConfigError, match="exp.cfg:7: unknown key 'dataset.input_dim'"):
        parse_config(write_cfg(tmp_path, extra=["dataset.input_dim = 2"]))
    with pytest.raises(ConfigError, match="^unknown key 'dataset.input_dim'$"):
        resolve_raw(dict(MINIMAL, **{"dataset.input_dim": "2"}))


def test_dump_round_trips_identically(tmp_path):
    resolved = parse_config(
        write_cfg(tmp_path, extra=["privacy.target_epsilon = 1.33", "local_epochs = 2"])
    )
    dump_path = tmp_path / "resolved.cfg"
    dump_path.write_text(resolved.dump())
    again = parse_config(dump_path)
    assert again.values == resolved.values
    assert again.experiment == resolved.experiment


def test_unknown_key_rejected(tmp_path):
    path = write_cfg(tmp_path, extra=["nonsense = 1"])
    with pytest.raises(ConfigError, match="nonsense"):
        parse_config(path)


def test_unknown_override_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown override"):
        parse_config(write_cfg(tmp_path), overrides=["typo_key=3"])


def test_validation_error_names_field(tmp_path):
    with pytest.raises(ConfigError, match="clients"):
        parse_config(write_cfg(tmp_path), overrides=["clients=0"])


def test_missing_required_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("clients = 2\nrounds = 1\n")
    with pytest.raises(ConfigError, match="model.kind"):
        parse_config(path)


def test_target_epsilon_resolves_sigma(tmp_path):
    resolved = parse_config(
        write_cfg(tmp_path, extra=["privacy.target_epsilon = 0.65", "local_epochs = 2", "batch_size = 8"])
    )
    result = run_experiment(resolved.experiment, *load_dataset(resolved))
    # 600 samples, 150 test, no public split, 2 clients -> shard 225, q = 8/225
    expected = sigma_for_target(8 / 225, 3 * 2, 1e-4, 0.65)
    assert result.noise_multiplier == pytest.approx(expected, rel=1e-15)
    assert resolved.experiment.target_epsilon == 0.65


def test_seed_flag_overrides_seed_family(tmp_path):
    resolved = parse_config(write_cfg(tmp_path), seed=42)
    assert resolved.experiment.seeds.global_seed == 42
    assert resolved.experiment.seeds.data_seed == 43
    assert resolved.experiment.seeds.noise_seed == 44


def test_mask_layers_parsing(tmp_path):
    resolved = parse_config(write_cfg(tmp_path, extra=["mask_layers = head.weight, head.bias"]))
    assert resolved.experiment.mask_layers == ("head.weight", "head.bias")
    full = parse_config(write_cfg(tmp_path))
    assert full.experiment.mask_layers == ()
    with pytest.raises(ConfigError, match="mask_layers"):
        parse_config(write_cfg(tmp_path), overrides=["mask_layers=head.typo"])


def test_file_dataset_source(tmp_path):
    csv = tmp_path / "rows.csv"
    rows = ["%f,%f,%d" % (i * 0.1, -i * 0.2, i % 2) for i in range(40)]
    csv.write_text("\n".join(rows) + "\n")
    path = write_cfg(
        tmp_path,
        extra=[
            "dataset.source = file",
            f"dataset.path = {csv}",
            "dataset.test_fraction = 0.25",
        ],
    )
    resolved = parse_config(path)
    train, test = load_dataset(resolved)
    assert train.size == 30 and test.size == 10


def nan_cell_cfg(tmp_path, extra=()):
    csv = tmp_path / "rows.csv"
    rows = ["%f,%f,%d" % (i * 0.1, -i * 0.2, i % 2) for i in range(40)]
    rows[3] = "nan,0.5,1"
    csv.write_text("\n".join(rows) + "\n")
    return write_cfg(tmp_path, ["dataset.source = file", f"dataset.path = {csv}", *extra])


def test_non_finite_data_file_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["federated", "--config", str(nan_cell_cfg(tmp_path)), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "row 4 holds a non-finite value" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="row 4"):
        load_dataset(parse_config(nan_cell_cfg(tmp_path, ["privacy.target_epsilon = 1.0"])))


@pytest.mark.parametrize(
    "rows, message",
    [
        (
            ["%f,%f,%s" % (i * 0.1, -i * 0.2, "0.5" if i == 3 else i % 2) for i in range(40)],
            "dataset: classification targets must be integer class indices",
        ),
        ([str(i % 2) for i in range(40)], "need at least one feature column plus the label column"),
    ],
    ids=["fractional-label", "one-column"],
)
def test_a_data_file_the_model_cannot_read_is_a_config_error(tmp_path, capsys, rows, message):
    csv = tmp_path / "rows.csv"
    csv.write_text("\n".join(rows) + "\n")
    cfg = write_cfg(tmp_path, ["dataset.source = file", f"dataset.path = {csv}"])
    out = tmp_path / "out"
    assert run_cli(["federated", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_target_epsilon_materializes_the_data_once(tmp_path, monkeypatch):
    from dpfedsim import config, federation

    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    spy(config, "make_dataset")
    spy(federation, "partition_data")
    parse_config(write_cfg(tmp_path))
    resolved = parse_config(write_cfg(tmp_path, extra=["privacy.target_epsilon = 0.65", "local_epochs = 2"]))
    assert calls == []  # resolution loads no data, with or without a target
    result = run_experiment(resolved.experiment, *load_dataset(resolved))
    assert calls == ["make_dataset", "partition_data"]
    assert math.isclose(result.records[-1].epsilon_to_date, 0.65, rel_tol=1e-12)
    assert not hasattr(resolved, "data")
    assert not hasattr(config, "client_shards") and not hasattr(config, "sigma_for_shards")


# ---------------------------------------------------------------- sweep


def test_sweep_grid_cartesian():
    resolved = resolve_raw(dict(MINIMAL, **{"sweep.clients": "2,5", "sweep.rounds": "1,2"}))
    grid = sweep_grid(resolved)
    assert len(grid) == 4
    assert grid[0] == (2, 1, 0.0)


def test_sweep_cell_seeds_distinct():
    seeds = {derive_seed(0, STREAM_SWEEP, cell, var) for cell in range(10) for var in range(4)}
    assert len(seeds) == 40


def test_single_cell_sweep_runs_all_variants(tmp_path):
    resolved = resolve_raw(
        dict(
            MINIMAL,
            **{
                "rounds": "1",
                "local_epochs": "1",
                "batch_size": "16",
                "dataset.samples": "80",
                "dp.noise_multiplier": "0.3",
            },
        )
    )
    rows = run_sweep(resolved, tmp_path / "sweep")
    assert len(rows) == 1
    row = rows[0]
    assert row.status == "ok"
    assert set(row.accuracies) == {"ft_fedavg", "sel_fedavg", "ft_fednova", "sel_fednova"}
    sweep_csv = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert len(sweep_csv) == 2
    assert (tmp_path / "sweep" / "cells").is_dir()


def test_sweep_continues_after_bad_cell(tmp_path, monkeypatch):
    # a cell the configuration refuses stops the whole sweep, so this bad
    # cell fails at run time
    real = sweep.run_experiment

    def diverging_at_three_clients(cfg, train, test):
        if cfg.clients == 3:
            raise NumericError("round 0: non-finite gradient in sample 0")
        return real(cfg, train, test)

    monkeypatch.setattr(sweep, "run_experiment", diverging_at_three_clients)
    resolved = resolve_raw(
        dict(
            MINIMAL,
            **{
                "dataset.samples": "40",
                "local_epochs": "1",
                "sweep.clients": "3,2",
                "rounds": "1",
            },
        )
    )
    rows = run_sweep(resolved, tmp_path / "sweep")
    assert len(rows) == 2
    assert rows[0].status.startswith("error")
    assert np.isnan(rows[0].accuracies["ft_fedavg"])
    assert rows[1].status == "ok"


def test_with_overrides_rebuilds(tmp_path):
    resolved = resolve_raw(MINIMAL)
    changed = with_overrides(resolved, ["clients=5", "rounds=7"])
    assert changed.experiment.clients == 5
    assert changed.experiment.rounds == 7
    assert rendered_raw(changed)["model.kind"] == "mlp"


def test_sweep_selective_beats_full_under_tight_budget(tmp_path):
    # warm-started spirals at epsilon=0.65: the selective columns should win
    resolved = resolve_raw(
        {
            "model.kind": "mlp",
            "model.input_dim": "2",
            "model.output_dim": "2",
            "model.hidden_dim": "32",
            "clients": "2",
            "rounds": "3",
            "local_epochs": "1",
            "batch_size": "16",
            "dp.learning_rate": "0.05",
            "privacy.target_epsilon": "0.65",
            "pretrain.epochs": "400",
            "pretrain.lr": "0.5",
            "pretrain.public_fraction": "0.5",
            "dataset.generator": "two-spirals",
            "dataset.samples": "640",
            "dataset.noise_std": "0.05",
        }
    )
    (row,) = run_sweep(resolved, tmp_path / "sweep")
    assert row.status == "ok"
    assert row.accuracies["sel_fedavg"] > row.accuracies["ft_fedavg"]
    # fednova shrinks every update by tau, so both arms hold the warm start;
    # selective stays near its fedavg twin rather than beating full outright
    assert abs(row.accuracies["sel_fednova"] - row.accuracies["sel_fedavg"]) <= 0.05


# ---------------------------------------------------------------- cli


def run_cli(args):
    return main(args)


def test_cli_federated_and_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra=["dataset.samples = 80", "local_epochs = 1"])
    out = tmp_path / "out"
    code = run_cli(["federated", "--config", str(cfg), "--out", str(out), "--seed", "3"])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "final_accuracy=" in printed
    run_dirs = list(out.iterdir())
    assert len(run_dirs) == 1
    assert (run_dirs[0] / "rounds.csv").is_file()
    assert (run_dirs[0] / "summary.txt").is_file()
    assert (run_dirs[0] / "resolved_config.txt").is_file()
    assert "seed3" in run_dirs[0].name

    code = run_cli(["report", "--out", str(out)])
    assert code == EXIT_OK
    table = capsys.readouterr().out
    assert "accuracy" in table and "traffic_ratio" in table


def test_cli_writes_final_model(tmp_path, capsys):
    from dpfedsim import load_params

    cfg = write_cfg(tmp_path, extra=["dataset.samples = 60", "local_epochs = 1"])
    out = tmp_path / "out"
    assert run_cli(["federated", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    run_dir = next(out.iterdir())
    params = load_params(run_dir / "model.npz")
    assert params.dim == 2 * 4 + 4 + 4 * 2 + 2


def test_cli_output_root_env_var(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(
        tmp_path, base=dict(MINIMAL, rounds="1"), extra=["dataset.samples = 60", "local_epochs = 1"]
    )
    root = tmp_path / "envroot"
    monkeypatch.setenv("DPFEDSIM_OUT", str(root))
    assert run_cli(["federated", "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    assert root.is_dir()
    assert any(d.name.startswith("run-") for d in root.iterdir())


def test_cli_centralized_forces_single_client(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra=["dataset.samples = 60", "local_epochs = 1"])
    out = tmp_path / "out"
    code = run_cli(["centralized", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    run_dir = next(out.iterdir())
    resolved = (run_dir / "resolved_config.txt").read_text()
    assert "clients = 1" in resolved


def test_cli_accountant_forward_and_inverse(capsys):
    code = run_cli(
        ["accountant", "--q", "0.01", "--sigma", "1.0", "--epochs", "5", "--rounds", "1"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    eps = float([l for l in out.splitlines() if l.startswith("epsilon=")][0].split("=")[1])
    assert eps == pytest.approx(0.0959705, abs=1e-6)
    code = run_cli(
        ["accountant", "--q", "0.1", "--target-epsilon", "1.33", "--epochs", "5", "--rounds", "1"]
    )
    out = capsys.readouterr().out
    sigma = float([l for l in out.splitlines() if l.startswith("resolved_sigma=")][0].split("=")[1])
    assert sigma == pytest.approx(0.7215828, abs=1e-6)
    assert code == EXIT_OK


def test_the_report_skips_a_run_without_its_resolved_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra=["dataset.samples = 60", "local_epochs = 1"])
    out = tmp_path / "out"
    assert run_cli(["federated", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    (run_dir,) = out.iterdir()
    orphan = out / "orphan"
    orphan.mkdir()
    (orphan / "summary.txt").write_bytes((run_dir / "summary.txt").read_bytes())
    capsys.readouterr()
    assert run_cli(["report", "--out", str(out)]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == [run_dir.name]
    assert run_cli(["report", "--out", str(orphan)]) == EXIT_IO  # no completed run left
    assert "no completed runs" in capsys.readouterr().err


def _edited_run(tmp_path, capsys, file, key, value):
    """A finished run's directory with the line of `key` in `file` set to `value`."""
    cfg = write_cfg(tmp_path, base=dict(MINIMAL, rounds="1"), extra=["dataset.samples = 60"])
    out = tmp_path / "out"
    assert run_cli(["federated", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    (run_dir,) = out.iterdir()
    path = run_dir / file
    lines = path.read_text().splitlines()
    (n,) = [i for i, line in enumerate(lines) if line.partition("=")[0].strip() == key]
    lines[n] = f"{key}={value}"
    path.write_text("\n".join(lines) + "\n")
    return out, path


@pytest.mark.parametrize(
    "file, key, value",
    [
        ("summary.txt", "final_accuracy", "oops"),
        ("summary.txt", "final_accuracy", ""),  # cut short by a killed run
        ("summary.txt", "bytes_up_per_client_round", "many"),
        ("resolved_config.txt", "comm.full_model_bytes", "lots"),
    ],
    ids=["word", "empty", "bytes-up", "dump"],
)
def test_the_report_names_a_value_it_cannot_read(tmp_path, capsys, file, key, value):
    out, path = _edited_run(tmp_path, capsys, file, key, value)
    assert run_cli(["report", "--out", str(out)]) == EXIT_IO
    captured = capsys.readouterr()
    assert f"i/o error: {path}: {key} = {value!r} is not a number" in captured.err
    assert captured.out == ""


def test_the_report_gives_a_nan_ratio_for_an_auto_model_size(tmp_path, capsys):
    out, _ = _edited_run(tmp_path, capsys, "resolved_config.txt", "comm.full_model_bytes", "auto")
    assert run_cli(["report", "--out", str(out)]) == EXIT_OK
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[-1] == "traffic_ratio" and row.split()[-1] == "nan"


def test_cli_exit_codes(tmp_path, capsys):
    assert run_cli(["federated", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    cfg = write_cfg(tmp_path)
    assert run_cli(["federated", "--config", str(cfg), "--set", "clients=0"]) == EXIT_CONFIG
    assert run_cli(["report", "--out", str(tmp_path / "empty")]) == EXIT_IO
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli(["report", "--out", str(empty)]) == EXIT_IO
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra, sets, message",
    [
        (["clients"], [], "exp.cfg:7: expected 'key = value', got 'clients'"),
        (["clients = 3"], [], "exp.cfg:7: duplicate key 'clients'"),
        ([], ["--set", "clients"], "override must look like key=value, got 'clients'"),
    ],
)
def test_cli_refuses_a_malformed_line_or_override(tmp_path, capsys, extra, sets, message):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, extra=extra)
    assert run_cli(["federated", "--config", str(cfg), *sets, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_adam_overflow_fails_loudly(tmp_path, capsys):
    # sigma = 1e200 overflows Adam's second moment to inf, which used to turn
    # every update into 0: training stalled while the run reported success
    cfg = write_cfg(tmp_path, ["dp.optimizer = adam", "dp.noise_multiplier = 1e200"])
    resolved = parse_config(cfg)
    train, test = load_dataset(resolved)
    with np.errstate(over="ignore"):
        result = run_experiment(resolved.experiment, train, test)
        code = run_cli(["federated", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert result.error is not None and "adam" in result.error
    assert code == EXIT_RUNTIME


@pytest.mark.parametrize(
    "extra,diverged_in",
    [
        # one step overflows the parameters themselves to inf
        (["dp.learning_rate = 1e308", "dp.noise_multiplier = 1000"], 0),
        # unclipped relu training at a huge step size blows up over rounds
        (
            [
                "model.activation = relu",
                "dp.learning_rate = 1e8",
                "dp.clip_norm = 1e300",
                "dp.noise_multiplier = 0",
            ],
            2,
        ),
    ],
    ids=["overflowing-step", "growing-over-rounds"],
)
def test_sgd_divergence_fails_loudly(tmp_path, capsys, extra, diverged_in):
    cfg = write_cfg(tmp_path, ["dp.optimizer = sgd", *extra], base=dict(MINIMAL, rounds="6"))
    resolved = parse_config(cfg)
    train, test = load_dataset(resolved)
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_experiment(resolved.experiment, train, test)
        code = run_cli(["federated", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert result.error is not None and result.error.startswith(f"round {diverged_in}: ")
    assert len(result.records) == diverged_in < resolved.experiment.rounds
    assert code == EXIT_RUNTIME


@pytest.mark.parametrize("aggregation", ["fednova", "fedavg"])
def test_an_error_inside_a_round_exits_3_with_its_run_directory(tmp_path, capsys, aggregation):
    # client 7 holds 2 rows and draws no poisson batch of 1 in round 0: fednova
    # refuses its tau = 0, fedavg takes its empty update
    extra = ["batch_size = 1", "dataset.samples = 28", "sampler = poisson", f"aggregation = {aggregation}"]
    cfg = write_cfg(tmp_path, extra, base=dict(MINIMAL, clients="10"))
    out = tmp_path / "out"
    code = run_cli(["federated", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    (run_dir,) = out.iterdir()
    if aggregation == "fedavg":
        assert code == EXIT_OK and "error=" not in err
        return
    assert code == EXIT_RUNTIME
    assert "error=round 0: client 7 reports tau = 0 < 1" in err
    assert (run_dir / "rounds.csv").read_text() == render_rounds_table([])  # the header alone
    assert read_summary(run_dir / "summary.txt")["rounds"] == "0"


def test_cli_sweep(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        base=dict(MINIMAL, rounds="1"),
        extra=[
            "dataset.samples = 60",
            "local_epochs = 1",
            "sweep.clients = 2",
            "sweep.rounds = 1,2",
        ],
    )
    out = tmp_path / "sweepout"
    code = run_cli(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.count("clients=2") == 2
    sweep_dir = next(out.iterdir())
    assert (sweep_dir / "sweep.csv").is_file()


def test_runs_started_in_the_same_second_get_their_own_directories(tmp_path, capsys, monkeypatch):
    from datetime import datetime

    from dpfedsim import cli

    class SameSecond:
        @staticmethod
        def now():
            return datetime(2026, 1, 2, 3, 4, 5)

    monkeypatch.setattr(cli, "datetime", SameSecond)
    cfg = write_cfg(tmp_path, base=dict(MINIMAL, rounds="1"), extra=["dataset.samples = 60"])
    out = tmp_path / "out"
    for _ in range(3):
        assert run_cli(["federated", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    base = "run-20260102-030405-seed0"
    assert sorted(p.name for p in out.iterdir()) == [base, f"{base}-1", f"{base}-2"]
