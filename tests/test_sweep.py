"""Sweep cells' seeds, data and directories, and sweeps rejected before they start."""

import csv
import hashlib

import pytest

from dpfedsim import ExperimentResult, NumericError, config, init_params, resolve_raw, sigma_for_target
from dpfedsim import sweep
from dpfedsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from dpfedsim.comm import read_summary
from dpfedsim.federation import Seeds
from dpfedsim.sweep import render_report, run_sweep, with_overrides

MINIMAL = {
    "model.kind": "mlp",
    "model.input_dim": "2",
    "model.output_dim": "2",
    "model.hidden_dim": "4",
    "clients": "2",
    "rounds": "1",
    "dataset.samples": "40",
}


def test_sweep_cells_share_data_and_noise_seeds(tmp_path):
    # a cell overrides only seeds.global: selection and init differ per cell,
    # while the split, the shuffles and the DP noise stay the base run's
    resolved = resolve_raw(MINIMAL)
    for cell_seed in (111, 222):
        cell = with_overrides(resolved, [f"seeds.global={cell_seed}"])
        assert cell.experiment.seeds == Seeds(cell_seed, 1, 2)
        assert cell.values["dataset.seed"] == 1
    run_sweep(resolved, tmp_path / "sweep")
    dumps = [read_summary(p) for p in sorted((tmp_path / "sweep").rglob("resolved_config.txt"))]
    assert len(dumps) == 4
    assert len({d["seeds.global"] for d in dumps}) == 4
    assert {(d["seeds.data"], d["seeds.noise"], d["dataset.seed"]) for d in dumps} == {("1", "2", "1")}


@pytest.mark.parametrize("key,value", [("sweep.clients", "2,two"), ("sweep.epsilon", "1.0,x")])
def test_cli_sweep_rejects_a_bad_grid_value(tmp_path, capsys, key, value):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in MINIMAL.items()) + f"{key} = {value}\n")
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert key in err and repr(value.split(",")[1]) in err


def test_cli_sweep_rejects_a_negative_epsilon(tmp_path, capsys):
    # only 0 means "no target"; a negative budget used to run every cell on
    # the base noise multiplier and report the negative value in sweep.csv
    cfg = tmp_path / "exp.cfg"
    lines = [f"{k} = {v}\n" for k, v in MINIMAL.items()] + ["sweep.epsilon = 1.0,-1\n"]
    cfg.write_text("".join(lines))
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "sweep.epsilon" in err and "-1.0" in err


def test_sweep_epsilon_zero_still_means_no_target(tmp_path):
    resolved = resolve_raw(dict(MINIMAL, **{"sweep.epsilon": "0"}))
    (row,) = run_sweep(resolved, tmp_path / "sweep")
    assert row.epsilon == 0.0 and row.status == "ok"
    dumps = [read_summary(p) for p in sorted((tmp_path / "sweep").rglob("resolved_config.txt"))]
    assert len(dumps) == 4
    assert all(float(d["privacy.target_epsilon"]) == 0.0 for d in dumps)


def test_a_zero_epsilon_cell_runs_without_the_base_target(tmp_path):
    # a 0 in sweep.epsilon used to leave the base target in force: its cells
    # solved sigma for 1.0 while sweep.csv read 0.0
    raw = dict(MINIMAL, **{"privacy.target_epsilon": "1.0", "sweep.epsilon": "0,2"})
    resolved = resolve_raw(raw)
    rows = run_sweep(resolved, tmp_path / "sweep")
    assert [(row.epsilon, row.status) for row in rows] == [(0.0, "ok"), (2.0, "ok")]
    cells = sorted((tmp_path / "sweep" / "cells").glob("*-e0.0-*"))
    assert len(cells) == 4
    for cell in cells:
        dump = read_summary(cell / "resolved_config.txt")
        assert dump["privacy.target_epsilon"] == "0.0"
        assert float(dump["dp.noise_multiplier"]) == resolved.experiment.dp.noise_multiplier == 1.0


def test_sweep_loads_its_data_once(tmp_path, monkeypatch):
    calls = []
    real = config.make_dataset
    monkeypatch.setattr(config, "make_dataset", lambda spec: calls.append(spec) or real(spec))
    resolved = resolve_raw(dict(MINIMAL, **{"sweep.clients": "2,3", "sweep.epsilon": "0.65"}))
    rows = run_sweep(resolved, tmp_path / "sweep")
    assert [row.status for row in rows] == ["ok", "ok"]
    assert len(calls) == 1
    # every cell's dump echoes the sigma its run solved: 30 training rows,
    # shards of 15 and 10 under a batch of 32, so q = 1 over one epoch
    dumps = [read_summary(p) for p in sorted((tmp_path / "sweep").rglob("resolved_config.txt"))]
    assert len(dumps) == 8
    assert {float(d["dp.noise_multiplier"]) for d in dumps} == {sigma_for_target(1.0, 1, 1e-4, 0.65)}


def test_cli_sweep_with_unloadable_data_leaves_no_directory(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    rows = ["%f,%f,%d" % (i * 0.1, -i * 0.2, i % 2) for i in range(40)]
    rows[3] = "nan,0.5,1"
    csv.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "exp.cfg"
    lines = [f"{k} = {v}\n" for k, v in MINIMAL.items()]
    cfg.write_text("".join(lines) + f"dataset.source = file\ndataset.path = {csv}\n")
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "row 4" in capsys.readouterr().err


def _tree_digest(root):
    """sha256 over every file's relative path and bytes, in path order."""
    files = sorted(p for p in root.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return len(files), h.hexdigest()


def test_a_sweep_with_one_epsilon_keeps_its_cell_names_and_bytes(tmp_path):
    # pinned before epsilon joined the cell names of multi-epsilon sweeps
    resolved = resolve_raw(dict(MINIMAL, **{"sweep.clients": "2,3", "sweep.epsilon": "0.65"}))
    run_sweep(resolved, tmp_path / "sweep")
    assert sorted(p.name for p in (tmp_path / "sweep" / "cells").iterdir())[:2] == [
        "run-c2-r1-ft_fedavg",
        "run-c2-r1-ft_fednova",
    ]
    assert _tree_digest(tmp_path / "sweep") == (
        25,
        "4698b639bcc9630596d54aaee880a66477eff21d4cfb1e664ee02fa9f0215009",
    )


def test_cells_differing_only_in_epsilon_get_their_own_directories(tmp_path):
    # one directory per (clients, epsilon) cell used to be shared by both
    # epsilons, the later run overwriting the earlier: 25 files, not 49
    resolved = resolve_raw(dict(MINIMAL, **{"sweep.clients": "2,3", "sweep.epsilon": "0.65,1.0"}))
    run_sweep(resolved, tmp_path / "sweep")
    cells = sorted((tmp_path / "sweep" / "cells").iterdir())
    assert len(cells) == 16
    assert _tree_digest(tmp_path / "sweep")[0] == 49
    for cell in cells:
        epsilon = cell.name.split("-")[3]
        assert epsilon in ("e0.65", "e1.0")
        dump = read_summary(cell / "resolved_config.txt")
        assert float(dump["privacy.target_epsilon"]) == float(epsilon[1:])


@pytest.mark.parametrize(
    "key,value,shown",
    [("sweep.clients", "2,2", "2"), ("sweep.rounds", "1,2,1", "1"), ("sweep.epsilon", "1,1.0", "1.0")],
)
def test_cli_sweep_rejects_a_repeated_grid_value(tmp_path, capsys, key, value, shown):
    # a repeated value ran two cells into one set of directories: the second
    # overwrote the first, leaving two sweep.csv rows over four cell directories
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in MINIMAL.items()) + f"{key} = {value}\n")
    out = tmp_path / "sweepout"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert key in err and f"{shown} is repeated" in err


def test_the_report_over_a_two_epsilon_sweep_keeps_its_text(tmp_path):
    # pinned before the report named its columns once
    resolved = resolve_raw(dict(MINIMAL, **{"sweep.clients": "2,3", "sweep.epsilon": "0.65,1.0"}))
    run_sweep(resolved, tmp_path / "sweep")
    text = render_report(tmp_path / "sweep")
    assert text.splitlines()[0].split() == [
        "run", "accuracy", "epsilon", "traffic_mb", "delay_s", "runtime_s", "traffic_ratio"
    ]
    assert len(text.splitlines()) == 17
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "425d2783061041b3c1da009466644f446003f7fc4629cbc121948fa255e082af"
    )


def test_a_status_holding_commas_stays_one_csv_field(tmp_path, monkeypatch):
    # every variant fails with a message that holds a comma; written
    # unquoted, the row read back as 10 fields under 8
    def raising(cfg, train, test):
        raise NumericError("round 0: rows [0, 2] diverged")

    monkeypatch.setattr(sweep, "run_experiment", raising)
    resolved = resolve_raw(dict(MINIMAL, **{"sweep.clients": "2,3"}))
    rows = run_sweep(resolved, tmp_path / "sweep")
    assert all("," in row.status for row in rows)
    with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert [len(fields) for fields in table] == [8, 8, 8]
    assert [fields[-1] for fields in table] == ["status"] + [row.status for row in rows]
    assert table[1][:7] == ["2", "1", "0.0", "nan", "nan", "nan", "nan"]


def test_a_failed_variant_writes_one_row_whether_its_run_returns_or_raises(tmp_path, monkeypatch):
    def returning(cfg, train, test):
        return ExperimentResult([], init_params(cfg.model, 0), cfg.dp.noise_multiplier, "round 0: boom")

    def raising(cfg, train, test):
        raise NumericError("round 0: boom")

    resolved = resolve_raw(MINIMAL)
    tables = []
    for name, run in (("returned", returning), ("raised", raising)):
        monkeypatch.setattr(sweep, "run_experiment", run)
        rows = run_sweep(resolved, tmp_path / name)
        assert [row.status for row in rows] == ["error: round 0: boom"]
        tables.append((tmp_path / name / "sweep.csv").read_text())
    assert tables[0] == tables[1]
    assert tables[0].splitlines()[1] == "2,1,0.0,nan,nan,nan,nan,error: round 0: boom"


@pytest.mark.parametrize("failing", [4, 2])
def test_a_sweep_where_no_variant_ran_exits_3(tmp_path, capsys, monkeypatch, failing):
    # every variant raising writes sweep.csv and exits 3; a sweep where some
    # variants ran exits 0, and both print how many variants failed
    calls = []
    real = sweep.run_experiment

    def sometimes_raising(cfg, train, test):
        calls.append(cfg.mask_layers)
        if failing == 4 or len(calls) % 2 == 0:  # all, or the two selective variants
            raise NumericError("round 0: boom")
        return real(cfg, train, test)

    monkeypatch.setattr(sweep, "run_experiment", sometimes_raising)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in MINIMAL.items()))
    out = tmp_path / "sweepout"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert len(calls) == 4
    assert code == (EXIT_RUNTIME if failing == 4 else EXIT_OK)
    assert f"failed variants: {failing} of 4" in capsys.readouterr().err
    (table,) = out.glob("*/sweep.csv")
    (row,) = table.read_text().splitlines()[1:]
    assert row.count("nan") == failing and row.endswith("error: round 0: boom")
