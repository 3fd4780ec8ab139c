"""Config sweeps over (clients, rounds, epsilon) and the comparison report.

Each sweep cell runs four variants: full vs selective tuning crossed with
fedavg vs fednova aggregation.  Each variant of each cell overrides only
seeds.global, with its own derived seed, which draws client selection,
initialisation and pretraining.  Every cell keeps the base configuration's
resolved seeds.data, seeds.noise and dataset.seed, so all cells train on the
same dataset, public split and partition, with the same batch shuffles and
DP noise; the dataset is loaded once per sweep.  A refused grid value stops
the sweep before it starts; a cell that fails at run time is an error row.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .comm import MB, SUMMARY_FILE, read_summary
from .config import RESOLVED_FILE, ResolvedConfig, load_dataset, rendered_raw, resolve_raw
from .errors import ConfigError, DpFedSimError
from .federation import run_experiment
from .models import layer_layout, layer_spans
from .rng import STREAM_SWEEP, derive_seed

SWEEP_FILE = "sweep.csv"
_VARIANTS = (
    ("ft_fedavg", "all", "fedavg"),
    ("sel_fedavg", "head", "fedavg"),
    ("ft_fednova", "all", "fednova"),
    ("sel_fednova", "head", "fednova"),
)
_REPORT_COLUMNS = (
    "run", "accuracy", "epsilon", "traffic_mb", "delay_s", "runtime_s", "traffic_ratio"
)


@dataclass
class SweepRow:
    clients: int
    rounds: int
    epsilon: float
    accuracies: dict[str, float]  # nan for a variant that did not run
    status: str = "ok"


def _head_layers(resolved: ResolvedConfig) -> str:
    names = layer_spans(layer_layout(resolved.experiment.model))
    return ",".join(name for name in names if name.startswith("head."))


def _grid_values(resolved: ResolvedConfig, key: str, cast) -> list:
    parts = resolved.values[key].split(",")
    try:
        values = [cast(part.strip()) for part in parts if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    for i, value in enumerate(values):
        if value in values[:i]:  # its cells would run into one set of directories
            raise ConfigError(f"{key}: {value!r} is repeated")
    return values


def sweep_grid(resolved: ResolvedConfig) -> list[tuple[int, int, float]]:
    """Cartesian grid from the sweep.* keys, falling back to the base values."""
    clients = _grid_values(resolved, "sweep.clients", int) or [resolved.experiment.clients]
    rounds = _grid_values(resolved, "sweep.rounds", int) or [resolved.experiment.rounds]
    base_eps = resolved.values["privacy.target_epsilon"]
    epsilons = _grid_values(resolved, "sweep.epsilon", float) or [base_eps]
    return [(k, t, e) for k in clients for t in rounds for e in epsilons]


def run_sweep(resolved: ResolvedConfig, out_dir: str | Path) -> list[SweepRow]:
    """Run the grid and persist one summary row per cell plus per-run outputs."""
    import csv  # at module level it would slow every `import dpfedsim`

    grid = sweep_grid(resolved)
    cells = []  # every cell is resolved before any data is loaded or directory made
    for clients, rounds, epsilon in grid:
        overrides = [f"clients={clients}", f"rounds={rounds}", f"privacy.target_epsilon={epsilon!r}"]
        try:
            cells.append(with_overrides(resolved, overrides))
        except ConfigError as exc:
            where = f"sweep.clients={clients} sweep.rounds={rounds} sweep.epsilon={epsilon!r}"
            raise ConfigError(f"sweep cell {where}: {exc}") from exc
    train, test = load_dataset(resolved)  # no cell overrides a dataset key
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    head = _head_layers(resolved)
    # cells that differ only in epsilon need their own directories
    several_eps = len({epsilon for _, _, epsilon in grid}) > 1
    rows: list[SweepRow] = []
    for cell_no, ((clients, rounds, epsilon), base) in enumerate(zip(grid, cells)):
        cell_name = f"{resolved.name}-c{clients}-r{rounds}"
        if several_eps:
            cell_name += f"-e{epsilon!r}"
        row = SweepRow(clients, rounds, epsilon, {})
        for variant_no, (label, mask, agg) in enumerate(_VARIANTS):
            cell_seed = derive_seed(
                resolved.experiment.seeds.global_seed, STREAM_SWEEP, cell_no, variant_no
            )
            overrides = [
                f"name={cell_name}-{label}",
                f"mask_layers={head if mask == 'head' else 'all'}",
                f"aggregation={agg}",
                f"seeds.global={cell_seed}",
            ]
            try:
                cell = with_overrides(base, overrides)
                result = run_experiment(cell.experiment, train, test)
                cell.write_run(result, out / "cells" / str(cell.name))
                error = result.error
            except DpFedSimError as exc:
                error = str(exc)
            if error is None:
                row.accuracies[label] = result.records[-1].global_accuracy if result.records else 0.0
            else:
                row.status = f"error: {error}"
                row.accuracies[label] = float("nan")
        rows.append(row)
    labels = [label for label, _, _ in _VARIANTS]
    with open(out / SWEEP_FILE, "w", newline="") as fh:
        # quotes only a field holding a comma, quote or newline: an error status
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["clients", "rounds", "epsilon", *labels, "status"])
        for row in rows:
            accuracies = [repr(row.accuracies[label]) for label in labels]
            writer.writerow([row.clients, row.rounds, repr(row.epsilon), *accuracies, row.status])
    return rows


def with_overrides(resolved: ResolvedConfig, overrides: list[str]) -> ResolvedConfig:
    """Re-resolve a configuration with extra key=value overrides applied."""
    return resolve_raw(rendered_raw(resolved), overrides)


def render_report(output_dir: str | Path) -> str:
    """Tabulate every completed run found under output_dir.

    A run is any directory holding a summary and a resolved config; rows are
    ordered by run name so the report is deterministic.
    """
    out = Path(output_dir)
    if not out.is_dir():
        raise FileNotFoundError(f"report directory not found: {out}")
    table = [_REPORT_COLUMNS]
    for summary_path in sorted(out.rglob(SUMMARY_FILE)):
        run_dir = summary_path.parent
        config_path = run_dir / RESOLVED_FILE
        if not config_path.is_file():
            continue
        summary = read_summary(summary_path)
        config = read_summary(config_path)
        full_bytes = config.get("comm.full_model_bytes", "auto")
        bytes_up = float(summary.get("bytes_up_per_client_round", "0"))
        if full_bytes != "auto" and float(full_bytes) > 0:
            ratio = bytes_up / float(full_bytes)
        else:
            ratio = float("nan")
        table.append(
            (
                run_dir.name,
                f"{float(summary.get('final_accuracy', 'nan')):.4f}",
                f"{float(summary.get('final_epsilon', 'nan')):.4f}",
                f"{bytes_up / MB:.4f}",
                f"{float(summary.get('total_delay_s', 'nan')):.4f}",
                f"{float(summary.get('total_wall_s', 'nan')):.4f}",
                f"{ratio:.6f}",
            )
        )
    if len(table) == 1:
        raise FileNotFoundError(
            f"no completed runs under {out}: expected <run>/{SUMMARY_FILE} and <run>/{RESOLVED_FILE}"
        )
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in table]
    return "\n".join(lines) + "\n"
