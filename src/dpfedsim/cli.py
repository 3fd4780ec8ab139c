"""Command-line entry point.

Subcommands: centralized, federated, accountant, sweep, report.  Runs write
a resolved-config dump, the per-round table, and a summary into a
timestamped, seed-stamped directory under --out (or $DPFEDSIM_OUT, default
./runs).  Exit codes: 0 ok, 2 invalid configuration or arguments, 3 runtime
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from datetime import datetime
from pathlib import Path

from .accountant import PrivacyParams, compose_rounds, sigma_for_target
from .config import ResolvedConfig, load_dataset, parse_config
from .models import save_params
from .errors import ConfigError, DomainError, DpFedSimError, ShapeError
from .federation import run_experiment
from .sweep import render_report, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

OUTPUT_ROOT_ENV = "DPFEDSIM_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpfedsim",
        description="Deterministic simulator of private federated training "
        "with selective tuning and masked sparse aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--out", type=str, default=None, help="output root directory")
        p.add_argument("--seed", type=int, default=None, help="override seeds.global")

    add_run_flags(sub.add_parser("centralized", help="single-site private training"))
    add_run_flags(sub.add_parser("federated", help="multi-client federated training"))
    add_run_flags(sub.add_parser("sweep", help="grid over clients/rounds/epsilon"))

    acct = sub.add_parser("accountant", help="closed-form privacy cost arithmetic")
    acct.add_argument("--q", type=float, required=True, help="per-step sampling ratio")
    acct.add_argument("--sigma", type=float, default=None, help="noise multiplier")
    acct.add_argument(
        "--target-epsilon", type=float, default=None, help="solve for sigma instead"
    )
    acct.add_argument("--epochs", type=int, required=True, help="local epochs per round")
    acct.add_argument("--rounds", type=int, default=1)
    acct.add_argument("--delta", type=float, default=PrivacyParams.delta)

    rep = sub.add_parser("report", help="tabulate completed runs")
    rep.add_argument("--out", type=str, default=None, help="directory holding run outputs")
    return parser


def _output_root(arg: str | None) -> Path:
    if arg:
        return Path(arg)
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))


def _run_dir(root: Path, resolved: ResolvedConfig) -> Path:
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S")
    seed = resolved.experiment.seeds.global_seed
    base = root / f"{resolved.name}-{stamp}-seed{seed}"
    candidate, n = base, 1
    while candidate.exists():
        candidate = Path(f"{base}-{n}")
        n += 1
    return candidate


def _cmd_experiment(args: argparse.Namespace, centralized: bool) -> int:
    overrides = list(args.overrides)
    if centralized:
        overrides += ["clients=1", "participation_fraction=1.0"]
    resolved = parse_config(args.config, overrides, seed=args.seed)
    train, test = load_dataset(resolved)
    started = time.perf_counter()
    result = run_experiment(resolved.experiment, train, test)
    elapsed = time.perf_counter() - started
    # created only now, so a run rejected at start leaves no directory behind
    run_dir = _run_dir(_output_root(args.out), resolved)
    run_dir.mkdir(parents=True)
    summary = resolved.write_run(result, run_dir)
    save_params(result.final_params, run_dir / "model.npz")
    print(f"run dir: {run_dir}")
    for key, value in summary.items():
        print(f"{key}={value}")
    print(f"elapsed_s={elapsed:.3f}")
    if result.error:
        print(f"error={result.error}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_accountant(args: argparse.Namespace) -> int:
    if (args.sigma is None) == (args.target_epsilon is None):
        raise ConfigError("give exactly one of --sigma or --target-epsilon")
    total_epochs = args.rounds * args.epochs
    if args.target_epsilon is not None:
        sigma = sigma_for_target(args.q, total_epochs, args.delta, args.target_epsilon)
        print(f"resolved_sigma={sigma!r}")
    else:
        sigma = args.sigma
    report = compose_rounds(
        PrivacyParams(
            sampling_ratio=args.q,
            noise_multiplier=sigma,
            epochs=args.epochs,
            delta=args.delta,
        ),
        args.rounds,
    )
    print(f"epsilon={report.epsilon!r}")
    print(f"delta={report.delta!r}")
    print(f"rounds={report.rounds}")
    print(f"epochs_per_round={report.per_round_epochs}")
    print(f"total_epochs={total_epochs}")
    print(f"formula={report.formula}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    resolved = parse_config(args.config, list(args.overrides), seed=args.seed)
    out = _run_dir(_output_root(args.out), resolved)
    rows = run_sweep(resolved, out)
    print(f"sweep dir: {out}")
    for row in rows:
        accs = " ".join(f"{k}={v:.4f}" for k, v in row.accuracies.items())
        print(f"clients={row.clients} rounds={row.rounds} eps={row.epsilon} {accs} [{row.status}]")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    out = _output_root(args.out)
    print(render_report(out), end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "centralized":
            return _cmd_experiment(args, centralized=True)
        if args.command == "federated":
            return _cmd_experiment(args, centralized=False)
        if args.command == "accountant":
            return _cmd_accountant(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_report(args)
    except (ConfigError, DomainError, ShapeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DpFedSimError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
