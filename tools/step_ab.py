"""In-process B/A timing of two checkouts of dpfedsim on one benchmark workload.

    python tools/step_ab.py --a PARENT_CHECKOUT --b CHANGED_CHECKOUT \
        [--workload head-wide] [--stage run_local] [--blocks 40]

Loads each checkout's src/dpfedsim into this one process under its own
package name (dpfedsim_a, dpfedsim_b), and builds the workload from this
repository's perfbench/workloads.py at its reference seed; the file is
imported, never edited.  Before any timing both sides run the stage once and
must give identical bytes:

- run_local: every client's round-0 update (indices, deltas, tau, n_k) from
  the run's own shards, sampler plans, initial parameters and mask;
- run_experiment: the rendered round table and the final parameters, as
  perfbench/digests.json pins them.

It then times the stage alone (set-up excluded) in --blocks blocks, each
running A and B once, A first in even blocks and B first in odd ones, and
prints one JSON line: the bytes flag and the median and quartiles of the
per-block B/A time ratios (statistics.quantiles, inclusive).  When the bytes
differ it times nothing, prints null ratios and exits 1.  numpy's BLAS is
pinned to one thread, as perfbench/run.py pins it.  Giving one checkout for
both sides makes an A/A, which should read a median near 1.

Uses the standard library and numpy alone; nothing in src/ imports it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

# numpy is first imported with a checkout, after these are set
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("run_local", "run_experiment")


def load_module(name: str, path: Path, package_dir: Path | None = None):
    """Import the file at path as module `name`; a package when package_dir is given."""
    locations = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_checkout(name: str, checkout: Path):
    """The checkout's src/dpfedsim, imported as package `name`."""
    package = checkout / "src" / "dpfedsim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no src/dpfedsim package under {checkout}")
    return load_module(name, package / "__init__.py", package)


def prepare(pkg, raw: dict[str, str], stage: str):
    """(run, digest): run() executes the stage once on prepared inputs, and
    digest(output) is the sha256 of what it produced."""
    config, federation = pkg.config, pkg.federation
    resolved = config.resolve_raw(raw)
    train, test = config.load_dataset(resolved)
    cfg = resolved.experiment
    if stage == "run_experiment":
        def digest(result) -> str:
            table = pkg.comm.render_rounds_table(result.records)
            return hashlib.sha256(table.encode() + result.final_params.values.tobytes()).hexdigest()

        return (lambda: federation.run_experiment(cfg, train, test)), digest
    public, shards = federation.client_shards(cfg, train)
    plans = [pkg.SamplerPlan(cfg.sampler_mode, min(cfg.batch_size, s.n_k), s.n_k, s.rng_seed) for s in shards]
    w = federation.initial_params(cfg, public)
    mask = pkg.make_mask(pkg.layer_layout(cfg.model), cfg.resolved_mask_layers())

    def run():
        return [
            federation.run_local(cfg.model, shard, w, mask, cfg.dp, plan, cfg.local_epochs, 0)
            for shard, plan in zip(shards, plans)
        ]

    def digest(updates) -> str:
        h = hashlib.sha256()
        for u in updates:
            h.update(u.indices.tobytes() + u.deltas.tobytes() + f"{u.tau},{u.n_k};".encode())
        return h.hexdigest()

    return run, digest


def timed(run) -> float:
    gc.collect()
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    workloads = load_module("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="checkout timed as A (the baseline)")
    parser.add_argument("--b", type=Path, required=True, help="checkout timed as B")
    parser.add_argument("--workload", default="head-wide", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--stage", default="run_local", choices=STAGES)
    parser.add_argument("--blocks", type=int, default=40, help="A/B blocks to time (>= 2)")
    args = parser.parse_args(argv)
    if args.blocks < 2:
        parser.error("--blocks must be >= 2")
    raw = workloads.seeded(workloads.WORKLOADS[args.workload], workloads.REFERENCE_SEED)
    sides = []
    for name, checkout in (("dpfedsim_a", args.a), ("dpfedsim_b", args.b)):
        run, digest = prepare(load_checkout(name, checkout.resolve()), raw, args.stage)
        sides.append((run, digest(run())))
    (run_a, digest_a), (run_b, digest_b) = sides
    line = {"workload": args.workload, "stage": args.stage, "blocks": args.blocks}
    line["same_bytes"] = digest_a == digest_b
    if not line["same_bytes"]:
        print(json.dumps(dict(line, median=None, q1=None, q3=None)))
        return 1
    ratios = []
    for block in range(args.blocks):
        if block % 2 == 0:
            t_a, t_b = timed(run_a), timed(run_b)
        else:
            t_b, t_a = timed(run_b), timed(run_a)
        ratios.append(t_b / t_a)
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    print(json.dumps(dict(line, median=median, q1=q1, q3=q3)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
