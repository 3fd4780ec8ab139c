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
  perfbench/digests.json pins them;
- private_step: every private step the first client takes in round 0, at
  the parameters, batch and noise key run_local gave it, in one workspace;
  each step draws its own noise, as a step run_local hands no normals does;
- clip_per_sample: the per-sample matrices of those steps, each clipped at
  the workload's dp.clip_norm and again at half the smallest non-zero row
  norm among them, so that every non-zero row is scaled and both sides of
  the clip's copy-then-scale cut-off run; one workspace.

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

# numpy reads these when it is first imported, on the line below them
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
import numpy as np

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("run_local", "run_experiment", "private_step", "clip_per_sample")


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
    """run(visit=None) executes the stage once on prepared inputs and, given
    visit, hands it each output (bytes or an array) before anything
    overwrites it."""
    config, federation = pkg.config, pkg.federation
    resolved = config.resolve_raw(raw)
    train, test = config.load_dataset(resolved)
    cfg = resolved.experiment
    if stage == "run_experiment":
        def run(visit=None):
            result = federation.run_experiment(cfg, train, test)
            if visit is not None:
                visit(pkg.comm.render_rounds_table(result.records).encode())
                visit(result.final_params.values)

        return run
    public, shards = federation.client_shards(cfg, train)
    plans = [pkg.SamplerPlan(cfg.sampler_mode, min(cfg.batch_size, s.n_k), s.n_k, s.rng_seed) for s in shards]
    w = federation.initial_params(cfg, public)
    mask = pkg.make_mask(pkg.layer_layout(cfg.model), cfg.resolved_mask_layers())
    if stage == "run_local":
        def run(visit=None):
            updates = [
                federation.run_local(cfg.model, shard, w, mask, cfg.dp, plan, cfg.local_epochs, 0)
                for shard, plan in zip(shards, plans)
            ]
            if visit is not None:
                for u in updates:
                    visit(u.indices)
                    visit(u.deltas)
                    visit(f"{u.tau},{u.n_k};".encode())

        return run
    steps, grads = first_client_steps(pkg, cfg, shards[0], plans[0], w, mask)
    dpsgd = pkg.dpsgd
    if stage == "private_step":
        def run(visit=None):
            work: dict = {}
            for params, batch, key in steps:
                out = dpsgd.private_step(cfg.model, params, batch, mask, cfg.dp, key, work)
                if visit is not None:
                    visit(out)

        return run
    row_norms = np.concatenate([np.linalg.norm(g, axis=1) for g in grads])
    clip_norms = (cfg.dp.clip_norm, 0.5 * row_norms[row_norms > 0].min())

    def run(visit=None):
        work: dict = {}
        for g in grads:
            for clip_norm in clip_norms:
                out = dpsgd.clip_per_sample(g, clip_norm, work=work)
                if visit is not None:
                    visit(out)

    return run


def first_client_steps(pkg, cfg, shard, plan, w, mask):
    """(steps, grads) of shard's round-0 run_local: each private step's
    (parameters, batch, noise key), and a copy of each per-sample matrix it
    clipped, in its layout."""
    federation, dpsgd = pkg.federation, pkg.dpsgd
    real_step, real_clip = federation.private_step, dpsgd.clip_per_sample
    steps, grads = [], []

    def step(spec, params, batch, mask, dp, noise_seed, work, **kwargs):
        steps.append((params.copy(), batch, noise_seed))
        return real_step(spec, params, batch, mask, dp, noise_seed, work, **kwargs)

    def clip(g, clip_norm, work=None):
        grads.append(g.copy(order="K"))
        return real_clip(g, clip_norm, work=work)

    federation.private_step, dpsgd.clip_per_sample = step, clip
    try:
        federation.run_local(cfg.model, shard, w, mask, cfg.dp, plan, cfg.local_epochs, 0)
    finally:
        federation.private_step, dpsgd.clip_per_sample = real_step, real_clip
    return steps, grads


def digest(run) -> str:
    """sha256 of everything one run of the stage hands its visitor."""
    h = hashlib.sha256()
    run(lambda out: h.update(out if isinstance(out, bytes) else out.tobytes()))
    return h.hexdigest()


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
        run = prepare(load_checkout(name, checkout.resolve()), raw, args.stage)
        sides.append((run, digest(run)))
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
