"""dpfedsim benchmark: times run_experiment on one workload, from the repo root.

    python3 perfbench/run.py --workload head-wide --seed 1 --seconds 35 --trace 0

Starts fresh child processes (perfbench/child.py), one per run of the
workload, one after another, until --seconds have passed; numpy's BLAS is
pinned to one thread in each.  The first child always runs REFERENCE_SEED and
its outputs must match the digest in digests.json; every other child runs a
seed derived from --seed and must pass the invariant checks in child.py.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics of BENCHMARK.json (medians over the children).  With --trace 1,
untraced and traced children alternate on the same seeds, and the line holds
the per-layer metrics instead.  Provenance, per-child values and the span
files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 60
MIN_CHILDREN = 3

# numpy is imported with these set, so every kernel runs on one thread.
ONE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_seed(seed: int, index: int) -> int:
    """Seed of the index-th child of a run; the first one is REFERENCE_SEED."""
    if index == 0:
        return REFERENCE_SEED
    return (seed << 16) + index


def run_child(workload: str, seed: int, trace: bool, spans: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace"]
        if spans is not None:
            cmd += ["--spans", str(spans)]
    env = dict(os.environ, **ONE_THREAD)
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"seed": seed, "problems": [f"child timed out after {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    return {"seed": seed, "problems": [f"child exited {proc.returncode}: {proc.stderr[-2000:]}"]}


def git_rev() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(children: list[dict]) -> dict:
    first = next((c for c in children if "numpy" in c), {})
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "blas_threads": first.get("blas_threads"),
        "blas_env": ONE_THREAD,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "load": "closed loop: one child process at a time, clients trained in turn",
    }


def median(values: list[float]) -> float:
    if not values:
        raise SystemExit("no successful run to take a median over")
    return statistics.median(values)


def end_to_end(children: list[dict], failed: int) -> dict[str, float]:
    ok = [c for c in children if c["ok"]]
    return {
        "run_s": median([c["run_s"] for c in ok]),
        "examples_per_s": median([c["examples"] / c["run_s"] for c in ok]),
        "setup_s": median([c["setup_s"] for c in ok]),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in ok]),
        "ok_frac": (len(children) - failed) / len(children),
    }


def per_layer(children: list[dict], names: list[str]) -> dict[str, float]:
    traced = [c for c in children if c["ok"] and "layers" in c]
    plain = {c["seed"]: c["run_s"] for c in children if c["ok"] and "layers" not in c}
    pairs = [c["layers"]["trace.run_s"] / plain[c["seed"]] - 1.0 for c in traced if c["seed"] in plain]
    metrics = {"trace.overhead_frac": median(pairs)}
    for name in names:
        if name not in metrics:
            metrics[name] = median([c["layers"][name] for c in traced])
    return metrics


def print_shares(children: list[dict]) -> None:
    """Largest self-time shares of the first successful traced run, to stderr."""
    traced = next((c for c in children if c["ok"] and "layers" in c), None)
    if traced is None:
        return
    shares = traced["run_shares"]
    print(f"self-time shares of the traced run, seed {traced['seed']}:", file=sys.stderr)
    for layer in sorted(shares, key=shares.get, reverse=True)[:12]:
        print(f"  {shares[layer]:7.2%}  {layer}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dpfedsim" / "__init__.py").is_file():
        print(f"no dpfedsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "digests.json").read_text())[args.workload]
    OUT.mkdir(exist_ok=True)

    trace = bool(args.trace)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    children: list[dict] = []
    began = time.perf_counter()
    index = 0
    while index < MIN_CHILDREN or time.perf_counter() - began < args.seconds:
        seed = child_seed(args.seed, index)
        modes = (False, True) if trace else (False,)
        for traced in modes:
            spans = OUT / f"{stem}-child{index}.spans.json.gz" if traced else None
            children.append(run_child(args.workload, seed, traced, spans))
        index += 1

    failed = 0
    for child in children:
        problems = child.setdefault("problems", [])
        if child["seed"] == REFERENCE_SEED and "digest" in child and child["digest"] != expected:
            problems.append(f"digest {child['digest']} != recorded {expected}")
        child["ok"] = not problems
        failed += not child["ok"]
        for problem in problems:
            print(f"[seed {child['seed']}] {problem}", file=sys.stderr)

    if trace:
        listed = spec["per_layer"]
        values = per_layer(children, [m["name"] for m in listed])
        print_shares(children)
    else:
        listed = spec["end_to_end"]
        values = end_to_end(children, failed)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "reference_seed": REFERENCE_SEED,
        "reference_digest": expected,
        "provenance": provenance(children),
        "children": children,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(children),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
