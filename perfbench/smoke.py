"""Smoke test of the benchmark itself, on a tiny shape of every workload.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json keeps to its schema, that run.py prints a result
of the right form with tracing off and on, that every metric BENCHMARK.json
lists is reported with its unit, that every per-layer metric has an entry in
LAYER_MAP, that a perturbed digest makes the run report a failure, and that
run.py fails without printing a result when the sources are missing.  It
checks no timing bound.

The benchmark runs from copies of the tree under perfbench/out/smoke, whose
workloads.py is shrunk by TINY and whose digests.json holds TINY_DIGESTS.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import LAYER_MAP, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out" / "smoke"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Overrides that keep every feature of a workload (mask, partition,
# optimizer, aggregation, pretraining) at a fraction of its cost.
_WIDE_TINY = {
    "model.input_dim": "8",
    "model.hidden_dim": "16",
    "clients": "3",
    "rounds": "2",
    "batch_size": "16",
    "pretrain.epochs": "3",
    "dataset.samples": "200",
}
TINY = {
    "head-wide": _WIDE_TINY,
    "full-wide": _WIDE_TINY,
}
# Digests of the tiny workloads at the reference seed.
TINY_DIGESTS = {
    "head-wide": "e5ede4d0d6200c99f683d05a111827e3e0379414f752c1ad8dfa370f18e160b0",
    "full-wide": "1b4457f88269ffa90a4f724e0328180877a84bf5e7059885e3078491858a13c7",
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_spec(spec: dict) -> None:
    check(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json keys",
    )
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200, f"workload {w['name']}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "metric names are unique")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"{m['name']} keys")
        check(0 < m["bound"] <= 0.25, f"{m['name']} bound")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"{m['name']} keys")
        check(m["name"] in LAYER_MAP, f"{m['name']} has no LAYER_MAP entry")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(bool(NAME.match(m["name"])) and bool(UNIT.match(m["unit"])), f"{m['name']} name/unit")
        check(m["better"] in ("lower", "higher"), f"{m['name']} better")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s")
    check(set(LAYER_MAP) == {m["name"] for m in spec["per_layer"]}, "LAYER_MAP matches per_layer")


def copy_of_tree(name: str, digests: dict[str, str], with_sources: bool = True) -> Path:
    """A directory under WORK with BENCHMARK.json, a tiny-shaped copy of
    perfbench/ that records ``digests``, and (``with_sources``) a link to src/."""
    tree = WORK / name
    bench_dir = tree / "perfbench"
    shutil.copytree(HERE, bench_dir, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    with open(bench_dir / "workloads.py", "a") as fh:
        fh.write(f"\nfor _name, _tiny in {TINY!r}.items():\n")
        fh.write("    WORKLOADS[_name] = dict(WORKLOADS[_name], **_tiny)\n")
    (bench_dir / "digests.json").write_text(json.dumps(digests))
    if with_sources:
        (tree / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tree


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5"]
    cmd += ["--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    check(proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    check(isinstance(result["failed"], int), "failed")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check(set(TINY) == set(WORKLOADS) == set(TINY_DIGESTS), "TINY covers every workload")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    tiny = copy_of_tree("tiny", TINY_DIGESTS)

    for workload in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = result_of(bench(tiny, workload, trace))
            check(result["correct"] and result["failed"] == 0, f"{workload} trace={trace} failed")
            got = result["metrics"]
            check(list(got) == [m["name"] for m in listed], f"{workload} trace={trace} metric names")
            for m in listed:
                value = got[m["name"]]
                check(set(value) == {"value", "unit"}, f"{m['name']} entry")
                check(value["unit"] == m["unit"], f"{m['name']} unit")
                check(isinstance(value["value"], (int, float)), f"{m['name']} value")

        good = TINY_DIGESTS[workload]
        perturbed = dict(TINY_DIGESTS, **{workload: ("0" if good[0] != "0" else "1") + good[1:]})
        result = result_of(bench(copy_of_tree(f"perturbed-{workload}", perturbed), workload, 0))
        check(not result["correct"] and result["failed"] >= 1, f"{workload}: perturbed digest passed")
        print(f"ok  {workload}")

    proc = bench(copy_of_tree("bare", TINY_DIGESTS, with_sources=False), "head-wide", 0)
    check(proc.returncode != 0 and not proc.stdout.strip(), "run.py without sources must fail silently")
    print("ok  no sources -> exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
