"""The benchmark's workloads at full size still give their pinned outputs.

Runs perfbench/child.py (through run.py's launcher, so with BLAS on one
thread) once per workload at the reference seed, and once traced on each
workload.  Nothing is written under perfbench/.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        # no bytecode caches either, here or in the children
        mp.setenv("PYTHONDONTWRITEBYTECODE", "1")
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("run")


DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_matches_its_pinned_digest(bench, workload):
    out = bench.run_child(workload, bench.REFERENCE_SEED, trace=False, spans=None)
    assert out["problems"] == []
    assert out["digest"] == DIGESTS[workload]


def test_traced_full_wide_still_sees_clipped_rows(bench):
    # the counter compares each clipped matrix with its input: a clip that
    # wrote into its input would read 0 here
    out = bench.run_child("full-wide", bench.REFERENCE_SEED, trace=True, spans=None)
    assert out["problems"] == []
    assert out["digest"] == DIGESTS["full-wide"]
    assert out["layers"]["dpsgd.clipped_rows_frac"] > 0


def test_traced_head_wide_takes_one_gradient_and_one_clip_per_step(bench):
    # 3 rounds x 10 clients x 3 batches of 64; drawing the narrow steps'
    # noise in passes leaves one gradient and one clip call per step
    out = bench.run_child("head-wide", bench.REFERENCE_SEED, trace=True, spans=None)
    assert out["problems"] == []
    assert out["digest"] == DIGESTS["head-wide"]
    layers = out["layers"]
    assert layers["models.per_sample_gradients.calls"] == 90
    assert layers["dpsgd.clip_per_sample.calls"] == 90
    assert layers["rng.standard_normal.calls"] == 0
