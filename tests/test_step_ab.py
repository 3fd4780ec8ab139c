"""Smoke test of tools/step_ab.py: an A/A of one checkout against itself."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_an_a_a_run_gives_the_same_bytes_and_one_json_line():
    tool = ROOT / "tools" / "step_ab.py"
    cmd = [sys.executable, str(tool), "--a", str(ROOT), "--b", str(ROOT), "--blocks", "2"]
    proc = subprocess.run(
        [*cmd, "--workload", "head-wide", "--stage", "run_local"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    result = json.loads(line)
    assert sorted(result) == ["blocks", "median", "q1", "q3", "same_bytes", "stage", "workload"]
    assert result["same_bytes"] is True


@pytest.mark.parametrize("stage", ["private_step", "clip_per_sample"])
def test_an_a_a_run_of_a_finer_stage_gives_the_same_bytes(stage):
    tool = ROOT / "tools" / "step_ab.py"
    proc = subprocess.run(
        [sys.executable, str(tool), "--a", str(ROOT), "--b", str(ROOT), "--blocks", "2", "--stage", stage],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    result = json.loads(line)
    assert (result["workload"], result["stage"], result["blocks"]) == ("head-wide", stage, 2)
    assert result["same_bytes"] is True
    assert result["q1"] <= result["median"] <= result["q3"]
