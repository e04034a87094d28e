"""The benchmark harness runs end to end on a tiny budget, so it cannot rot
unnoticed: each workload must exit 0 with every verdict checked correct."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["paper-tables", "deep-refine", "cli-screen"])
def test_benchmark_workload_runs_correctly(workload):
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--quick", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.strip().splitlines()[-1])["correct"] is True
