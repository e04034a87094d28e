"""The benchmark harness runs end to end on a tiny budget, so it cannot rot
unnoticed: each workload must exit 0 with every verdict checked correct."""

import importlib.util
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


def _workloads():
    """``perfbench/workloads.py``, imported by path: the benchmark's own
    instance sets and verdict checks, not a copy of them."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload", ["paper-tables", "deep-refine", "cli-screen"])
def test_benchmark_checks_pass_at_every_seed_it_runs(workload, tmp_path):
    # The benchmark runs its workloads at seeds other than 0; every full
    # (not quick) instance set of seeds 0-9 must pass the benchmark's checks.
    spec = _workloads()[workload]
    for seed in range(10):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        outcomes = spec.run_pass(spec.setup(seed, False, str(workdir)), lambda: None)
        assert outcomes
        assert [outcome.failure() for outcome in outcomes] == [None] * len(outcomes), seed


@pytest.mark.parametrize("workload", ["paper-tables", "deep-refine", "cli-screen"])
def test_benchmark_decides_a_full_set_twice_alike(workload, tmp_path):
    # As ``perfbench/run.py`` does in one process: the full set's set-up, a
    # quick pass, then full passes.  Every outcome must pass the benchmark's
    # checks, and both full passes must give the same verdict records, which
    # ``run.py`` also demands: state one pass leaves for the next, such as a
    # cached table written into, shows as a difference.
    spec = _workloads()[workload]
    for seed in (0, 3):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        state = spec.setup(seed, False, str(workdir))
        passes = [spec.run_pass(spec.setup(seed, True, str(workdir)), lambda: None)]
        passes += [spec.run_pass(state, lambda: None) for _ in range(2)]
        failures = [outcome.failure() for outcomes in passes for outcome in outcomes]
        assert failures == [None] * len(failures), seed
        first, second = ([outcome.record for outcome in outcomes] for outcomes in passes[1:])
        assert first and first == second, seed
