"""Tests of the benchmark itself, on tiny instance sets (``--quick``).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Expect, Outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH / "layers.json").read_text())["layers"]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]] + list(E2E) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert E2E["setup_s"]["unit"] == "s" and E2E["setup_s"]["better"] == "lower"
    assert E2E["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_records_why_it_was_chosen():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] and "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_layer_mapping_covers_every_per_layer_metric_once():
    mapped = [name for entry in LAYERS for name in entry["metrics"]]
    assert sorted(mapped) == sorted(PER_LAYER)
    for entry in LAYERS:
        assert set(entry["moves"]) <= set(E2E)
        assert entry["workloads"] and set(entry["workloads"]) <= set(WORKLOADS)
    traced = set(tracing.LAYER_METRICS) | {"trace_overhead"}
    assert traced == set(PER_LAYER)
    assert set(tracing.OBSERVED) <= set(tracing.LAYER_METRICS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    *_, details_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = E2E if trace == 0 else PER_LAYER
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]["unit"]
        assert isinstance(metric["value"], (int, float))
    if trace == 0:
        assert all(result["metrics"][n]["value"] > 0 for n in E2E)
    details = json.loads(details_line)
    assert details["seed"] == 3 and details["failed_frac"] == 0
    assert re.fullmatch(r"[0-9a-f]{16}", details["digest"])
    assert {"nproc", "cpu", "python", "numpy", "blas"} <= set(details["machine"])
    if trace == 1:
        assert details["missing_targets"] == [] and details["missing_metrics"] == []


def test_same_seed_gives_same_cells_and_digest():
    runs = [run_bench("--workload", "cli-screen", "--seed", "5", "--seconds", "0.1", "--quick")
            for _ in range(2)]
    details = [json.loads(r.stdout.strip().splitlines()[-2]) for r in runs]
    assert details[0]["cells"] == details[1]["cells"]
    assert details[0]["digest"] == details[1]["digest"]


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-refine", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_verdict_is_a_failure():
    import coposim

    A = coposim.ones_tensor(3, 3)
    record = coposim.detect(A).to_json_dict()
    assert Outcome("ok", record, 0.0, tensor=A, expect=Expect(("copositive",))).failure() is None
    wrong = Outcome("x", record, 0.0, tensor=A, expect=Expect(("not_copositive",)))
    assert "verdict copositive" in wrong.failure()
    miscounted = Outcome("x", record, 0.0, tensor=A, expect=Expect(("copositive",), cells=2))
    assert "cells" in miscounted.failure()
    raised = Outcome("x", None, 0.0, error="ValueError()")
    assert "ValueError" in raised.failure()


def test_tracer_reports_a_missing_name_and_restores_the_library():
    import coposim
    from coposim.tensor import SymmetricTensor

    original_form = SymmetricTensor.__dict__["form"]
    original_detect = coposim.detector.detect
    targets = tracing.TARGETS + (tracing.Target("simplex.frontier", "coposim.simplex", "Gone.push"),)
    tracer = tracing.Tracer(targets)
    with tracer:
        assert coposim.detector.detect is not original_detect
        assert coposim.detect is coposim.detector.detect
        coposim.detect(coposim.eta_shift(1.0, coposim.ones_tensor(3, 3)))
    assert tracer.missing == ["coposim.simplex.Gone.push"]
    assert SymmetricTensor.__dict__["form"] is original_form
    assert coposim.detector.detect is original_detect and coposim.detect is original_detect
    values, missing = tracing.layer_metrics(tracer)
    assert missing == []
    assert values["detector.detect.calls"] == 1
    assert values["tensor.form.calls_per_cell"] == 3.0

    gone = tracing.Tracer(tuple(t for t in tracing.TARGETS if t.key != "simplex.frontier")
                          + (tracing.Target("simplex.frontier", "coposim.simplex", "Gone.pop"),))
    with gone:
        coposim.detect(coposim.ones_tensor(3, 3))
    values, missing = tracing.layer_metrics(gone)
    assert set(missing) == {"simplex.frontier.ops", "simplex.frontier.s",
                            "simplex.frontier.high_water"}
    assert values["simplex.frontier.ops"] == 0

    def stale_observer(counts, args, result):
        return result.renamed_field

    unreadable = tracing.Tracer(
        tuple(t for t in tracing.TARGETS if t.key != "detector.certify_cell")
        + (tracing.Target("detector.certify_cell", "coposim.detector", "certify_cell",
                          stale_observer),)
    )
    with unreadable:
        coposim.detect(coposim.ones_tensor(3, 3))
    values, missing = tracing.layer_metrics(unreadable)
    assert set(missing) == {name for name, key in tracing.OBSERVED.items()
                            if key == "detector.certify_cell"}
    assert values["detector.certify_cell.calls"] == 1


def test_self_time_subtracts_direct_children():
    spans = [
        ("detector.detect", 0.0, 10.0, -1),
        ("detector.certify_cell", 1.0, 5.0, 0),
        ("tensor.form", 1.5, 2.5, 1),
        ("tensor.form", 3.0, 4.0, 1),
        ("tensor.form", 6.0, 7.0, -1),
    ]
    totals = tracing.span_totals(spans)
    assert totals["detector.detect"]["self"] == 6.0
    assert totals["detector.certify_cell"]["self"] == 2.0
    assert totals["tensor.form"] == {"calls": 3, "total": 3.0, "self": 3.0, "in_detect": 2}


def test_compare_reports_changed_digest_as_behaviour():
    metrics = {m: {"value": 1.0, "unit": E2E[m]["unit"]} for m in E2E}
    run = {"end_to_end": {"details": {"cells": 10, "digest": "a" * 16},
                          "result": {"metrics": metrics}}}
    same, bad = compare.compare({"w": run}, {"w": run}, SPEC)
    assert not bad and not any("BEHAVIOUR" in line for line in same)
    changed = json.loads(json.dumps(run))
    changed["end_to_end"]["details"]["digest"] = "b" * 16
    lines, bad = compare.compare({"w": run}, {"w": changed}, SPEC)
    assert bad and any("BEHAVIOUR CHANGE digest" in line for line in lines)
    slower = json.loads(json.dumps(run))
    slower["end_to_end"]["result"]["metrics"]["wall_s"]["value"] = 2.0
    lines, bad = compare.compare({"w": run}, {"w": slower}, SPEC)
    assert bad and any("REGRESSION" in line for line in lines)
