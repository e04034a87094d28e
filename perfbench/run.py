"""coposim benchmark: paper tables, deep refinement and CLI screening.

Run one workload (the form the benchmark contract uses):

    python3 perfbench/run.py --workload deep-refine --seed 0 --seconds 35 --trace 0

``--trace 0`` repeats the workload's fixed instance set for ``--seconds``
seconds with no wrappers installed and reports the end-to-end metrics
(times are scaled to the reference machine speed, see ``speed.py``; the
raw pass times and scale factors are in the details line);
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is the JSON result; the line before it holds the details (sample
counts, verdict digest, failures, machine).  Every verdict is checked; the
exit code is 1 when any instance failed.

Run every workload, each in its own process, untraced and then traced:

    python3 perfbench/run.py --workload all --seed 0 [--seconds 35] [--out results.json]

``--quick`` shrinks every instance set to a few instances, for the
benchmark's own tests.  Compare two saved results with
``python3 perfbench/compare.py old.json new.json``.
"""

from __future__ import annotations

import os

# Workload processes get one BLAS thread: numpy's OpenBLAS would otherwise
# start a pool sized to the machine.  This must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("paper-tables", "deep-refine", "cli-screen")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import coposim, coposim.cli\n"
    "print(time.perf_counter() - start)\n"
)


def _percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def _import_seconds() -> float:
    """Time a fresh interpreter spends importing coposim and its CLI."""
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(probe.stdout.strip())


def _machine() -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(AttributeError, KeyError, TypeError):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _digest(outcomes) -> str:
    records = [o.record for o in outcomes]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]


def _spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def _units() -> dict:
    spec = _spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(args) -> int:
    if not (SRC / "coposim" / "__init__.py").is_file():
        print(f"perfbench: no coposim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coposim

    if Path(coposim.__file__).resolve().parent != SRC / "coposim":
        print(f"perfbench: imported coposim from {coposim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    from speed import SpeedScale
    from workloads import WORKLOADS

    units = _units()
    workload = WORKLOADS[args.workload]
    repeats = 1 if args.quick else SETUP_REPEATS
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        speed = SpeedScale()
        import_times, setup_times = [], []
        for _ in range(repeats):
            import_times.append(_import_seconds())
            start = time.perf_counter()
            state = workload.setup(args.seed, args.quick, workdir)
            setup_times.append(time.perf_counter() - start)
            speed.tick()
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        setup_s *= speed.factor()

        # One unmeasured pass over the quick instance set first, so one-time
        # costs (first calls into numpy, argparse, json) are not charged to
        # the first measured pass.
        warmup = workload.run_pass(workload.setup(args.seed, True, workdir), speed.tick)
        failures: list[str] = [f for f in (o.failure() for o in warmup) if f]
        attempted = len(warmup)
        speed.factor()

        raw_walls: dict[bool, list[float]] = {False: [], True: []}
        walls: dict[bool, list[float]] = {False: [], True: []}
        decide_p50: list[float] = []
        decide_p90: list[float] = []
        reference = None
        layer_values: dict[str, list[float]] = {}
        missing_metrics: list[str] = []
        tracer = tracing.Tracer()
        run_start = time.perf_counter()
        passes = 0
        while True:
            traced = bool(args.trace) and passes % 2 == 1
            speed.begin()
            start = time.perf_counter()
            with tracer if traced else contextlib.nullcontext():
                outcomes = workload.run_pass(state, speed.tick)
            wall = time.perf_counter() - start - speed.spent
            scale = speed.factor()
            raw_walls[traced].append(wall)
            walls[traced].append(wall * scale)
            passes += 1
            attempted += len(outcomes)
            failures += [f for f in (o.failure() for o in outcomes) if f]
            fingerprint = (sum(o.cells for o in outcomes), _digest(outcomes))
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                failures.append(f"pass {passes}: cells and digest {fingerprint} != {reference}")
            if traced:
                values, missing_metrics = tracing.layer_metrics(tracer)
                for name, value in values.items():
                    if units[name] == "s":
                        value *= scale
                    layer_values.setdefault(name, []).append(value)
                ranking = tracing.self_time_ranking(tracer)
                span_count = len(tracer.spans)
            else:
                times = [o.decide_s * scale for o in outcomes]
                decide_p50.append(_percentile(times, 0.50))
                decide_p90.append(_percentile(times, 0.90))
            if passes >= (2 if args.trace else 1):
                upcoming = raw_walls[not traced] if args.trace else raw_walls[False]
                elapsed = time.perf_counter() - run_start
                if elapsed + statistics.median(upcoming) > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cells, digest = reference
    untraced_wall = statistics.median(walls[False])
    if args.trace:
        metrics = {name: statistics.median(v) for name, v in layer_values.items()}
        metrics["trace_overhead"] = statistics.median(walls[True]) / untraced_wall
    else:
        metrics = {
            "wall_s": untraced_wall,
            "cells_per_s": cells / untraced_wall,
            "decide_p50_s": statistics.median(decide_p50),
            "decide_p90_s": statistics.median(decide_p90),
            "cells": cells,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "passes": passes,
        "raw_pass_walls_s": raw_walls[False],
        "speed_factors": speed.factors,
        "instances": len(outcomes),
        "decide_samples": len(outcomes) * len(walls[False]),
        "cells": cells,
        "digest": digest,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:10],
        "machine": _machine(),
    }
    if args.trace:
        details.update(
            spans_per_pass=span_count,
            missing_targets=tracer.missing,
            missing_metrics=missing_metrics,
            self_time_top=[[k, v] for k, v in ranking[:8]],
        )
    for name, value in metrics.items():
        print(f"{args.workload:>12}  {name:<32} {value:>14.6g} {units.get(name, '')}")
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(details))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


def run_all(args) -> int:
    """Each workload in its own process, untraced and then traced."""
    combined = {}
    status = 0
    for name in WORKLOAD_NAMES:
        combined[name] = {}
        for trace_flag in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace_flag)] + (["--quick"] if args.quick else [])
            child = subprocess.run(cmd, capture_output=True, text=True,
                                   timeout=CHILD_TIMEOUT_S, cwd=ROOT)
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-2]))
            sys.stderr.write(child.stderr)
            if child.returncode not in (0, 1) or len(lines) < 2:
                print(f"perfbench: {name} --trace {trace_flag} exited {child.returncode}",
                      file=sys.stderr)
                return child.returncode or 2
            status |= child.returncode
            combined[name]["trace" if trace_flag else "end_to_end"] = {
                "details": json.loads(lines[-2]),
                "result": json.loads(lines[-1]),
            }
        details = combined[name]["end_to_end"]["details"]
        traced = combined[name]["trace"]
        print(f"{name:>12}  cells={details['cells']} digest={details['digest']} "
              f"failed_frac={details['failed_frac']} decide_samples={details['decide_samples']} "
              f"trace_overhead={traced['result']['metrics']['trace_overhead']['value']:.3f} "
              f"largest_self_time={traced['details']['self_time_top'][0][0]}")
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a few instances per workload, one set-up (for tests)")
    parser.add_argument("--out", help="with --workload all: write all results to this file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
