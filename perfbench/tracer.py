"""Span tracer for the coposim benchmark.

Timing wrappers are installed around the public functions of each
coposim module for the length of one traced pass and removed afterwards,
so an untraced pass runs the library exactly as shipped.  A module-level
function is replaced in every ``coposim`` module namespace that holds it,
because that is where its callers look the name up (``coposim.cli.detect``,
``coposim.detector.certify_cell``); a method is replaced on its class
(``SymmetricTensor.form``).  A target that no longer exists is recorded as
missing instead of failing the run, so later refactors of the library do
not break the benchmark.

Each call records a span (key, start, end, parent); a span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``module`` and dotted ``attr`` locate it, ``key``
    is the span name its calls are recorded under (several targets may
    share a key), and ``observe`` reads counts off the call's arguments
    and result."""

    key: str
    module: str
    attr: str
    observe: Callable | None = None


def _observe_cell(counts, args, result):
    counts["cells." + result.kind.value] += 1


def _observe_detect(counts, args, result):
    counts["detect.iterations"] += result.iterations
    counts["detect.max_depth"] = max(counts["detect.max_depth"], result.max_depth)


def _observe_push(counts, args, result):
    counts["frontier.high_water"] = max(counts["frontier.high_water"], len(args[0]))


def _observe_spectral(counts, args, result):
    counts["spectral.iterations"] += result.iterations


def _observe_prescreen(counts, args, result):
    counts["prescreen.refuted"] += not result.passed


_INSTANCE_FUNCTIONS = (
    "identity_tensor",
    "ones_tensor",
    "eta_shift",
    "random_tensor",
    "random_tensor_negative_diagonal",
    "from_polynomial",
    "polynomial_from_json",
    "motzkin_tensor",
    "robinson_tensor",
    "choi_lam_tensor",
)

TARGETS = (
    Target("tensor.form", "coposim.tensor", "SymmetricTensor.form"),
    Target("tensor.congruence", "coposim.tensor", "SymmetricTensor.congruence"),
    Target("tensor.construct", "coposim.tensor", "SymmetricTensor.__init__"),
    Target("tensor.gradient_form", "coposim.tensor", "SymmetricTensor.gradient_form"),
    Target("tensor.principal_subtensor", "coposim.tensor", "SymmetricTensor.principal_subtensor"),
    Target("simplex.bisect", "coposim.simplex", "Simplex.bisect_longest_edge"),
    Target("simplex.frontier", "coposim.simplex", "PartitionFrontier.push", _observe_push),
    Target("simplex.frontier", "coposim.simplex", "PartitionFrontier.pop"),
    Target("detector.detect", "coposim.detector", "detect", _observe_detect),
    # Wrapped only so its own work is not counted as cli.main self time.
    Target("detector.detect_with_relaxation", "coposim.detector", "detect_with_relaxation"),
    Target("detector.certify_cell", "coposim.detector", "certify_cell", _observe_cell),
    Target("spectral", "coposim.spectral", "spectral_radius", _observe_spectral),
    Target("prescreen", "coposim.prescreen", "run_prescreen", _observe_prescreen),
    *(Target("instances", "coposim.instances", name) for name in _INSTANCE_FUNCTIONS),
    Target("cli.main", "coposim.cli", "main"),
    Target("cli.build_parser", "coposim.cli", "build_parser"),
)


def _resolve(target: Target):
    """Return (owner, name, original) for a target, or None when any part
    of its path is gone."""
    try:
        owner = importlib.import_module(target.module)
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
    except (ImportError, AttributeError):
        return None
    return owner, name, original


class Tracer:
    """Collects spans and boundary counts while installed.

    Use as a context manager around one traced pass; ``spans`` and
    ``counts`` hold that pass's records afterwards.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (key, start, end, parent)
            if observe is not None:
                try:
                    observe(counts, args, result)
                except (AttributeError, TypeError):
                    counts["unobserved." + key] += 1
            return result

        return traced

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        self.spans.clear()
        self.counts.clear()
        self.missing = []
        for target in self.targets:
            resolved = _resolve(target)
            if resolved is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            owner, name, original = resolved
            wrapped = self._wrap(target.key, original, target.observe)
            if isinstance(owner, type):
                self._patch(owner, name, wrapped)
                continue
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "coposim" and module.__dict__.get(name) is original:
                    self._patch(module, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, previous in reversed(self._patches):
            if previous is None:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)
        self._patches.clear()
        self._stack.clear()

    def present_keys(self) -> set[str]:
        missing = set(self.missing)
        return {
            t.key for t in self.targets if f"{t.module}.{t.attr}" not in missing
        }


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span key: ``calls``, ``total`` (duration of the outermost spans
    of that key, so nested calls are not counted twice), ``self`` (duration
    minus direct children) and ``in_detect`` (calls made under a
    ``detector.detect`` span)."""
    n = len(spans)
    child = [0.0] * n
    in_detect = [False] * n
    for i, (key, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_detect[i] = in_detect[parent] or spans[parent][0] == "detector.detect"
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0, "in_detect": 0}
    )
    for i, (key, start, end, parent) in enumerate(spans):
        entry = totals[key]
        entry["calls"] += 1
        entry["self"] += (end - start) - child[i]
        entry["in_detect"] += in_detect[i]
        if parent < 0 or spans[parent][0] != key:
            entry["total"] += end - start
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metric name -> (span keys it needs, function of (totals, counts)).
LAYER_METRICS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "tensor.form.calls": (("tensor.form",), lambda t, c: t["tensor.form"]["calls"]),
    "tensor.form.self_s": (("tensor.form",), lambda t, c: t["tensor.form"]["self"]),
    "tensor.form.calls_per_cell": (
        ("tensor.form", "detector.detect"),
        lambda t, c: _ratio(t["tensor.form"]["in_detect"], c["detect.iterations"]),
    ),
    "tensor.congruence.calls": (("tensor.congruence",), lambda t, c: t["tensor.congruence"]["calls"]),
    "tensor.congruence.self_s": (("tensor.congruence",), lambda t, c: t["tensor.congruence"]["self"]),
    "tensor.construct.calls": (("tensor.construct",), lambda t, c: t["tensor.construct"]["calls"]),
    "tensor.construct.s": (("tensor.construct",), lambda t, c: t["tensor.construct"]["total"]),
    "tensor.gradient_form.s": (("tensor.gradient_form",), lambda t, c: t["tensor.gradient_form"]["total"]),
    "tensor.principal_subtensor.s": (
        ("tensor.principal_subtensor",),
        lambda t, c: t["tensor.principal_subtensor"]["total"],
    ),
    "simplex.bisect.calls": (("simplex.bisect",), lambda t, c: t["simplex.bisect"]["calls"]),
    "simplex.bisect.s": (("simplex.bisect",), lambda t, c: t["simplex.bisect"]["total"]),
    "simplex.frontier.ops": (("simplex.frontier",), lambda t, c: t["simplex.frontier"]["calls"]),
    "simplex.frontier.s": (("simplex.frontier",), lambda t, c: t["simplex.frontier"]["total"]),
    "simplex.frontier.high_water": (("simplex.frontier",), lambda t, c: c["frontier.high_water"]),
    "detector.detect.calls": (("detector.detect",), lambda t, c: t["detector.detect"]["calls"]),
    "detector.detect.self_s": (("detector.detect",), lambda t, c: t["detector.detect"]["self"]),
    "detector.certify_cell.calls": (
        ("detector.certify_cell",),
        lambda t, c: t["detector.certify_cell"]["calls"],
    ),
    "detector.certify_cell.self_s": (
        ("detector.certify_cell",),
        lambda t, c: t["detector.certify_cell"]["self"],
    ),
    "detector.cells.certified": (("detector.certify_cell",), lambda t, c: c["cells.certified"]),
    "detector.cells.indeterminate": (("detector.certify_cell",), lambda t, c: c["cells.indeterminate"]),
    "detector.cells.negative_vertex": (
        ("detector.certify_cell",),
        lambda t, c: c["cells.negative_vertex"],
    ),
    "detector.certified_ratio": (
        ("detector.certify_cell",),
        lambda t, c: _ratio(
            c["cells.certified"],
            c["cells.certified"] + c["cells.indeterminate"] + c["cells.negative_vertex"],
        ),
    ),
    "detector.max_depth": (("detector.detect",), lambda t, c: c["detect.max_depth"]),
    "spectral.calls": (("spectral",), lambda t, c: t["spectral"]["calls"]),
    "spectral.s": (("spectral",), lambda t, c: t["spectral"]["total"]),
    "spectral.iterations": (("spectral",), lambda t, c: c["spectral.iterations"]),
    "prescreen.calls": (("prescreen",), lambda t, c: t["prescreen"]["calls"]),
    "prescreen.s": (("prescreen",), lambda t, c: t["prescreen"]["total"]),
    "prescreen.refuted_ratio": (
        ("prescreen",),
        lambda t, c: _ratio(c["prescreen.refuted"], t["prescreen"]["calls"]),
    ),
    "instances.calls": (("instances",), lambda t, c: t["instances"]["calls"]),
    "instances.s": (("instances",), lambda t, c: t["instances"]["total"]),
    "cli.main.calls": (("cli.main",), lambda t, c: t["cli.main"]["calls"]),
    "cli.main.self_s": (("cli.main",), lambda t, c: t["cli.main"]["self"]),
    "cli.build_parser.s": (("cli.build_parser",), lambda t, c: t["cli.build_parser"]["total"]),
}


# Metrics read from counts, and the span key whose observer records them.
OBSERVED = {
    "tensor.form.calls_per_cell": "detector.detect",
    "simplex.frontier.high_water": "simplex.frontier",
    "detector.cells.certified": "detector.certify_cell",
    "detector.cells.indeterminate": "detector.certify_cell",
    "detector.cells.negative_vertex": "detector.certify_cell",
    "detector.certified_ratio": "detector.certify_cell",
    "detector.max_depth": "detector.detect",
    "spectral.iterations": "spectral",
    "prescreen.refuted_ratio": "prescreen",
}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of the last traced pass, and the names of metrics
    whose wrapped targets are missing or whose results could no longer be
    read (reported as 0)."""
    totals = span_totals(tracer.spans)
    present = tracer.present_keys()
    unobserved = {k.split(".", 1)[1] for k in tracer.counts if k.startswith("unobserved.")}
    values: dict[str, float] = {}
    missing: list[str] = []
    for name, (keys, compute) in LAYER_METRICS.items():
        if not present.issuperset(keys) or OBSERVED.get(name) in unobserved:
            missing.append(name)
            values[name] = 0
            continue
        value = compute(totals, tracer.counts)
        values[name] = float(value) if isinstance(value, float) else int(value)
    return values, missing


def self_time_ranking(tracer: Tracer) -> list[tuple[str, float]]:
    """Span keys ordered by self time, largest first."""
    totals = span_totals(tracer.spans)
    return sorted(((k, v["self"]) for k, v in totals.items()), key=lambda kv: -kv[1])
