"""The three benchmark workloads.

Each workload is a closed loop over a fixed instance set made from the
seed: the next instance starts when the previous verdict returns.  A
workload has a ``setup`` (timed as set-up, repeated by the harness) and a
``run_pass`` that decides every instance once, calls ``tick`` between
instances (the harness samples machine speed there), and returns one
:class:`Outcome` per instance.  Checking an outcome is deferred to
``Outcome.failure()`` so the harness can run the checks outside the timed
and traced region.

The library is always reached through module attributes looked up at call
time (``coposim.detect``, ``coposim.cli.main``), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import coposim
import coposim.cli

# Table 1 of the paper, as pinned by coposim.cli.TABLE1_ROWS and
# tests/test_cli.py: (m, n, eta, iterations or None when the budget ran
# out, verdict).  Kept here so the check does not trust the program's copy.
TABLE1 = (
    (3, 3, 1.0, 2, "not_copositive"),
    (3, 3, 8.99, 43, "not_copositive"),
    (3, 3, 9.0, None, "undecided"),
    (3, 3, 9.01, 59, "copositive"),
    (3, 3, 19.0, 11, "copositive"),
    (4, 4, 10.0, 14, "not_copositive"),
    (4, 4, 64.0, 63, "copositive"),
    (4, 4, 74.0, 63, "copositive"),
)
TABLE_PAIRS = ((3, 3), (3, 4), (4, 3), (4, 4), (6, 3))
TABLE_BUDGET = 100
TRIALS = 10

# deep-refine: one order-6, dimension-5 instance at eta = rho + 1.  Its
# search needs about 1700-1900 cells depending on the seed, and reaches its
# full depth (30-33) within the first 300.  A fixed budget below the
# smallest of those counts keeps the work, and so the timings, independent
# of the seed, and leaves room for about ten passes in one run.
DEEP_SHAPE = (6, 5)
DEEP_BUDGET = 400
DEEP_BUDGET_QUICK = 30

# cli-screen batch.  Random tensors with entries in (0, 1) are copositive
# and certified on the first cell; example3-b tensors have a negative
# leading diagonal entry and are refuted by the prescreen (0 cells) or, with
# --no-prescreen, on the first cell.
CLI_RANDOM_SHAPES = ((3, 4), (3, 6), (3, 8), (3, 10), (4, 4), (4, 6), (4, 8), (5, 5), (6, 3), (6, 4))
CLI_RANDOM_PER_SHAPE = 8
CLI_REFUTE_SHAPES = ((3, 4), (3, 8), (4, 6), (4, 8), (6, 3))
CLI_REFUTE_PER_SHAPE = 4
# --gen name -> constructor, also used to write each sextic as a polynomial file.
CLI_SEXTICS = {
    "motzkin": coposim.motzkin_tensor,
    "robinson": coposim.robinson_tensor,
    "choi-lam": coposim.choi_lam_tensor,
}
CLI_SIGMA = "1e-3"
CLI_SEXTIC_REPEATS = 2


@dataclass(frozen=True)
class Expect:
    """What is known about an instance: the verdict labels it may get, its
    exact cell count when known, the budget an undecided verdict must have
    used up, and the CLI exit code."""

    verdicts: tuple[str, ...]
    cells: int | None = None
    budget: int | None = None
    exit_code: int | None = None


@dataclass
class Outcome:
    """One decided instance: its ``"verdict"`` sub-record, processed cells
    and time to verdict, plus what is needed to check it."""

    label: str
    record: dict | None
    decide_s: float
    tensor: object = None
    expect: Expect | None = None
    exit_code: int | None = None
    error: str | None = None
    cells: int = field(init=False, default=0)

    def __post_init__(self):
        if self.record is not None:
            self.cells = int(self.record["iterations"])

    def failure(self) -> str | None:
        """Why the outcome is wrong, or None when it agrees with what is
        known about the instance."""
        if self.error is not None:
            return f"{self.label}: {self.error}"
        rec, exp = self.record, self.expect
        if rec["verdict"] not in exp.verdicts:
            return f"{self.label}: verdict {rec['verdict']}, expected one of {exp.verdicts}"
        if exp.cells is not None and rec["iterations"] != exp.cells:
            return f"{self.label}: {rec['iterations']} cells, expected {exp.cells}"
        if rec["verdict"] == "undecided" and rec["iterations"] != exp.budget:
            return f"{self.label}: undecided after {rec['iterations']} of {exp.budget} cells"
        if exp.exit_code is not None and self.exit_code != exp.exit_code:
            return f"{self.label}: exit code {self.exit_code}, expected {exp.exit_code}"
        witness = rec["witness"]
        if rec["verdict"] == "not_copositive":
            if witness is None or not coposim.verify_witness(
                self.tensor, witness, rec["tolerance"]
            ):
                return f"{self.label}: witness {witness} does not verify"
        elif witness is not None:
            return f"{self.label}: {rec['verdict']} verdict carries a witness"
        return None


def _decide(label, A, cfg, expect) -> Outcome:
    start = time.perf_counter()
    try:
        verdict = coposim.detect(A, cfg)
    except Exception as exc:  # an instance that raises counts as failed
        return Outcome(label, None, time.perf_counter() - start, error=repr(exc))
    elapsed = time.perf_counter() - start
    return Outcome(label, verdict.to_json_dict(), elapsed, tensor=A, expect=expect)


# -- paper-tables ---------------------------------------------------------------


def setup_paper_tables(seed: int, quick: bool, workdir: str) -> dict:
    """Seed ``s`` runs the tables at base seed ``s * TRIALS``, so different
    seeds share no random instance; seed 0 is ``coposim table 2 --seed 0``."""
    trials = 1 if quick else TRIALS
    return {"base": seed * TRIALS, "trials": trials}


def run_paper_tables(state: dict, tick: Callable[[], None]) -> list[Outcome]:
    """The loops behind ``coposim table 1``, ``table 2`` and ``table 3``."""
    base, trials = state["base"], state["trials"]
    cfg = coposim.DetectorConfig(max_iterations=TABLE_BUDGET)
    out = []
    for m, n, eta, ref_cells, ref_verdict in TABLE1:
        A = coposim.eta_shift(eta, coposim.ones_tensor(m, n))
        expect = Expect((ref_verdict,), cells=ref_cells, budget=TABLE_BUDGET)
        out.append(_decide(f"table1 ({m},{n}) eta={eta}", A, cfg, expect))
        tick()
    copositive = ("copositive", "undecided")
    for m, n in TABLE_PAIRS:
        tensors = [coposim.random_tensor(m, n, base + t) for t in range(trials)]
        radii = [coposim.spectral_radius(B).rho for B in tensors]
        for offset, verdicts in ((-1.0, ("not_copositive",)), (1.0, copositive), (10.0, copositive)):
            expect = Expect(verdicts, budget=TABLE_BUDGET)
            for t, (B, rho) in enumerate(zip(tensors, radii)):
                A = coposim.eta_shift(rho + offset, B)
                out.append(_decide(f"table2 ({m},{n}) seed={base + t} rho{offset:+g}", A, cfg, expect))
                tick()
    for m, n in TABLE_PAIRS:
        for kind, make, verdict in (
            ("A", coposim.random_tensor, "copositive"),
            ("B", coposim.random_tensor_negative_diagonal, "not_copositive"),
        ):
            expect = Expect((verdict,), cells=1)
            for t in range(trials):
                A = make(m, n, base + t)
                out.append(_decide(f"table3 {kind} ({m},{n}) seed={base + t}", A, cfg, expect))
                tick()
    return out


# -- deep-refine ------------------------------------------------------------------


def setup_deep_refine(seed: int, quick: bool, workdir: str) -> dict:
    m, n = DEEP_SHAPE
    B = coposim.random_tensor(m, n, seed)
    rho = coposim.spectral_radius(B).rho
    return {
        "A": coposim.eta_shift(rho + 1.0, B),
        "label": f"deep ({m},{n}) seed={seed} rho+1",
        "budget": DEEP_BUDGET_QUICK if quick else DEEP_BUDGET,
    }


def run_deep_refine(state: dict, tick: Callable[[], None]) -> list[Outcome]:
    budget = state["budget"]
    cfg = coposim.DetectorConfig(max_iterations=budget)
    expect = Expect(("copositive", "undecided"), budget=budget)
    return [_decide(state["label"], state["A"], cfg, expect)]


# -- cli-screen -------------------------------------------------------------------


@dataclass(frozen=True)
class CliCase:
    argv: tuple[str, ...]
    tensor: object
    expect: Expect


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def setup_cli_screen(seed: int, quick: bool, workdir: str) -> list[CliCase]:
    """Writes the random tensors and the sextics' polynomials as JSON files
    into ``workdir`` and returns the argument lists of the batch."""
    per_shape = 1 if quick else CLI_RANDOM_PER_SHAPE
    refute_per_shape = 1 if quick else CLI_REFUTE_PER_SHAPE
    repeats = 1 if quick else CLI_SEXTIC_REPEATS
    cases: list[CliCase] = []
    certified = Expect(("copositive",), cells=1, exit_code=0)
    for m, n in CLI_RANDOM_SHAPES:
        for i in range(per_shape):
            tensor_seed = seed * 1000 + i
            A = coposim.random_tensor(m, n, tensor_seed)
            path = os.path.join(workdir, f"random-{m}-{n}-{tensor_seed}.json")
            _write_json(path, A.to_json_dict())
            cases.append(CliCase(("detect", path), A, certified))
    for m, n in CLI_REFUTE_SHAPES:
        for i in range(refute_per_shape):
            tensor_seed = seed * 1000 + i
            A = coposim.random_tensor_negative_diagonal(m, n, tensor_seed)
            argv = ("detect", "--gen", "example3-b", "--m", str(m), "--n", str(n),
                    "--seed", str(tensor_seed))
            cases.append(CliCase(argv, A, Expect(("not_copositive",), cells=0, exit_code=1)))
            cases.append(CliCase(argv + ("--no-prescreen",), A,
                                 Expect(("not_copositive",), cells=1, exit_code=1)))
    sextic = Expect(("sigma_certified",), exit_code=0)
    for name, make in CLI_SEXTICS.items():
        A = make()
        path = os.path.join(workdir, f"{name}.json")
        monomials = [
            {"exponents": [key.count(i) for i in range(1, A.dim + 1)],
             "coeff": value * coposim.multiplicity(key)}
            for key, value in A.entries.items()
        ]
        _write_json(path, {"order": A.order, "dim": A.dim, "monomials": monomials})
        for _ in range(repeats):
            cases.append(CliCase(("detect", "--gen", name, "--sigma", CLI_SIGMA), A, sextic))
            cases.append(CliCase(("detect", path, "--sigma", CLI_SIGMA), A, sextic))
    return cases


def run_cli_screen(cases: list[CliCase], tick: Callable[[], None]) -> list[Outcome]:
    """``coposim.cli.main`` in process with stdout captured, one call per
    case; the time to verdict covers argument parsing to the emitted
    record."""
    out = []
    for case in cases:
        tick()
        label = " ".join(case.argv)
        stdout = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = coposim.cli.main(list(case.argv))
        except Exception as exc:  # an instance that raises counts as failed
            out.append(Outcome(label, None, time.perf_counter() - start, error=repr(exc)))
            continue
        elapsed = time.perf_counter() - start
        try:
            record = json.loads(stdout.getvalue())["verdict"]
        except (ValueError, KeyError, TypeError) as exc:
            out.append(Outcome(label, None, elapsed, error=f"exit {code}, no record: {exc!r}"))
            continue
        out.append(Outcome(label, record, elapsed, tensor=case.tensor,
                           expect=case.expect, exit_code=code))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool, str], object]
    run_pass: Callable[[object, Callable[[], None]], list[Outcome]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-tables", setup_paper_tables, run_paper_tables),
        Workload("deep-refine", setup_deep_refine, run_deep_refine),
        Workload("cli-screen", setup_cli_screen, run_cli_screen),
    )
}
