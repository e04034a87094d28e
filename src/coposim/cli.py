"""Command-line front end: detection, prescreens, spectral radius,
instance generation, and reproduction of the three benchmark tables.

Exit codes: 0 copositive (or certified up to sigma), 1 not copositive,
2 undecided (for ``spectral``: bounds still open when the iteration
budget ran out), 64 usage error, 65 malformed input (a tensor shape with
more than ``tensor.MAX_KEYS`` canonical keys or of order above
``tensor.MAX_ORDER`` included), 66 missing or
unreadable input, 70 internal error, 73 ``--out`` cannot be written
(``detect``, ``spectral``, ``prescreen`` and ``table`` have printed their
output by then).

The argument parser is built once per process, on the first call of
``main``, and reused by every later call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import instances
from .detector import DetectorConfig, Verdict, VerdictKind, detect
from .prescreen import run_prescreen
from .spectral import PowerIterationBudgetError, spectral_radius
from .tensor import SymmetricTensor

EXIT_COPOSITIVE = 0
EXIT_NOT_COPOSITIVE = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66
EXIT_INTERNAL = 70
EXIT_CANTCREAT = 73

# Per generator: the flags it reads, in the order they enter the input
# record, and its builder.  Builders look ``instances.<name>`` up at call
# time, so a wrapper installed on the module is the one called.
GENERATORS = {
    "ones": (("m", "n"), lambda a: instances.ones_tensor(a.m, a.n)),
    "identity": (("m", "n"), lambda a: instances.identity_tensor(a.m, a.n)),
    "eta-ones": (
        ("m", "n", "eta"),
        lambda a: instances.eta_shift(a.eta, instances.ones_tensor(a.m, a.n)),
    ),
    "random": (("m", "n", "seed"), lambda a: instances.random_tensor(a.m, a.n, a.seed)),
    "motzkin": ((), lambda a: instances.motzkin_tensor()),
    "robinson": ((), lambda a: instances.robinson_tensor()),
    "choi-lam": ((), lambda a: instances.choi_lam_tensor()),
    "example3-b": (
        ("m", "n", "seed"),
        lambda a: instances.random_tensor_negative_diagonal(a.m, a.n, a.seed),
    ),
}


class CliError(Exception):
    """A failure reported as ``coposim: error: <message>``, exiting ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _ranged(convert, minimum, *, strict: bool = False, bits: int = 0):
    """Argument type: ``convert(text)``, finite and at least ``minimum``
    (above it when ``strict``) and, given ``bits``, below ``2**bits``;
    anything else is a usage error."""
    wanted = "a finite number"
    if minimum > -math.inf:
        wanted += f" {'>' if strict else '>='} {minimum}"
    if bits:
        wanted += f" and < 2**{bits}"

    def parse(text: str):
        value = convert(text)
        low = value < minimum or (strict and value == minimum)
        if not math.isfinite(value) or low or (bits and value >= 2**bits):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


_COUNT = _ranged(int, 1)
# Below 2**64, so table's per-trial seed + trial stays a Philox key (< 2**128).
_SEED = _ranged(int, 0, bits=64)
_NONNEGATIVE = _ranged(float, 0.0)
_POSITIVE = _ranged(float, 0.0, strict=True)
_FINITE = _ranged(float, -math.inf)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _make_tensor(args) -> tuple[SymmetricTensor, dict]:
    flags, build = GENERATORS[args.gen]
    descriptor: dict = {"generator": args.gen}
    for flag in flags:
        value = getattr(args, flag, None)
        if value is None:
            raise CliError(EXIT_USAGE, f"--gen {args.gen} requires --{flag}")
        descriptor[flag] = value
    return build(args), descriptor


def _load_tensor(args) -> tuple[SymmetricTensor, dict]:
    if getattr(args, "gen", None):
        return _make_tensor(args)
    source = getattr(args, "source", None)
    if not source:
        raise CliError(EXIT_USAGE, "provide a tensor file or --gen NAME")
    try:
        with open(source, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise CliError(EXIT_NOINPUT, f"cannot read {source}: {exc.strerror or exc}") from exc
    if isinstance(obj, dict) and "monomials" in obj:
        return instances.polynomial_from_json(obj), {"file": source, "format": "polynomial"}
    return SymmetricTensor.from_json_dict(obj), {"file": source, "format": "tensor"}


def _write(text: str, out: str) -> None:
    """Write ``text`` and a newline to the file ``out``; failing that,
    exit 73 with a message naming the path."""
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise CliError(EXIT_CANTCREAT, f"cannot write {out}: {exc.strerror or exc}") from exc


def _emit(record: dict, out: str | None) -> None:
    text = json.dumps(record, indent=2)
    print(text)
    if out:
        _write(text, out)


def _exit_code(verdict: Verdict) -> int:
    if verdict.kind is VerdictKind.COPOSITIVE:
        return EXIT_COPOSITIVE
    if verdict.kind is VerdictKind.NOT_COPOSITIVE:
        return EXIT_NOT_COPOSITIVE
    return EXIT_UNDECIDED


def cmd_detect(args) -> int:
    A, descriptor = _load_tensor(args)
    cfg = DetectorConfig(
        max_iterations=args.max_iter,
        tolerance=args.tol,
        sigma=args.sigma,
        min_diameter=args.min_diameter,
        keep_certificates=args.certificate,
    )
    started = time.perf_counter()
    prescreen_report = None
    verdict = None
    if not args.no_prescreen:
        prescreen_report = run_prescreen(A, tau=args.tol)
        if not prescreen_report.passed:
            verdict = Verdict(
                VerdictKind.NOT_COPOSITIVE,
                iterations=0,
                max_depth=0,
                sigma=args.sigma,
                tolerance=args.tol,
                witness=np.asarray(prescreen_report.witness, dtype=float),
            )
    if verdict is None:
        verdict = detect(A, cfg)
    record = {
        "input": descriptor,
        "config": {
            "max_iterations": args.max_iter,
            "tolerance": args.tol,
            "sigma": args.sigma,
            "min_diameter": args.min_diameter,
        },
        "prescreen": None if prescreen_report is None else prescreen_report.to_json_dict(),
        "verdict": verdict.to_json_dict(),
        "elapsed": time.perf_counter() - started,
    }
    if args.certificate and verdict.certified_cells is not None:
        record["certificate"] = {
            "cells": [cell.tolist() for cell in verdict.certified_cells]
        }
    _emit(record, args.out)
    if verdict.kind is VerdictKind.UNDECIDED:
        retry = "a larger --sigma or --max-iter" if args.sigma > 0 else "--sigma > 0"
        print(
            "undecided within budget; a zero of the form on the simplex is the usual "
            f"cause, retry with {retry}",
            file=sys.stderr,
        )
    return _exit_code(verdict)


def cmd_spectral(args) -> int:
    B, _ = _load_tensor(args)
    try:
        result = spectral_radius(B, tol=args.tol, max_iter=args.max_iter)
    except PowerIterationBudgetError as exc:
        result, rho, code = exc, None, EXIT_UNDECIDED
        print(f"{exc}; retry with a larger --max-iter or --tol", file=sys.stderr)
    else:
        rho, code = result.rho, 0
        if result.shift:
            print(f"note: reducibility shift {result.shift} applied", file=sys.stderr)
    record = {
        "rho": rho,
        "lower": result.lower if math.isfinite(result.lower) else None,
        "upper": result.upper if math.isfinite(result.upper) else None,
        "iterations": result.iterations,
    }
    _emit(record, args.out)
    return code


def cmd_prescreen(args) -> int:
    A, _ = _load_tensor(args)
    report = run_prescreen(A, grid_depth=args.depth, tau=args.tol)
    _emit(report.to_json_dict(), args.out)
    return 0 if report.passed else 1


def cmd_gen(args) -> int:
    if not args.gen:
        raise CliError(EXIT_USAGE, "gen needs --gen NAME")
    A, _ = _make_tensor(args)
    text = json.dumps(A.to_json_dict())
    if args.out:
        _write(text, args.out)
    else:
        print(text)
    return 0


# Reference benchmark results for the eta-ones family: per row the expected
# iteration count (None when the reference run exceeded its budget) and
# verdict.
TABLE1_ROWS = (
    (3, 3, 9.0, 1.0, 2, "not_copositive"),
    (3, 3, 9.0, 8.99, 43, "not_copositive"),
    (3, 3, 9.0, 9.0, None, "undecided"),
    (3, 3, 9.0, 9.01, 59, "copositive"),
    (3, 3, 9.0, 19.0, 11, "copositive"),
    (4, 4, 64.0, 10.0, 14, "not_copositive"),
    (4, 4, 64.0, 64.0, 63, "copositive"),
    (4, 4, 64.0, 74.0, 63, "copositive"),
)

TABLE2_PAIRS = ((3, 3), (3, 4), (4, 3), (4, 4), (6, 3))

# (min IT, max IT, number copositive, number not copositive) per eta offset.
TABLE2_REFERENCE = {
    (3, 3): {-1.0: (6, 25, 0, 10), 1.0: (19, 19, 10, 0), 10.0: (11, 11, 10, 0)},
    (3, 4): {-1.0: (21, 65, 0, 10), 1.0: (63, 75, 10, 0), 10.0: (49, 53, 10, 0)},
    (4, 3): {-1.0: (17, 17, 0, 10), 1.0: (27, 31, 10, 0), 10.0: (19, 19, 10, 0)},
    (4, 4): {-1.0: (21, 25, 0, 10), 1.0: (65, 91, 10, 0), 10.0: (63, 63, 10, 0)},
    (6, 3): {-1.0: (20, 28, 0, 10), 1.0: (43, 47, 10, 0), 10.0: (27, 27, 10, 0)},
}

TABLE3_REFERENCE = {"A": (1, 1, 10, 0), "B": (1, 1, 0, 10)}

TRIALS = 10


def _table1(cfg: DetectorConfig, seed: int) -> list[dict]:
    rows = []
    for m, n, rho, eta, ref_it, ref_result in TABLE1_ROWS:
        A = instances.eta_shift(eta, instances.ones_tensor(m, n))
        verdict = detect(A, cfg)
        rows.append(
            {
                "m": m,
                "n": n,
                "rho": rho,
                "eta": eta,
                "iterations": verdict.iterations,
                "ref_iterations": ref_it,
                "result": verdict.to_json_dict()["verdict"],
                "ref_result": ref_result,
            }
        )
    return rows


def _tally_row(m: int, n: int, column: str, label: str, verdicts: list[Verdict], ref) -> dict:
    """One row of Table 2 or 3: iteration range and verdict counts of the
    trials, beside the reference ``(min IT, max IT, yes, no)``."""
    its = [v.iterations for v in verdicts]
    n_yes = sum(1 for v in verdicts if v.kind is VerdictKind.COPOSITIVE)
    n_no = sum(1 for v in verdicts if v.kind is VerdictKind.NOT_COPOSITIVE)
    return {
        "m": m,
        "n": n,
        column: label,
        "min_it": min(its),
        "max_it": max(its),
        "n_yes": n_yes,
        "n_no": n_no,
        "n_undecided": len(verdicts) - n_yes - n_no,
        "ref": {"min_it": ref[0], "max_it": ref[1], "n_yes": ref[2], "n_no": ref[3]},
    }


def _table2(cfg: DetectorConfig, seed: int) -> list[dict]:
    rows = []
    for m, n in TABLE2_PAIRS:
        tensors = [instances.random_tensor(m, n, seed + trial) for trial in range(TRIALS)]
        radii = [spectral_radius(B).rho for B in tensors]
        for offset, label in ((-1.0, "rho-1"), (1.0, "rho+1"), (10.0, "rho+10")):
            verdicts = [
                detect(instances.eta_shift(rho + offset, B), cfg)
                for B, rho in zip(tensors, radii)
            ]
            rows.append(
                _tally_row(m, n, "eta", label, verdicts, TABLE2_REFERENCE[(m, n)][offset])
            )
    return rows


def _table3(cfg: DetectorConfig, seed: int) -> list[dict]:
    rows = []
    for m, n in TABLE2_PAIRS:
        for label, make in (
            ("A", instances.random_tensor),
            ("B", instances.random_tensor_negative_diagonal),
        ):
            verdicts = [detect(make(m, n, seed + trial), cfg) for trial in range(TRIALS)]
            rows.append(_tally_row(m, n, "tensor", label, verdicts, TABLE3_REFERENCE[label]))
    return rows


def _print_rows(rows: list[dict]) -> None:
    """Right-aligned columns; a row's ``ref`` dict becomes ``ref_*``
    columns, and a missing value prints as ``-``."""
    formatted = []
    for row in rows:
        flat = dict(row)
        flat.update({"ref_" + key: value for key, value in flat.pop("ref", {}).items()})
        formatted.append(
            {
                key: "-" if value is None else _fmt(value) if isinstance(value, float) else str(value)
                for key, value in flat.items()
            }
        )
    widths = {key: max(len(key), *(len(row[key]) for row in formatted)) for key in formatted[0]}
    print("  ".join(key.rjust(width) for key, width in widths.items()))
    for row in formatted:
        print("  ".join(row[key].rjust(width) for key, width in widths.items()))


def cmd_table(args) -> int:
    cfg = DetectorConfig(max_iterations=args.max_iter, tolerance=args.tol)
    builders = {1: _table1, 2: _table2, 3: _table3}
    rows = builders[args.table](cfg, args.seed)
    _print_rows(rows)
    if args.out:
        _write(json.dumps({"table": args.table, "rows": rows}, indent=2), args.out)
    return 0


def _add_source_arguments(parser, with_eta=True):
    parser.add_argument("source", nargs="?", help="tensor or polynomial JSON file")
    parser.add_argument("--gen", choices=GENERATORS, help="generate the input instead")
    parser.add_argument("--m", type=_COUNT, help="tensor order for --gen")
    parser.add_argument("--n", type=_COUNT, help="tensor dimension for --gen")
    if with_eta:
        parser.add_argument("--eta", type=_FINITE, help="diagonal shift for --gen eta-ones")
    parser.add_argument("--seed", type=_SEED, default=0, help="seed for random generators")
    parser.add_argument("--out", help="also write the JSON result to this file")


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="coposim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="decide copositivity")
    _add_source_arguments(p_detect)
    p_detect.add_argument("--max-iter", type=_COUNT, default=100, dest="max_iter")
    p_detect.add_argument("--tol", type=_NONNEGATIVE, default=1e-12)
    p_detect.add_argument("--sigma", type=_NONNEGATIVE, default=0.0,
                          help="certify the form down to -SIGMA; refutation is unchanged")
    p_detect.add_argument("--min-diameter", type=_NONNEGATIVE, default=0.0, dest="min_diameter")
    p_detect.add_argument("--no-prescreen", action="store_true", dest="no_prescreen")
    p_detect.add_argument("--certificate", action="store_true",
                          help="retain the certified cells in the output record")
    p_detect.set_defaults(func=cmd_detect)

    p_table = sub.add_parser("table", help="regenerate a benchmark table")
    p_table.add_argument("table", type=int, choices=(1, 2, 3))
    p_table.add_argument("--max-iter", type=_COUNT, default=100, dest="max_iter")
    p_table.add_argument("--tol", type=_NONNEGATIVE, default=1e-12)
    p_table.add_argument("--seed", type=_SEED, default=0, help="base seed for the trials")
    p_table.add_argument("--out", help="also write the rows as JSON to this file")
    p_table.set_defaults(func=cmd_table)

    p_spectral = sub.add_parser("spectral", help="spectral radius of a nonnegative tensor")
    _add_source_arguments(p_spectral, with_eta=False)
    p_spectral.add_argument("--tol", type=_POSITIVE, default=1e-8)
    p_spectral.add_argument("--max-iter", type=_COUNT, default=10_000, dest="max_iter")
    p_spectral.set_defaults(func=cmd_spectral)

    p_prescreen = sub.add_parser("prescreen", help="run the refuter battery")
    _add_source_arguments(p_prescreen)
    p_prescreen.add_argument("--depth", type=_COUNT, default=2, help="sampling grid depth")
    p_prescreen.add_argument("--tol", type=_NONNEGATIVE, default=1e-12)
    p_prescreen.set_defaults(func=cmd_prescreen)

    p_gen = sub.add_parser("gen", help="write a generated tensor as JSON")
    _add_source_arguments(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"coposim: error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # json.JSONDecodeError included
        print(f"coposim: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"coposim: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
