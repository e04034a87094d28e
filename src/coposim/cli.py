"""Command-line front end: detection, prescreens, spectral radius,
instance generation, and reproduction of the three benchmark tables.

Exit codes: 0 copositive (or certified up to sigma), 1 not copositive,
2 undecided (for ``spectral``: bounds still open when the iteration
budget ran out), 64 usage error, 65 malformed input, 66 missing or
unreadable input, 70 internal error.

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

GENERATORS = (
    "ones",
    "identity",
    "eta-ones",
    "random",
    "motzkin",
    "robinson",
    "choi-lam",
    "example3-b",
)


class UsageError(Exception):
    pass


class NoInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _ranged(convert, minimum, *, strict: bool = False, bits: int = 0):
    """Argument type: ``convert(text)``, finite and at least ``minimum``
    (above it when ``strict``) and, given ``bits``, below ``2**bits``;
    anything else is a usage error."""
    wanted = f"a finite number {'>' if strict else '>='} {minimum}"
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


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--gen {args.gen} requires --{name.replace('_', '-')}")


def _make_tensor(args) -> tuple[SymmetricTensor, dict]:
    name = args.gen
    descriptor: dict = {"generator": name}
    if name in ("ones", "identity", "eta-ones", "random", "example3-b"):
        _require(args, "m", "n")
        descriptor.update(m=args.m, n=args.n)
    if name == "ones":
        return instances.ones_tensor(args.m, args.n), descriptor
    if name == "identity":
        return instances.identity_tensor(args.m, args.n), descriptor
    if name == "eta-ones":
        _require(args, "eta")
        descriptor.update(eta=args.eta)
        base = instances.ones_tensor(args.m, args.n)
        return instances.eta_shift(args.eta, base), descriptor
    if name == "random":
        descriptor.update(seed=args.seed)
        return instances.random_tensor(args.m, args.n, args.seed), descriptor
    if name == "example3-b":
        descriptor.update(seed=args.seed)
        return (
            instances.random_tensor_negative_diagonal(args.m, args.n, args.seed),
            descriptor,
        )
    if name == "motzkin":
        return instances.motzkin_tensor(), descriptor
    if name == "robinson":
        return instances.robinson_tensor(), descriptor
    if name == "choi-lam":
        return instances.choi_lam_tensor(), descriptor
    raise UsageError(f"unknown generator {name!r}")


def _load_tensor(args) -> tuple[SymmetricTensor, dict]:
    if getattr(args, "gen", None):
        return _make_tensor(args)
    source = getattr(args, "source", None)
    if not source:
        raise UsageError("provide a tensor file or --gen NAME")
    try:
        with open(source, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise NoInputError(f"cannot read {source}: {exc.strerror or exc}") from exc
    if isinstance(obj, dict) and "monomials" in obj:
        return instances.polynomial_from_json(obj), {"file": source, "format": "polynomial"}
    return SymmetricTensor.from_json_dict(obj), {"file": source, "format": "tensor"}


def _emit(record: dict, out: str | None) -> None:
    text = json.dumps(record, indent=2)
    print(text)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


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
        raise UsageError("gen needs --gen NAME")
    A, _ = _make_tensor(args)
    text = A.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
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


def _verdict_label(verdict: Verdict) -> str:
    return verdict.to_json_dict()["verdict"]


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
                "result": _verdict_label(verdict),
                "ref_result": ref_result,
            }
        )
    return rows


def _tally(verdicts: list[Verdict]) -> tuple[int, int, int, int, int]:
    its = [v.iterations for v in verdicts]
    n_yes = sum(1 for v in verdicts if v.kind is VerdictKind.COPOSITIVE)
    n_no = sum(1 for v in verdicts if v.kind is VerdictKind.NOT_COPOSITIVE)
    n_und = len(verdicts) - n_yes - n_no
    return min(its), max(its), n_yes, n_no, n_und


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
            min_it, max_it, n_yes, n_no, n_und = _tally(verdicts)
            ref = TABLE2_REFERENCE[(m, n)][offset]
            rows.append(
                {
                    "m": m,
                    "n": n,
                    "eta": label,
                    "min_it": min_it,
                    "max_it": max_it,
                    "n_yes": n_yes,
                    "n_no": n_no,
                    "n_undecided": n_und,
                    "ref": {"min_it": ref[0], "max_it": ref[1], "n_yes": ref[2], "n_no": ref[3]},
                }
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
            min_it, max_it, n_yes, n_no, n_und = _tally(verdicts)
            ref = TABLE3_REFERENCE[label]
            rows.append(
                {
                    "m": m,
                    "n": n,
                    "tensor": label,
                    "min_it": min_it,
                    "max_it": max_it,
                    "n_yes": n_yes,
                    "n_no": n_no,
                    "n_undecided": n_und,
                    "ref": {"min_it": ref[0], "max_it": ref[1], "n_yes": ref[2], "n_no": ref[3]},
                }
            )
    return rows


def _print_rows(rows: list[dict]) -> None:
    if not rows:
        return
    columns = list(rows[0].keys())
    if "ref" in columns:
        columns.remove("ref")
        columns += ["ref_" + key for key in rows[0]["ref"]]
    formatted = []
    for row in rows:
        flat = dict(row)
        ref = flat.pop("ref", None)
        if ref:
            flat.update({"ref_" + key: value for key, value in ref.items()})
        formatted.append(
            {
                key: ("-" if value is None else _fmt(value) if isinstance(value, float) else str(value))
                for key, value in flat.items()
            }
        )
    widths = {
        key: max(len(key), *(len(row.get(key, "None") or "-") for row in formatted))
        for key in columns
    }
    print("  ".join(key.rjust(widths[key]) for key in columns))
    for row in formatted:
        print("  ".join((row.get(key) or "-").rjust(widths[key]) for key in columns))


def cmd_table(args) -> int:
    cfg = DetectorConfig(max_iterations=args.max_iter, tolerance=args.tol)
    builders = {1: _table1, 2: _table2, 3: _table3}
    rows = builders[args.table](cfg, args.seed)
    _print_rows(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"table": args.table, "rows": rows}, handle, indent=2)
            handle.write("\n")
    return 0


def _add_source_arguments(parser, with_eta=True):
    parser.add_argument("source", nargs="?", help="tensor or polynomial JSON file")
    parser.add_argument("--gen", choices=GENERATORS, help="generate the input instead")
    parser.add_argument("--m", type=_COUNT, help="tensor order for --gen")
    parser.add_argument("--n", type=_COUNT, help="tensor dimension for --gen")
    if with_eta:
        parser.add_argument("--eta", type=float, help="diagonal shift for --gen eta-ones")
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
    except UsageError as exc:
        print(f"coposim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoInputError, FileNotFoundError) as exc:
        print(f"coposim: error: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"coposim: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"coposim: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
