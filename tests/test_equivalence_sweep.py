"""Equivalence sweep: 174 detection runs checked against a golden file.

Each line of ``tests/golden/sweep.jsonl`` holds one run: its inputs, the
verdict's ``to_json_dict()``, the number of certified cells, and two
sha256 hashes of the certified cells' ``tolist()`` (in search order, and
sorted).  Any difference, a last-bit float change included, fails the
test and names the run and the field.

The runs:

- random tensors of 8 shapes, seeds 0-3, at eta = rho + {-1, -0.01, 0.01,
  1, 10}, with a budget of 3000 cells;
- the Motzkin, Robinson and Choi-Lam sextics at sigma in {1e-2, 1e-3,
  1e-4}, with a budget of 2000 cells;
- ``eta_shift(eta, ones_tensor(3, 3))`` at eta in {1, 8.99, 9, 9.01, 19},
  with ``min_diameter=0.01``.

All runs keep their certificates.  A change that moves any run is a
behaviour change; regenerate the golden file only on purpose, with::

    PYTHONPATH=src python tests/test_equivalence_sweep.py --regenerate

Without the flag the script compares and prints every mismatch.
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from coposim import (
    DetectorConfig,
    choi_lam_tensor,
    detect,
    eta_shift,
    motzkin_tensor,
    ones_tensor,
    random_tensor,
    robinson_tensor,
    spectral_radius,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "sweep.jsonl"

SHAPES = ((3, 3), (3, 4), (4, 3), (4, 4), (6, 3), (4, 5), (6, 5), (3, 6))
SEEDS = range(4)
OFFSETS = (-1.0, -0.01, 0.01, 1.0, 10.0)
SEXTICS = {"motzkin": motzkin_tensor, "robinson": robinson_tensor, "choi-lam": choi_lam_tensor}
SIGMAS = (1e-2, 1e-3, 1e-4)
ONES_ETAS = (1.0, 8.99, 9.0, 9.01, 19.0)


def _runs():
    """``(inputs, tensor, config)`` for every run, in a fixed order."""
    for m, n in SHAPES:
        for seed in SEEDS:
            B = random_tensor(m, n, seed)
            rho = spectral_radius(B).rho
            for offset in OFFSETS:
                inputs = {"family": "random", "m": m, "n": n, "seed": seed,
                          "offset": offset, "eta": rho + offset, "max_iterations": 3000}
                cfg = DetectorConfig(max_iterations=3000, keep_certificates=True)
                yield inputs, eta_shift(rho + offset, B), cfg
    for name, make in SEXTICS.items():
        for sigma in SIGMAS:
            inputs = {"family": name, "sigma": sigma, "max_iterations": 2000}
            cfg = DetectorConfig(max_iterations=2000, sigma=sigma, keep_certificates=True)
            yield inputs, make(), cfg
    for eta in ONES_ETAS:
        inputs = {"family": "ones", "m": 3, "n": 3, "eta": eta, "min_diameter": 0.01}
        cfg = DetectorConfig(min_diameter=0.01, keep_certificates=True)
        yield inputs, eta_shift(eta, ones_tensor(3, 3)), cfg


def _digest(cells) -> str:
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()


def sweep() -> list[dict]:
    records = []
    for inputs, A, cfg in _runs():
        verdict = detect(A, cfg)
        cells = [cell.tolist() for cell in verdict.certified_cells or ()]
        records.append({
            "inputs": inputs,
            "verdict": verdict.to_json_dict(),
            "certified_cells": len(cells),
            "cells_sha256": _digest(cells),
            "sorted_cells_sha256": _digest(sorted(cells)),
        })
    return records


def _name(inputs: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in inputs.items())


def _differences(path: str, old, new):
    """One line per differing leaf; floats that differ say by how many
    units in the last place."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _differences(f"{path}.{key}" if path else key, old.get(key), new.get(key))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _differences(f"{path}[{i}]", a, b)
    elif old != new:
        note = ""
        if isinstance(old, float) and isinstance(new, float) and math.isfinite(old):
            note = f" ({abs(new - old) / math.ulp(old):.0f} ulp apart)"
        yield f"{path}: golden {old!r}, now {new!r}{note}"


def mismatches(golden: list[dict], records: list[dict]) -> list[str]:
    if len(golden) != len(records):
        return [f"golden file has {len(golden)} runs, the sweep {len(records)}"]
    found = []
    for old, new in zip(golden, records):
        found += [f"run [{_name(old['inputs'])}] {line}"
                  for line in _differences("", old, new)]
    return found


def _load() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def test_sweep_matches_golden():
    found = mismatches(_load(), sweep())
    assert not found, "\n".join(found[:50])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite the golden file from the current code")
    args = parser.parse_args()
    records = sweep()
    if args.regenerate:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        print(f"wrote {len(records)} runs to {GOLDEN}")
        sys.exit(0)
    found = mismatches(_load(), records)
    print("\n".join(found) or f"{len(records)} runs match {GOLDEN}")
    sys.exit(1 if found else 0)
