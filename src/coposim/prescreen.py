"""Cheap necessary-condition refuters run before branch and bound.

Each check can only ever *disprove* copositivity; a pass carries no
certificate.  Every failure returns a witness that can be re-verified
independently by the inequality that produced it.  Each check takes a
sign tolerance ``tau``, which must be finite and nonnegative.

The battery, :func:`run_prescreen`, checks the diagonal entries, then
samples the form on every edge ``(i, j)`` of the simplex, the two-index
principal subtensors, at the interior points ``(k, d - k) / d``.  All
pairs are sampled together, in blocks of about ``2**16`` terms, so memory
stays bounded at any depth, and each sample is bit-identical to
``A.form`` at the embedded point: its terms are formed as ``form`` forms
them, keys off the edge add exact zeros there, and ``math.fsum`` is
correctly rounded, so neither those zeros nor the order of the terms
changes a sum.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .tensor import SymmetricTensor, _key_index, _key_plan, integer, nonnegative

__all__ = [
    "DIAGONAL",
    "SUBTENSOR_SAMPLE",
    "ZERO_POINT_GRADIENT",
    "PrescreenReport",
    "diagonal_check",
    "run_prescreen",
    "zero_point_gradient_check",
]

DIAGONAL = "Diagonal"
ZERO_POINT_GRADIENT = "ZeroPointGradient"
SUBTENSOR_SAMPLE = "SubtensorSample"
_BLOCK_TERMS = 2**16  # face-sample terms evaluated at once


@dataclass(frozen=True)
class PrescreenReport:
    """Outcome of one refuter (or of the whole battery).

    A failed report names the violated condition and carries the witness:
    a point of the standard simplex, or for the zero-point gradient check
    the zero together with the unit direction in which the form decreases.
    """

    passed: bool
    violated_condition: str | None = None
    witness: np.ndarray | tuple[np.ndarray, np.ndarray] | None = None
    J: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        if isinstance(self.witness, tuple):
            witness = [[float(v) for v in w] for w in self.witness]
        elif self.witness is None:
            witness = None
        else:
            witness = [float(v) for v in self.witness]
        return {
            "passed": self.passed,
            "violated_condition": self.violated_condition,
            "witness": witness,
            "J": None if self.J is None else list(self.J),
        }


def _edge_lattice(d: int, size: int) -> Iterator[np.ndarray]:
    """Interior lattice points ``(k, d - k) / d`` of an edge, ``k = 1..d-1``
    in increasing order, as blocks of at most ``size`` rows."""
    for start in range(1, d, size):
        k = np.arange(start, min(start + size, d))
        yield np.column_stack((k, d - k)) / d


def _checked(tau: float, grid_depth=1) -> int:
    """Check ``tau``, then return ``grid_depth`` as a positive ``int``."""
    nonnegative(tau, "tau")
    grid_depth = integer(grid_depth, "grid_depth")
    if grid_depth < 1:
        raise ValueError(f"grid_depth must be >= 1, got {grid_depth}")
    return grid_depth


@functools.lru_cache(maxsize=64)
def _face_ranks(order: int, dim: int) -> np.ndarray:
    """Read-only positions among the canonical keys of shape ``(order, dim)``
    of the keys on each pair face ``(i, j)``, one row per pair, in
    lexicographic pair order."""
    index, keys = _key_index(order, dim), _key_index(order, 2)
    pairs = itertools.combinations(range(1, dim + 1), 2)
    ranks = np.array([[index[tuple(pair[i - 1] for i in key)] for key in keys] for pair in pairs])
    ranks.setflags(write=False)
    return ranks


def _sample_faces(A: SymmetricTensor, grid_depth: int, tau: float):
    """The first sample below ``-tau`` on the pair faces, in pair and then
    lattice order, as a failed report, or ``None``.  A pair with a negative
    sample drops the pairs after it."""
    (columns, multiplicities), _ = _key_plan(A.order, 2)
    weights = multiplicities * A.coefficient_vector()[_face_ranks(A.order, A.dim)]
    found = None
    for points in _edge_lattice(grid_depth + 1, max(1, _BLOCK_TERMS // weights.size)):
        products = functools.reduce(np.multiply, (points[:, c] for c in columns))  # as ``form``
        terms = (weights[:, None, :] * products).reshape(-1, products.shape[1])
        hits = np.flatnonzero(np.fromiter(map(math.fsum, terms.tolist()), float, len(terms)) < -tau)
        if hits.size:
            face, point = divmod(int(hits[0]), len(points))
            i, j = next(itertools.islice(itertools.combinations(range(1, A.dim + 1), 2), face, None))
            witness = np.zeros(A.dim)
            witness[[i - 1, j - 1]] = points[point]
            found = PrescreenReport(False, SUBTENSOR_SAMPLE, witness, (i, j))
            weights = weights[:face]
            if not face:
                break
    return found


def diagonal_check(A: SymmetricTensor, tau: float = 1e-12) -> PrescreenReport:
    """A negative diagonal entry refutes copositivity outright (the form
    value at the corresponding unit vector is that entry)."""
    _checked(tau)
    for i in range(1, A.dim + 1):
        value = A[(i,) * A.order]
        if value < -tau:
            witness = np.zeros(A.dim)
            witness[i - 1] = 1.0
            return PrescreenReport(False, violated_condition=DIAGONAL, witness=witness)
    return PrescreenReport(True)


def zero_point_gradient_check(
    A: SymmetricTensor, x, tau: float = 1e-12
) -> PrescreenReport:
    """At a nonnegative zero of the form, a copositive tensor must have an
    entrywise nonnegative one-slot contraction; a negative component
    refutes copositivity.

    ``x`` must be finite and nonnegative and is rescaled to unit
    coordinate sum; the check only applies when the form vanishes there
    (within ``tau``), and raises otherwise.
    """
    _checked(tau)
    x = np.asarray(x, dtype=float)
    if x.shape != (A.dim,):
        raise ValueError(f"point shape {x.shape} does not match dim {A.dim}")
    if not np.isfinite(x).all():
        raise ValueError("point must be finite")
    if np.min(x) < -tau:
        raise ValueError("point must be nonnegative")
    total = float(x.sum())
    if total <= 0:
        raise ValueError("point must be nonzero")
    x = x / total
    value = A.form(x)
    if abs(value) > tau:
        raise ValueError(
            f"form value {value} at the supplied point is not zero within {tau}; "
            "the zero-point test does not apply"
        )
    gradient = A.gradient_form(x)
    worst = int(np.argmin(gradient))
    if gradient[worst] < -tau:
        direction = np.zeros(A.dim)
        direction[worst] = 1.0
        return PrescreenReport(
            False, violated_condition=ZERO_POINT_GRADIENT, witness=(x, direction)
        )
    return PrescreenReport(True)


def run_prescreen(A: SymmetricTensor, grid_depth: int = 2, tau: float = 1e-12) -> PrescreenReport:
    """Fixed-order refuter battery, stopping at the first failure:
    diagonal entries, then subtensor sampling on all pairs ``J`` of indices,
    depth ``g`` at the ``g`` interior points of denominator ``g + 1``.

    Singletons are not sampled: the only sample of a one-index subtensor is
    its diagonal entry, which the diagonal check has already passed.
    """
    grid_depth = _checked(tau, grid_depth)
    report = diagonal_check(A, tau)
    if report.passed and A.dim > 1:
        return _sample_faces(A, grid_depth, tau) or report
    return report
