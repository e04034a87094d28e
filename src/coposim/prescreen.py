"""Cheap necessary-condition refuters run before branch and bound.

Each check can only ever *disprove* copositivity; a pass carries no
certificate.  Every failure returns a witness that can be re-verified
independently by the inequality that produced it.  Each check takes a
sign tolerance ``tau``, which must be finite and nonnegative.

The battery, :func:`run_prescreen`, checks the diagonal entries, then
samples the form on every edge ``(i, j)`` of the simplex, the two-index
principal subtensors, at the interior points ``(k, d - k) / d``.  The
samples of all pairs are numbered in one face-major sequence and scanned
in blocks of at most ``2**16`` terms, so memory stays bounded at any depth
and any dimension, and each sample is bit-identical to ``A.form`` at the
embedded point: its terms are formed as ``form`` forms them, keys off the
edge add exact zeros there, and ``math.fsum`` is correctly rounded, so
neither those zeros nor the order of the terms changes a sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .tensor import SymmetricTensor, _key_plan, _key_table, corner_indices, integer, nonnegative

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
        return {
            "passed": self.passed,
            "violated_condition": self.violated_condition,
            "witness": None if self.witness is None else np.asarray(self.witness, float).tolist(),
            "J": None if self.J is None else list(self.J),
        }


def _sample_blocks(faces: int, grid_depth: int, size: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The samples ``s = 0 .. faces * g - 1`` of depth ``g``, face-major, in
    blocks of at most ``size``: each block's faces ``s // g`` and its points
    ``(k + 1, g - k) / (g + 1)``, ``k = s % g``, one row per sample."""
    total = faces * grid_depth
    for start in range(0, total, size):
        face, k = np.divmod(np.arange(start, min(start + size, total)), grid_depth)
        yield face, np.column_stack((k + 1, grid_depth - k)) / (grid_depth + 1)


@functools.lru_cache(maxsize=64)
def _face_ranks(order: int, dim: int) -> np.ndarray:
    """Read-only positions among the canonical keys of shape ``(order, dim)``
    of the keys on each pair face ``(i, j)``, one row per pair, in
    lexicographic pair order."""
    prefix = np.zeros((order + 1, dim), np.intp)  # row k: the first k rows of the rank table summed
    np.cumsum(_key_table(order, dim)[1], axis=0, out=prefix[1:])
    heads = prefix[::-1].T  # face key r is order - r copies of i, then r copies of j
    i, j = np.triu_indices(dim, 1)
    ranks = heads[i]
    ranks += (prefix[order][:, None] - heads)[j]
    ranks.setflags(write=False)
    return ranks


def _sample_faces(A: SymmetricTensor, grid_depth: int, tau: float):
    """The first sample below ``-tau`` on the pair faces, in pair and then
    lattice order, as a failed report, or ``None``."""
    (columns, multiplicities), _ = _key_plan(A.order, 2)
    weights = multiplicities * A.coefficient_vector()[_face_ranks(A.order, A.dim)]
    size = max(1, _BLOCK_TERMS // len(multiplicities))
    for face, points in _sample_blocks(len(weights), grid_depth, size):
        products = functools.reduce(np.multiply, (points[:, c] for c in columns))  # as ``form``
        terms = (weights[face] * products).tolist()
        hits = np.flatnonzero(np.fromiter(map(math.fsum, terms), float, len(terms)) < -tau)
        if hits.size:
            pair = np.column_stack(np.triu_indices(A.dim, 1))[face[hits[0]]]  # as ``_face_ranks``
            witness = np.zeros(A.dim)
            witness[pair] = points[hits[0]]
            return PrescreenReport(False, SUBTENSOR_SAMPLE, witness, tuple((pair + 1).tolist()))
    return None


def diagonal_check(A: SymmetricTensor, tau: float = 1e-12) -> PrescreenReport:
    """A negative diagonal entry refutes copositivity outright (the form
    value at the corresponding unit vector is that entry)."""
    nonnegative(tau, "tau")
    for i, value in enumerate(A.coefficient_vector().take(corner_indices(A.order, A.dim)).tolist()):
        if value < -tau:
            witness = np.zeros(A.dim)
            witness[i] = 1.0
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
    nonnegative(tau, "tau")
    x = A._check_vector(x)
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
    nonnegative(tau, "tau")
    grid_depth = integer(grid_depth, "grid_depth", 1)
    report = diagonal_check(A, tau)
    if report.passed and A.dim > 1:
        return _sample_faces(A, grid_depth, tau) or report
    return report
