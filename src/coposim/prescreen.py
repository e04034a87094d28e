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
embedded point: its monomials come from the product ``form`` calls, keys
off the edge add exact zeros there, and ``math.fsum`` is correctly rounded, so
neither those zeros nor the order of the terms changes a sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .tensor import (SymmetricTensor, _face_ranks, _key_plan, _monomials, corner_indices, integer,
                     nonnegative)

__all__ = [
    "DIAGONAL",
    "SUBTENSOR_SAMPLE",
    "PrescreenReport",
    "run_prescreen",
]

DIAGONAL = "Diagonal"
SUBTENSOR_SAMPLE = "SubtensorSample"
_BLOCK_TERMS = 2**16  # face-sample terms evaluated at once


@dataclass(frozen=True)
class PrescreenReport:
    """Outcome of one refuter (or of the whole battery).

    A failed report names the violated condition and carries the witness,
    a point of the standard simplex.
    """

    passed: bool
    violated_condition: str | None = None
    witness: np.ndarray | None = None
    J: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violated_condition": self.violated_condition,
            "witness": None if self.witness is None else self.witness.tolist(),
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


def _sample_faces(A: SymmetricTensor, grid_depth: int, tau: float):
    """The first sample below ``-tau`` on the pair faces, in pair and then
    lattice order, as a failed report, or ``None``."""
    ranks = _face_ranks(A.order, A.dim)  # no rows in dimension 1
    values = A.coefficient_vector()
    size = max(1, _BLOCK_TERMS // ranks.shape[1])
    for face, points in _sample_blocks(len(ranks), grid_depth, size):
        # The pair shape's plan is looked up only once there is a face: in
        # dimension 1, orders past about 1030 have none within the float range.
        (columns, multiplicities), _ = _key_plan(A.order, 2)
        terms = (multiplicities * values[ranks[face]] * _monomials(columns, points.T).T).tolist()
        hits = np.flatnonzero(np.fromiter(map(math.fsum, terms), float, len(terms)) < -tau)
        if hits.size:
            pair = np.column_stack(np.triu_indices(A.dim, 1))[face[hits[0]]]  # as ``_face_ranks``
            witness = np.zeros(A.dim)
            witness[pair] = points[hits[0]]
            return PrescreenReport(False, SUBTENSOR_SAMPLE, witness, tuple((pair + 1).tolist()))
    return None


def _diagonal(A: SymmetricTensor, tau: float):
    """The first diagonal entry below ``-tau``, the form's value at its unit
    vector, as a failed report, or ``None``."""
    for i, value in enumerate(A.coefficient_vector().take(corner_indices(A.order, A.dim)).tolist()):
        if value < -tau:
            witness = np.zeros(A.dim)
            witness[i] = 1.0
            return PrescreenReport(False, DIAGONAL, witness)
    return None


def run_prescreen(A: SymmetricTensor, grid_depth: int = 2, tau: float = 1e-12) -> PrescreenReport:
    """Fixed-order refuter battery, stopping at the first failure:
    diagonal entries, then subtensor sampling on all pairs ``J`` of indices,
    depth ``g`` at the ``g`` interior points of denominator ``g + 1``.

    Singletons are not sampled: the only sample of a one-index subtensor is
    its diagonal entry, which the diagonal stage has already passed.  In
    dimension 1 there is no pair to sample.
    """
    tau = nonnegative(tau, "tau")
    grid_depth = integer(grid_depth, "grid_depth", 1)
    return _diagonal(A, tau) or _sample_faces(A, grid_depth, tau) or PrescreenReport(True)
