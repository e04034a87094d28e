"""Cheap necessary-condition refuters run before branch and bound.

Each check can only ever *disprove* copositivity; a pass carries no
certificate.  Every failure returns a witness that can be re-verified
independently by the inequality that produced it.  Each check takes a
sign tolerance ``tau``, which must be finite and nonnegative.

Face samples are computed in blocks of about ``2**16`` terms, so memory
stays bounded at any depth, and each is bit-identical to ``A.form`` at
the embedded point: its terms are formed as ``form`` forms them, keys off
the face add exact zeros there, and ``math.fsum`` is correctly rounded,
so neither those zeros nor the order of the terms changes a sum.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .tensor import SymmetricTensor, _key_index, _key_plan, canonical_keys, integer, nonnegative

__all__ = [
    "DIAGONAL",
    "SUBTENSOR_SAMPLE",
    "ZERO_POINT_GRADIENT",
    "PrescreenReport",
    "diagonal_check",
    "run_prescreen",
    "subtensor_sample_refute",
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


def _interior_lattice(dim: int, d: int, size: int) -> Iterator[np.ndarray]:
    """Lattice points ``k / d`` of the open standard simplex, as blocks of
    at most ``size`` rows: integer ``k >= 1`` summing to ``d``, one
    composition per choice of ``dim - 1`` cuts of ``1..d-1``, in
    lexicographic order.  Each block's cuts are differenced in numpy."""
    cuts = itertools.combinations(range(1, d), dim - 1)
    while block := list(itertools.islice(cuts, size)):
        bars = np.zeros((len(block), dim + 1), dtype=np.intp)
        bars[:, 1:-1], bars[:, -1] = block, d
        yield (bars[:, 1:] - bars[:, :-1]) / d


def _checked(tau: float, grid_depth=1) -> int:
    """Check ``tau``, then return ``grid_depth`` as a positive ``int``."""
    nonnegative(tau, "tau")
    grid_depth = integer(grid_depth, "grid_depth")
    if grid_depth < 1:
        raise ValueError(f"grid_depth must be >= 1, got {grid_depth}")
    return grid_depth


@functools.lru_cache(maxsize=64)
def _face_ranks(order: int, dim: int, faces: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Read-only positions among the canonical keys of shape ``(order, dim)``
    of the keys in each face (a sorted index tuple), one row per face."""
    index, keys = _key_index(order, dim), _key_index(order, len(faces[0]))
    ranks = np.array([[index[tuple(face[i - 1] for i in key)] for key in keys] for face in faces])
    ranks.setflags(write=False)
    return ranks


def _sample_faces(A: SymmetricTensor, faces: tuple, grid_depth: int, tau: float):
    """The first sample below ``-tau`` on ``faces`` (sorted index tuples of
    one size), in face and then lattice order, as a failed report, or
    ``None``.  A face with a negative sample drops the faces after it."""
    s = len(faces[0])
    (columns, multiplicities), _ = _key_plan(A.order, s, tuple(canonical_keys(A.order, s)))
    weights = multiplicities * A.coefficient_vector()[_face_ranks(A.order, A.dim, faces)]
    found = None
    for points in _interior_lattice(s, grid_depth + s - 1, max(1, _BLOCK_TERMS // weights.size)):
        products = functools.reduce(np.multiply, (points[:, c] for c in columns))  # as ``form``
        terms = (weights[:, None, :] * products).reshape(-1, products.shape[1])
        hits = np.flatnonzero(np.fromiter(map(math.fsum, terms.tolist()), float, len(terms)) < -tau)
        if hits.size:
            face, point = divmod(int(hits[0]), len(points))
            witness = np.zeros(A.dim)
            witness[np.array(faces[face]) - 1] = points[point]
            found = PrescreenReport(False, SUBTENSOR_SAMPLE, witness, faces[face])
            faces, weights = faces[:face], weights[:face]
            if not faces:
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


def subtensor_sample_refute(
    A: SymmetricTensor, J: Iterable[int], grid_depth: int = 2, tau: float = 1e-12
) -> PrescreenReport:
    """Sample the principal subtensor on index set ``J`` over an interior
    barycentric lattice of the sub-simplex; a negative sample, embedded
    back into full space with zeros off ``J``, is a direct witness.

    Depth 1 samples the sub-simplex centroid; depth ``g`` uses the interior
    lattice of denominator ``g + len(J) - 1``.  Passing certifies nothing
    (sampling is one-sided).

    Each sample is ``A.form`` at the embedded point, bit for bit, with no
    subtensor built; the module docstring says why, and bounds the blocks.
    """
    grid_depth = _checked(tau, grid_depth)
    J = tuple(sorted({integer(j) for j in J}))
    if not J:
        raise ValueError("index subset must be nonempty")
    if J[0] < 1 or J[-1] > A.dim:
        raise ValueError(f"index subset {list(J)} out of range 1..{A.dim}")
    return _sample_faces(A, (J,), grid_depth, tau) or PrescreenReport(True, J=J)


def run_prescreen(A: SymmetricTensor, grid_depth: int = 2, tau: float = 1e-12) -> PrescreenReport:
    """Fixed-order refuter battery, stopping at the first failure:
    diagonal entries, then subtensor sampling on all pairs of indices.

    Singletons are not sampled: the only sample of a one-index subtensor is
    its diagonal entry, which the diagonal check has already passed.
    """
    grid_depth = _checked(tau, grid_depth)
    report = diagonal_check(A, tau)
    pairs = tuple(itertools.combinations(range(1, A.dim + 1), 2))
    if report.passed and pairs:
        return _sample_faces(A, pairs, grid_depth, tau) or report
    return report
