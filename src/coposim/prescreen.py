"""Cheap necessary-condition refuters run before branch and bound.

Each check can only ever *disprove* copositivity; a pass carries no
certificate.  Every failure returns a witness that can be re-verified
independently by the inequality that produced it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .tensor import SymmetricTensor, integer

__all__ = [
    "DIAGONAL",
    "SUBTENSOR_SAMPLE",
    "ZERO_POINT_GRADIENT",
    "PrescreenReport",
    "barycentric_lattice",
    "diagonal_check",
    "run_prescreen",
    "subtensor_sample_refute",
    "zero_point_gradient_check",
]

DIAGONAL = "Diagonal"
ZERO_POINT_GRADIENT = "ZeroPointGradient"
SUBTENSOR_SAMPLE = "SubtensorSample"


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


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Positive integer compositions of ``total`` into ``parts`` parts, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for bars in itertools.combinations(range(1, total), parts - 1):
        cuts = (0,) + bars + (total,)
        yield tuple(cuts[i + 1] - cuts[i] for i in range(parts))


def barycentric_lattice(dim: int, d: int, interior: bool = False) -> Iterator[np.ndarray]:
    """Lattice points ``k / d`` of the standard simplex with integer
    ``k >= 0`` (or ``k >= 1`` when ``interior``) summing to ``d``."""
    if dim < 1 or d < 1:
        raise ValueError("dim and d must be positive")
    if interior:
        if d < dim:
            return
        for k in _compositions(d, dim):
            yield np.array(k, dtype=float) / d
    else:
        for k in itertools.product(range(d + 1), repeat=dim):
            if sum(k) == d:
                yield np.array(k, dtype=float) / d


def diagonal_check(A: SymmetricTensor, tau: float = 1e-12) -> PrescreenReport:
    """A negative diagonal entry refutes copositivity outright (the form
    value at the corresponding unit vector is that entry)."""
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

    ``x`` must be nonnegative and is rescaled to unit coordinate sum; the
    check only applies when the form vanishes there (within ``tau``), and
    raises otherwise.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (A.dim,):
        raise ValueError(f"point shape {x.shape} does not match dim {A.dim}")
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

    Each sample is the form of ``A`` at the embedded point: the terms of
    keys inside ``J`` are those of the subtensor's form, and every other
    term is an exact zero, so no subtensor is built.
    """
    J = tuple(sorted({integer(j) for j in J}))
    if not J:
        raise ValueError("index subset must be nonempty")
    if J[0] < 1 or J[-1] > A.dim:
        raise ValueError(f"index subset {list(J)} out of range 1..{A.dim}")
    grid_depth = int(grid_depth)
    if grid_depth < 1:
        raise ValueError(f"grid_depth must be >= 1, got {grid_depth}")
    d = grid_depth + len(J) - 1
    support = np.array(J) - 1
    for x in barycentric_lattice(len(J), d, interior=True):
        point = np.zeros(A.dim)
        point[support] = x
        if A.form(point) < -tau:
            return PrescreenReport(
                False, violated_condition=SUBTENSOR_SAMPLE, witness=point, J=J
            )
    return PrescreenReport(True, J=J)


def run_prescreen(
    A: SymmetricTensor,
    grid_depth: int = 2,
    tau: float = 1e-12,
) -> PrescreenReport:
    """Fixed-order refuter battery, stopping at the first failure:
    diagonal entries, then subtensor sampling on all pairs of indices.

    Singletons are not sampled: the only sample of a one-index subtensor is
    its diagonal entry, which the diagonal check has already passed.
    """
    report = diagonal_check(A, tau)
    if not report.passed:
        return report
    for J in itertools.combinations(range(1, A.dim + 1), 2):
        report = subtensor_sample_refute(A, J, grid_depth, tau)
        if not report.passed:
            return report
    return PrescreenReport(True)
