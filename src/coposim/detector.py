"""Branch-and-bound copositivity test over the standard simplex.

Each cell of the evolving simplicial partition is classified by two checks:
a vertex with a negative form value disproves copositivity outright, and a
cell whose coefficient tensor (the congruence transform by the vertex
matrix) is entrywise nonnegative is certified and dropped.  Unresolved
cells are bisected at their longest edge, depth first.  An empty frontier
certifies copositivity on the whole simplex; running out of budget returns
an explicit undecided verdict.

The search carries each cell's coefficients (its Bernstein coefficients)
and vertex values with it.  A child's coefficients come from its parent's
by midpoint subdivision, and it inherits all vertex values but the
midpoint's, so a bisection costs one form evaluation and no dense
congruence.  :func:`certify_cell` classifies a single cell from scratch by
the same rule.

All sign decisions go through a single tolerance ``tau``: "negative" means
below ``-tau``, "nonnegative" means at least ``-tau``.  With the cellwise
slack ``sigma`` at zero a copositive verdict is exact up to ``tau``; with
``sigma`` positive it certifies the form to stay above ``-sigma`` on the
simplex.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .instances import ones_tensor
from .simplex import PartitionFrontier, Simplex, standard_simplex
from .tensor import SymmetricTensor, split_coefficients

__all__ = [
    "CellKind",
    "CellStatus",
    "DetectorConfig",
    "StallDiagnostic",
    "Verdict",
    "VerdictKind",
    "certify_cell",
    "check_boundary_zero_stall",
    "detect",
    "detect_with_relaxation",
    "verify_witness",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Budget and tolerances for one detection run.

    ``max_iterations`` counts popped cells (the default mirrors the
    100-cell budget used in the reference benchmarks), ``tolerance`` is the
    sign-classification slack, ``sigma`` relaxes the cellwise coefficient
    test, and cells with diameter below ``min_diameter`` abort the run as
    undecided instead of refining without bound.
    """

    max_iterations: int = 100
    tolerance: float = 1e-12
    sigma: float = 0.0
    min_diameter: float = 0.0
    keep_certificates: bool = False

    def __post_init__(self):
        if int(self.max_iterations) < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        for name in ("tolerance", "sigma", "min_diameter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


class VerdictKind(enum.Enum):
    COPOSITIVE = "copositive"
    NOT_COPOSITIVE = "not_copositive"
    UNDECIDED = "undecided"


class CellKind(enum.Enum):
    NEGATIVE_VERTEX = "negative_vertex"
    CERTIFIED = "certified"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class CellStatus:
    """Outcome of the vertex and coefficient checks on one cell.

    ``vertex_index`` and ``vertex_value`` identify the offending vertex for
    a negative-vertex outcome; ``vertex_values`` always holds the form
    value at every vertex, in vertex-list order.
    """

    kind: CellKind
    vertex_index: int | None = None
    vertex_value: float | None = None
    vertex_values: tuple[float, ...] = ()


@dataclass(frozen=True, eq=False)
class Verdict:
    """Result of a detection run.

    ``witness`` is present exactly for a not-copositive verdict and is a
    nonnegative unit-sum vector whose form value is below ``-tolerance``.
    ``certified_cells`` is retained only on request.  ``min_vertex_value``
    tracks the smallest form value seen at any processed vertex (infinity
    if the run aborted before evaluating one).
    """

    kind: VerdictKind
    iterations: int
    max_depth: int
    sigma: float
    tolerance: float
    sigma_certified: bool = False
    witness: np.ndarray | None = None
    certified_cells: tuple[Simplex, ...] | None = None
    min_vertex_value: float = math.inf
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        if self.kind is VerdictKind.COPOSITIVE and self.sigma_certified:
            label = "sigma_certified"
        else:
            label = self.kind.value
        return {
            "verdict": label,
            "sigma": float(self.sigma),
            "tolerance": float(self.tolerance),
            "iterations": int(self.iterations),
            "max_depth": int(self.max_depth),
            "witness": None if self.witness is None else [float(v) for v in self.witness],
            "min_vertex_value": (
                None if math.isinf(self.min_vertex_value) else float(self.min_vertex_value)
            ),
        }


def _classify(
    values: tuple[float, ...], lowest_coefficient: Callable[[], float], sigma: float, tau: float
) -> CellStatus:
    """The cell test shared by :func:`certify_cell` and :func:`detect`.

    Vertex values are scanned in list order: one below ``-tau`` settles the
    cell as a negative vertex.  Otherwise ``lowest_coefficient()``, the
    smallest coefficient of the cell (implicit zeros included), certifies
    the cell when it is at least ``-sigma - tau``.
    """
    for i, value in enumerate(values):
        if value < -tau:
            return CellStatus(
                CellKind.NEGATIVE_VERTEX,
                vertex_index=i,
                vertex_value=value,
                vertex_values=values,
            )
    if lowest_coefficient() >= -sigma - tau:
        return CellStatus(CellKind.CERTIFIED, vertex_values=values)
    return CellStatus(CellKind.INDETERMINATE, vertex_values=values)


def certify_cell(
    A: SymmetricTensor, S: Simplex, sigma: float = 0.0, tau: float = 1e-12
) -> CellStatus:
    """Classify one cell.

    Vertices are scanned first, in list order: a form value below ``-tau``
    settles the cell as a negative vertex.  Otherwise the cell is certified
    when every coefficient of the congruence transform by the vertex matrix
    is at least ``-sigma - tau`` (which bounds the form below by ``-sigma``
    on the whole cell), and indeterminate when neither test fires.  The
    coefficients are computed afresh by :meth:`SymmetricTensor.congruence`.
    """
    if S.dim != A.dim:
        raise ValueError(f"cell dimension {S.dim} does not match tensor dim {A.dim}")
    values = tuple(A.form(u) for u in S.vertices)
    return _classify(
        values, lambda: A.congruence(S.vertex_matrix).min_coefficient(), sigma, tau
    )


def detect(A: SymmetricTensor, cfg: DetectorConfig | None = None) -> Verdict:
    """Decide copositivity of ``A`` within the configured budget.

    Deterministic by construction: cells are processed depth first, the
    longest-edge tie-break is lexicographic, and after a bisection the
    child that replaced the later edge endpoint is processed next.
    """
    if cfg is None:
        cfg = DetectorConfig()
    if A.dim < 2:
        raise ValueError("detection needs dimension >= 2")

    start = time.perf_counter()
    m, n = A.order, A.dim
    root = standard_simplex(n)
    # Each frontier entry is (simplex, Bernstein coefficients, vertex values).
    # The root's coefficients are A's entries: the congruence by I is exact.
    frontier = PartitionFrontier()
    frontier.push((root, A.coefficient_vector(), tuple(A.form(u) for u in root.vertices)), 0)
    iterations = 0
    max_depth = 0
    min_vertex = math.inf
    certified: list[Simplex] | None = [] if cfg.keep_certificates else None

    def verdict(kind: VerdictKind, **kw) -> Verdict:
        return Verdict(
            kind,
            iterations=iterations,
            max_depth=max_depth,
            sigma=cfg.sigma,
            tolerance=cfg.tolerance,
            min_vertex_value=min_vertex,
            elapsed=time.perf_counter() - start,
            **kw,
        )

    while frontier:
        if iterations >= cfg.max_iterations:
            return verdict(VerdictKind.UNDECIDED)
        (cell, coefficients, values), depth = frontier.pop()
        iterations += 1
        if cfg.min_diameter > 0.0 and cell.diameter() < cfg.min_diameter:
            return verdict(VerdictKind.UNDECIDED)
        status = _classify(values, coefficients.min, cfg.sigma, cfg.tolerance)
        min_vertex = min(min_vertex, *values)
        if status.kind is CellKind.NEGATIVE_VERTEX:
            witness = np.array(cell.vertices[status.vertex_index])
            return verdict(VerdictKind.NOT_COPOSITIVE, witness=witness)
        if status.kind is CellKind.CERTIFIED:
            if certified is not None:
                certified.append(cell)
            continue
        p, q = cell.longest_edge()
        first, second = cell.bisect_longest_edge()
        # Vertex values are never read off the coefficients: the midpoint
        # gets an exact form evaluation, the same one certify_cell would make.
        mid = A.form(first.vertices[p])
        for child, moved, kept in ((first, p, q), (second, q, p)):
            child_values = values[:moved] + (mid,) + values[moved + 1 :]
            child_coefficients = split_coefficients(coefficients, m, n, moved, kept)
            frontier.push((child, child_coefficients, child_values), depth + 1)
        max_depth = max(max_depth, depth + 1)
    return verdict(
        VerdictKind.COPOSITIVE,
        certified_cells=None if certified is None else tuple(certified),
    )


def detect_with_relaxation(
    A: SymmetricTensor, sigma: float, cfg: DetectorConfig | None = None
) -> Verdict:
    """Run detection on ``A`` shifted up by ``sigma`` times the all-ones
    tensor.

    The shifted tensor is strictly copositive whenever ``A`` is copositive,
    so the run terminates on inputs where the plain test refines forever.
    A copositive verdict certifies the form of ``A`` to stay above
    ``-sigma`` on the simplex (reported with ``sigma_certified`` set); a
    negative witness for the shifted tensor is an even stronger witness for
    ``A`` itself and is returned unchanged.
    """
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError(f"relaxation offset must be positive, got {sigma}")
    if cfg is None:
        cfg = DetectorConfig()
    shifted = A + sigma * ones_tensor(A.order, A.dim)
    result = detect(shifted, cfg)
    if result.kind is VerdictKind.COPOSITIVE:
        return replace(result, sigma=sigma, sigma_certified=True)
    return replace(result, sigma=sigma)


def verify_witness(A: SymmetricTensor, x, tau: float = 1e-12) -> bool:
    """Independent check of a non-copositivity witness: ``x`` nonnegative
    with unit coordinate sum (within ``tau``) and form value below
    ``-tau``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.dim,):
        raise ValueError(f"witness shape {x.shape} does not match dim {A.dim}")
    if np.min(x) < -tau:
        return False
    if abs(float(x.sum()) - 1.0) > tau:
        return False
    return A.form(x) < -tau


@dataclass(frozen=True)
class StallDiagnostic:
    """Post-mortem for an undecided run: a vertex-value minimum that hugged
    zero points at an input that is copositive but not strictly so, for
    which the relaxed test terminates."""

    applicable: bool
    min_vertex_value: float | None = None
    stall_suspected: bool = False


def check_boundary_zero_stall(
    A: SymmetricTensor, verdict: Verdict, zero_window: float = 1e-6
) -> StallDiagnostic:
    """Inspect an undecided verdict for the refine-forever signature.

    Reports the minimum form value over all vertices the run generated;
    a minimum within ``zero_window * (1 + ||A||)`` of zero suggests a zero
    of the form on the simplex and hence retrying with a positive
    relaxation offset.  Not applicable to decided verdicts.
    """
    if verdict.kind is not VerdictKind.UNDECIDED:
        return StallDiagnostic(applicable=False)
    if math.isinf(verdict.min_vertex_value):
        return StallDiagnostic(applicable=True, min_vertex_value=None)
    suspected = verdict.min_vertex_value <= zero_window * (1.0 + A.norm())
    return StallDiagnostic(
        applicable=True,
        min_vertex_value=verdict.min_vertex_value,
        stall_suspected=bool(suspected),
    )
