"""Branch-and-bound copositivity test over the standard simplex.

Each cell of the evolving simplicial partition carries its vertex values
and its Bernstein coefficients: the coefficients of the form in the
cell's barycentric coordinates.  The loop tests the vertex values first:
one below ``-tau`` disproves copositivity, and that vertex is the
witness.  Otherwise a smallest coefficient of at least ``-sigma - tau``
certifies the cell, which is then dropped.  Any other cell is bisected at
its longest edge, depth first.  An empty frontier certifies copositivity
on the whole simplex; running out of budget returns an explicit undecided
verdict.

A cell is a read-only ``(n, n)`` array with one vertex per row; the root
is the identity.  Bisecting edge ``(p, q)`` makes two children, each the
parent with one endpoint's row replaced by the edge midpoint.  A child's
coefficients come from its parent's by midpoint subdivision, and it
inherits all vertex values but the midpoint's, so a bisection costs one
form evaluation and no dense contraction.

All sign decisions go through a single tolerance ``tau``: "negative" means
below ``-tau``, "nonnegative" means at least ``-tau``.  With the cellwise
slack ``sigma`` at zero a copositive verdict is exact up to ``tau``; with
``sigma`` positive it certifies the form to stay above ``-sigma`` on the
simplex and is reported as sigma-certified.

``sigma`` relaxes the certificate and never the refutation.  Running the
plain test on the shifted tensor ``A + sigma * E`` (``E`` all ones) gives
the same certificates, because every Bernstein coefficient of ``E`` on a
cell of the standard simplex is one, but it refutes only at a vertex with
``f(v) < -sigma - tau``.  This test refutes at any vertex with
``f(v) < -tau``, so it refutes sooner or where the shifted run would not,
and ``min_vertex_value`` is the smallest vertex value of ``A`` itself.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from .tensor import SymmetricTensor, integer, split_coefficients

__all__ = [
    "DetectorConfig",
    "Verdict",
    "VerdictKind",
    "detect",
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
        if integer(self.max_iterations, "max_iterations") < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        for name in ("tolerance", "sigma", "min_diameter"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


class VerdictKind(enum.Enum):
    COPOSITIVE = "copositive"
    NOT_COPOSITIVE = "not_copositive"
    UNDECIDED = "undecided"


@dataclass(frozen=True, eq=False)
class Verdict:
    """Result of a detection run.

    ``witness`` is present exactly for a not-copositive verdict and is a
    nonnegative unit-sum vector whose form value is below ``-tolerance``.
    ``certified_cells`` is retained only on request, as read-only vertex
    arrays with one vertex per row.  ``min_vertex_value`` tracks the
    smallest form value seen at any processed vertex (infinity if the run
    aborted before evaluating one); on an undecided run, a value near zero
    points at a zero of the form on the simplex, which a positive
    ``sigma`` gets past.
    """

    kind: VerdictKind
    iterations: int
    max_depth: int
    sigma: float
    tolerance: float
    witness: np.ndarray | None = None
    certified_cells: tuple[np.ndarray, ...] | None = None
    min_vertex_value: float = math.inf
    elapsed: float = 0.0

    @property
    def sigma_certified(self) -> bool:
        """A copositive verdict reached with ``sigma > 0``: the form stays
        above ``-sigma`` on the simplex, which is all it proves."""
        return self.kind is VerdictKind.COPOSITIVE and self.sigma > 0

    def to_json_dict(self) -> dict:
        return {
            "verdict": "sigma_certified" if self.sigma_certified else self.kind.value,
            "sigma": float(self.sigma),
            "tolerance": float(self.tolerance),
            "iterations": int(self.iterations),
            "max_depth": int(self.max_depth),
            "witness": None if self.witness is None else [float(v) for v in self.witness],
            "min_vertex_value": (
                None if math.isinf(self.min_vertex_value) else float(self.min_vertex_value)
            ),
        }


def _longest_edge(V: np.ndarray) -> tuple[int, int, float]:
    """Lexicographically first pair (p, q), p < q, of maximal squared
    length among the rows of ``V``, and that length.  One ``diff @ diff``
    per pair and a strict comparison, pairs in lexicographic order: past
    depth 26 squared lengths round, and another summation order could
    break a tie the other way."""
    n = len(V)
    best = (0, 1, -1.0)
    for p in range(n - 1):
        for q in range(p + 1, n):
            diff = V[p] - V[q]
            d2 = float(diff @ diff)
            if d2 > best[2]:
                best = (p, q, d2)
    return best


def detect(A: SymmetricTensor, cfg: DetectorConfig | None = None) -> Verdict:
    """Decide copositivity of ``A`` within the configured budget.

    Deterministic by construction: cells are processed depth first, the
    longest-edge tie-break is lexicographic, a cell's vertices are tested
    in list order, and after a bisection the child that replaced the later
    edge endpoint is processed next.
    """
    if cfg is None:
        cfg = DetectorConfig()
    if A.dim < 2:
        raise ValueError("detection needs dimension >= 2")

    start = time.perf_counter()
    m, n = A.order, A.dim
    tau = cfg.tolerance
    floor = -cfg.sigma - tau
    root = np.eye(n)
    root.setflags(write=False)
    # Frontier entries are (cell, Bernstein coefficients, vertex values,
    # depth), popped last in first out.  The root's coefficients are A's
    # entries: its barycentric coordinates are the coordinates themselves.
    frontier = [(root, A.coefficient_vector(), tuple(A.form(u) for u in root), 0)]
    iterations = 0
    max_depth = 0
    min_vertex = math.inf
    certified: list[np.ndarray] | None = [] if cfg.keep_certificates else None

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
        cell, coefficients, values, depth = frontier.pop()
        iterations += 1
        edge = None
        if cfg.min_diameter > 0.0:
            edge = _longest_edge(cell)
            if math.sqrt(edge[2]) < cfg.min_diameter:
                return verdict(VerdictKind.UNDECIDED)
        lowest = min(values)
        min_vertex = min(min_vertex, lowest)
        if lowest < -tau:
            i = next(i for i, value in enumerate(values) if value < -tau)
            return verdict(VerdictKind.NOT_COPOSITIVE, witness=np.array(cell[i]))
        if coefficients.min() >= floor:
            if certified is not None:
                certified.append(cell)
            continue
        p, q, _ = edge or _longest_edge(cell)
        midpoint = 0.5 * (cell[p] + cell[q])
        # Vertex values are never read off the coefficients: the midpoint
        # gets an exact form evaluation.
        mid = A.form(midpoint)
        # The first child replaces p, the second q; the second is popped next.
        for moved, kept in ((p, q), (q, p)):
            child = cell.copy()
            child[moved] = midpoint
            child.setflags(write=False)
            child_values = values[:moved] + (mid,) + values[moved + 1 :]
            child_coefficients = split_coefficients(coefficients, m, n, moved, kept)
            frontier.append((child, child_coefficients, child_values, depth + 1))
        max_depth = max(max_depth, depth + 1)
    return verdict(
        VerdictKind.COPOSITIVE,
        certified_cells=None if certified is None else tuple(certified),
    )


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
