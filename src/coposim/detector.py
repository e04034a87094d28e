"""Branch-and-bound copositivity test over the standard simplex.

Each cell of the evolving simplicial partition carries its Bernstein
coefficients: the coefficients of the form in the cell's barycentric
coordinates.  The loop tests the vertex values first: one below ``-tau``
disproves copositivity, and that vertex is the witness.  Otherwise a
smallest coefficient of at least ``-sigma - tau`` certifies the cell,
which is then dropped.  Any other cell is bisected at its longest edge,
depth first.  An empty frontier certifies copositivity on the whole
simplex; running out of budget, or a cell to bisect of diameter below
``min_diameter``, returns an explicit undecided verdict.  In dimension 1
the root's one coefficient is its vertex value, which decides the root.

A cell is a tuple of ``n`` vertex tuples of Python floats; the root is
the identity's rows.  Bisecting edge ``(p, q)`` makes two children, each
the parent with one endpoint replaced by the edge midpoint, whose
coefficients come from the parent's by midpoint subdivision in one
gather.  Only a witness, an exact form evaluation and a certificate (a
read-only ``(n, n)`` array, one vertex per row) are arrays.

The midpoint's value is read off that split, as a filtered predicate in
the sense of Shewchuk (Discrete Comput. Geom., 1997).  In exact
arithmetic the first child's corner coefficient, the one whose key holds
``m`` copies of the midpoint, is the form's value there; in floats it is
within a bound of it, and only a value within the bound of the running
minimum ``min_vertex`` could change a decision, so only such a value gets
an exact form evaluation.  The bound: every exact coefficient lies within
``M = max|entry of A|``, since each split takes convex combinations.  A
split rounds at most ``m + 1`` products and sums of numbers within ``M``,
so each level adds about ``(m + 1) u M`` of error (``u = 2**-53``), and
convex combinations carry the parent's error over without growing it.
The form evaluation is within about ``(m + 1) u M`` of the true value
too: its terms are rounded products whose weights sum to ``M`` at most on
the simplex, and ``math.fsum`` adds them with one rounding.  A midpoint
made by bisecting a cell at depth ``d`` has gone through ``d + 1`` split
levels, so the two differ by less than ``(d + 3)(m + 2) u M``, and the
filter takes eight times that.  Past depth 50 the float midpoint itself
may round, and the form is always evaluated.

A value taken off the split can never matter.  A bisection happens only
after the popped cell passed the vertex test, so ``min_vertex >= -tau``
then, and it only falls afterwards.  A value taken is more than the bound
above ``min_vertex``, so the form's value at that midpoint is above it
too: neither refutes, and neither becomes the running minimum when the
child is popped.  Verdicts, witnesses, ``min_vertex_value``, iteration counts and
certified cells are those of evaluating every midpoint exactly.

A frontier entry carries a single vertex value: a child's is its new
vertex's, the midpoint's.  The test stays exact, because the child's
other vertices are its parent's, whose values were all at least ``-tau``
and were folded into the running minimum when the parent was popped; so
only the new vertex can refute the child or lower that minimum.  The
root carries the smallest of its corner coefficients, which are its vertex
values, and the first vertex in list order below ``-tau`` if there is
one.  Every entry also carries its smallest coefficient.

A child's frontier entry holds references, not copies: its parent's
cell, the index of the vertex it replaced, the midpoint, the parent's
squared edge lengths (the upper triangle as a list, pairs in
lexicographic order, then a sentinel 0.0) and the midpoint's row of
squared distances to the parent's vertices.  About half of the cells a
search pops are leaves, certified or refuted on the values they carry; a
refuted child's witness is the midpoint.  So the child's cell, its
parent's with one vertex replaced, is built only when it is bisected or
kept as a certificate, and its lengths, its parent's copied with the
``n - 1`` slots of the replaced vertex taken from the row, only when it
is bisected.  Siblings share the parent's
cell, the midpoint, the lengths and the row, and nothing writes into
them.  The root enters as the identity with its vertex ``first``
replaced by itself.

No length is computed from coordinates: the midpoint's row follows from
the parent's lengths by the median formula ``|mid - v|^2 = (|p - v|^2 +
|q - v|^2) / 2 - |p - q|^2 / 4`` in Python floats, correctly rounded on
every platform.  Through depth 26 the lengths are exact; past it they
may round, and these bits and the tie-break, the first maximum of the
list, keep the search the same cell for cell everywhere.

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
import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .tensor import SymmetricTensor, corner_indices, integer, nonnegative, split_coefficients

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
    test, and a cell about to be bisected whose diameter is below
    ``min_diameter`` ends the run as undecided instead of refining without
    bound; a cell its numbers refute or certify is decided at any size.
    """

    max_iterations: int = 100
    tolerance: float = 1e-12
    sigma: float = 0.0
    min_diameter: float = 0.0
    keep_certificates: bool = False

    def __post_init__(self):
        integer(self.max_iterations, "max_iterations", 1)
        for name in ("tolerance", "sigma", "min_diameter"):
            nonnegative(getattr(self, name), name)
        if not isinstance(self.keep_certificates, bool):
            raise ValueError(f"keep_certificates must be a bool, got {self.keep_certificates!r}")


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


@functools.lru_cache(maxsize=64)
def _edges(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...], tuple]:
    """The pairs ``p < q`` of ``n`` vertices in lexicographic order; per
    vertex ``v`` the slot ``at[v][j]`` of the pair of ``v`` and ``j`` in a
    list of squared lengths, where ``at[v][v]`` is the sentinel slot at the
    end, which holds 0.0; and the root cell, the identity's rows."""
    pairs = tuple(itertools.combinations(range(n), 2))
    slot = {pair: k for k, (p, q) in enumerate(pairs) for pair in ((p, q), (q, p))}
    at = tuple(tuple(slot.get((v, j), len(pairs)) for j in range(n)) for v in range(n))
    root = tuple(tuple(float(i == j) for j in range(n)) for i in range(n))
    return pairs, at, root


# Slack of the midpoint filter, in units of (m + 2) u M per split level;
# see the module docstring.
_SAFETY = 8.0


def detect(A: SymmetricTensor, cfg: DetectorConfig | None = None) -> Verdict:
    """Decide copositivity of ``A`` within the configured budget.

    Deterministic by construction: cells are processed depth first, the
    longest-edge tie-break is lexicographic, a cell's vertices are tested
    in list order, and after a bisection the child that replaced the later
    edge endpoint is processed next.
    """
    if cfg is None:
        cfg = DetectorConfig()

    start = time.perf_counter()
    m, n = A.order, A.dim
    tau = cfg.tolerance
    floor = -cfg.sigma - tau
    pairs, at, root = _edges(n)
    # Frontier entries are (parent cell, replaced vertex, new vertex,
    # parent's squared edge lengths, squared distances to the new vertex,
    # Bernstein coefficients, their smallest, the new vertex's value,
    # depth), popped last in first out; the cell and its lengths are built
    # from them only when needed.  The root's coefficients are A's
    # entries: its barycentric coordinates are the coordinates themselves,
    # and its vertex values are its corner coefficients, the diagonal
    # entries, bit for bit what ``A.form`` gives there.  Its squared edge
    # lengths, and its distances to any other vertex, are all exactly 2.0.
    coefficients = A.coefficient_vector()
    corner = corner_indices(m, n)
    values = coefficients.take(corner).tolist()
    # The midpoint filter's error unit; max|A| is the root's largest |coefficient|.
    unit = _SAFETY * (m + 2) * 2.0**-53 * float(np.abs(coefficients).max())
    first = next((i for i, value in enumerate(values) if value < -tau), 0)
    row = [2.0] * n
    row[first] = 0.0
    frontier = [(root, first, root[first], [2.0] * len(pairs) + [0.0], row, coefficients,
                 coefficients.min(), min(values), 0)]
    iterations = 0
    max_depth = 0
    min_vertex = math.inf
    certified: list | None = [] if cfg.keep_certificates else None

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
        parent, moved, vertex, lengths, row, coefficients, low, value, depth = frontier.pop()
        iterations += 1
        # Only the new vertex is untested; the cell's others were tested
        # and folded in with its parent.
        min_vertex = min(min_vertex, value)
        if value < -tau:
            return verdict(VerdictKind.NOT_COPOSITIVE, witness=np.array(vertex))
        if low >= floor:
            if certified is not None:
                certified.append(parent[:moved] + (vertex,) + parent[moved + 1:])
            continue
        cell = parent[:moved] + (vertex,) + parent[moved + 1:]
        edges = lengths.copy()
        for k, length in zip(at[moved], row):
            edges[k] = length
        edges[-1] = 0.0  # row[moved] landed in the sentinel
        longest = max(edges)
        if math.sqrt(longest) < cfg.min_diameter:
            return verdict(VerdictKind.UNDECIDED)
        # The first maximum, as a strict scan finds it; the sentinel is 0.0.
        k = edges.index(longest)
        p, q = pairs[k]
        midpoint = tuple([0.5 * (a + b) for a, b in zip(cell[p], cell[q])])
        # Squared distances from every vertex to the midpoint by the median
        # formula: the lengths of the edges at the vertex it replaces.
        quarter = 0.25 * longest
        row = [0.5 * (edges[a] + edges[b]) - quarter for a, b in zip(at[p], at[q])]
        children = split_coefficients(coefficients, m, n, p, q)
        # The first child's corner at p is the midpoint's value up to
        # rounding.  Within the bound of min_vertex, or once the midpoint
        # itself may round, evaluate it exactly.
        mid = children.item(corner[p])
        if depth >= 50 or mid - (depth + 3) * unit <= min_vertex:
            mid = A.form(midpoint)
        # The first child replaces p, the second q; the second is popped
        # next.  Both hold this cell, the midpoint, the lengths and the
        # row, and nothing writes into them.
        lows = np.minimum.reduce(children, axis=1).tolist()
        frontier.append((cell, p, midpoint, edges, row, children[0], lows[0], mid, depth + 1))
        frontier.append((cell, q, midpoint, edges, row, children[1], lows[1], mid, depth + 1))
        max_depth = max(max_depth, depth + 1)
    if certified is not None:  # certificates as read-only (n, n) arrays
        certified = np.array(certified)
        certified.setflags(write=False)
        certified = tuple(certified)
    return verdict(VerdictKind.COPOSITIVE, certified_cells=certified)


def verify_witness(A: SymmetricTensor, x, tau: float = 1e-12) -> bool:
    """Independent check of a non-copositivity witness: ``x`` nonnegative
    with unit coordinate sum (within ``tau``) and form value below
    ``-tau``.  ``tau`` must be a finite nonnegative real number."""
    tau = nonnegative(tau, "tau")
    x = A._check_vector(x)
    if np.min(x) < -tau:
        return False
    if abs(float(x.sum()) - 1.0) > tau:
        return False
    return A.form(x) < -tau
