"""Simplices of the standard simplex and longest-edge bisection.

Cells are full-dimensional simplices living in the hyperplane of
coordinate-sum one: ``n`` vertices in ``n``-space, each nonnegative with
unit 1-norm.  The only refinement offered is bisection at the midpoint of
the longest edge, which keeps cell unions exact (children cover the parent
with disjoint interiors) and halves the vertex-matrix determinant.
"""

from __future__ import annotations

import math
import numpy as np

__all__ = [
    "DegenerateCellError",
    "Simplex",
    "standard_simplex",
]

# |det V_S| below this rejects a vertex set as affinely dependent.
DEGENERACY_TOL = 1e-12
# Slack for the nonnegativity / unit-sum membership checks.
MEMBERSHIP_TOL = 1e-9


class DegenerateCellError(ValueError):
    """Vertex set is (numerically) affinely dependent or has zero extent."""


class Simplex:
    """Ordered vertex list of one partition cell.

    Construction validates that every vertex lies in the standard simplex
    and that the vertices are affinely independent.  Children produced by
    :meth:`bisect_longest_edge` skip re-validation: replacing one endpoint
    of an edge by the edge midpoint exactly halves the vertex-matrix
    determinant, so a valid parent cannot produce a degenerate child, while
    an absolute determinant threshold would misfire on legitimately deep
    refinements.
    """

    __slots__ = ("_vertices", "_edge")

    def __init__(self, vertices, *, validate: bool = True):
        V = np.array(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1]:
            raise ValueError(f"expected n vertices in n-space, got array of shape {V.shape}")
        if validate:
            if np.min(V) < -MEMBERSHIP_TOL:
                raise ValueError("vertices must be nonnegative")
            sums = V.sum(axis=1)
            if np.max(np.abs(sums - 1.0)) > MEMBERSHIP_TOL:
                raise ValueError("vertex coordinates must sum to one")
            if abs(np.linalg.det(V.T)) < DEGENERACY_TOL:
                raise DegenerateCellError("vertices are affinely dependent")
        V.setflags(write=False)
        self._vertices = V
        self._edge = None

    @property
    def dim(self) -> int:
        return self._vertices.shape[1]

    @property
    def vertices(self) -> np.ndarray:
        """Read-only array with one vertex per row."""
        return self._vertices

    def __repr__(self) -> str:
        return f"Simplex({self._vertices.tolist()})"

    def _longest_edge(self) -> tuple[int, int, float]:
        """Lexicographically first pair (p, q), p < q, of maximal squared
        length, and that length; ties are broken toward the smallest
        (p, q).  Computed once per cell."""
        if self._edge is None:
            n = self.dim
            best_d2 = -1.0
            best = (0, 1)
            for p in range(n - 1):
                for q in range(p + 1, n):
                    diff = self._vertices[p] - self._vertices[q]
                    d2 = float(diff @ diff)
                    if d2 > best_d2:
                        best_d2 = d2
                        best = (p, q)
            self._edge = (best[0], best[1], best_d2)
        return self._edge

    def longest_edge(self) -> tuple[int, int]:
        """The edge (p, q), p < q, that :meth:`bisect_longest_edge` splits."""
        p, q, _ = self._longest_edge()
        return p, q

    def diameter(self) -> float:
        """Largest pairwise vertex distance."""
        return math.sqrt(self._longest_edge()[2])

    def bisect_longest_edge(self) -> tuple["Simplex", "Simplex"]:
        """Split at the midpoint ``v`` of the longest edge (p, q): the first
        child replaces vertex ``p`` by ``v``, the second replaces vertex
        ``q``.  Children cover the parent and have disjoint interiors."""
        p, q, d2 = self._longest_edge()
        if d2 <= 0.0:
            raise DegenerateCellError("cannot bisect a zero-diameter cell")
        v = 0.5 * (self._vertices[p] + self._vertices[q])
        first = np.array(self._vertices)
        first[p] = v
        second = np.array(self._vertices)
        second[q] = v
        return Simplex(first, validate=False), Simplex(second, validate=False)


def standard_simplex(n: int) -> Simplex:
    """The cell spanned by the unit coordinate vectors, in index order."""
    n = int(n)
    if n < 2:
        raise ValueError(f"need dimension >= 2, got {n}")
    return Simplex(np.eye(n), validate=False)
