"""Cells of the simplicial partition.

A cell is a read-only array with one vertex per row.  The search's own
cells are checked through the certified cells a run keeps; the geometry
of longest-edge bisection is checked on the float oracle in
``tests/_brute.py``, which :func:`test_frontier_bisection_discipline`
ties to the search cell for cell, bit for bit.
"""

import math

import numpy as np
import pytest

from coposim import (
    DetectorConfig,
    SymmetricTensor,
    VerdictKind,
    detect,
    eta_shift,
    ones_tensor,
    random_tensor,
    spectral_radius,
)

from _brute import (
    barycentric_coordinates,
    bisect,
    congruence,
    contains,
    dense_of,
    diameter,
)


def _certified(A, **cfg):
    verdict = detect(A, DetectorConfig(keep_certificates=True, **cfg))
    assert verdict.kind is VerdictKind.COPOSITIVE
    return verdict


def _rho_plus_one(m, n, seed):
    B = random_tensor(m, n, seed)
    return eta_shift(spectral_radius(B).rho + 1.0, B)


def test_standard_simplex():
    # a tensor with nonnegative entries certifies on the root cell alone
    for n in (2, 3, 5, 8):
        verdict = _certified(ones_tensor(3, n))
        assert verdict.iterations == 1
        (root,) = verdict.certified_cells
        assert np.array_equal(root, np.eye(n))
        assert diameter(root) == pytest.approx(math.sqrt(2))
    with pytest.raises(ValueError):
        detect(ones_tensor(3, 1))


def test_bisection_n2():
    # x^2 - x y + y^2: the root's mixed coefficient is -1/2, and both
    # halves certify; the child that replaced vertex 2 comes first
    A = SymmetricTensor(2, 2, {(1, 1): 1.0, (1, 2): -0.5, (2, 2): 1.0})
    verdict = _certified(A)
    assert verdict.iterations == 3 and verdict.max_depth == 1
    assert [cell.tolist() for cell in verdict.certified_cells] == [
        [[1.0, 0.0], [0.5, 0.5]],
        [[0.5, 0.5], [0.0, 1.0]],
    ]
    for cell in verdict.certified_cells:
        assert diameter(cell) == pytest.approx(math.sqrt(2) / 2)


def test_bisection_tie_break_is_lexicographic():
    # Every edge of the root ties and every edge midpoint is equally
    # negative, so the witness shows which edge was split first: (1, 2),
    # and the child that replaced vertex 2 is the one popped next.
    for n in (2, 3, 4, 6):
        verdict = detect(eta_shift(1.0, ones_tensor(3, n)))
        assert verdict.kind is VerdictKind.NOT_COPOSITIVE
        assert verdict.iterations == 2
        assert np.array_equal(verdict.witness, [0.5, 0.5] + [0.0] * (n - 2))


@pytest.mark.parametrize(
    "make, counts",
    [
        (lambda: eta_shift(19.0, ones_tensor(3, 3)), (11, 6, 3)),
        (lambda: eta_shift(9.01, ones_tensor(3, 3)), (59, 30, 13)),
        (lambda: _rho_plus_one(4, 4, 1), (119, 60, 9)),
        (lambda: _rho_plus_one(4, 5, 0), (1547, 774, 22)),
        (lambda: _rho_plus_one(6, 5, 0), (1847, 924, 33)),
    ],
    ids=["eta19-ones33", "eta9.01-ones33", "rho+1-44-seed1", "rho+1-45-seed0", "rho+1-65-seed0"],
)
def test_certified_cells_partition_the_simplex(make, counts):
    # The certified cells of a finished run tile the simplex: each cell's
    # |det V| is 2^-depth of the root's 1, and together they sum to 1.
    verdict = _certified(make(), max_iterations=5000)
    cells = verdict.certified_cells
    assert (verdict.iterations, len(cells), verdict.max_depth) == counts
    dets = np.array([abs(np.linalg.det(cell)) for cell in cells])
    assert abs(math.fsum(dets) - 1.0) <= 1e-12
    depths = -np.log2(dets)
    assert np.allclose(depths, np.round(depths), rtol=0.0, atol=1e-6)
    assert depths.max() <= verdict.max_depth + 1e-6
    stacked = np.concatenate(cells)
    assert stacked.min() >= 0.0
    assert np.allclose(stacked.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_certified_cells_are_readonly():
    # the root alone, then bisected cells
    cells = _certified(ones_tensor(3, 3)).certified_cells
    cells += _certified(eta_shift(19.0, ones_tensor(3, 3))).certified_cells
    assert len(cells) == 7
    for cell in cells:
        with pytest.raises(ValueError):
            cell[0, 0] = 0.0
        with pytest.raises(ValueError):
            cell[0] = cell[1]


def _random_descendant(rng, n, splits):
    V = np.eye(n)
    for _ in range(splits):
        V = bisect(V)[int(rng.integers(0, 2))]
    return V


def test_bisection_halves_vertex_matrix_determinant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        V = _random_descendant(rng, n, int(rng.integers(0, 6)))
        parent_det = abs(np.linalg.det(V))
        for child in bisect(V):
            assert abs(np.linalg.det(child)) == pytest.approx(0.5 * parent_det, rel=1e-9)


def test_children_diameters_do_not_grow():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        V = _random_descendant(rng, n, int(rng.integers(0, 8)))
        d = diameter(V)
        for child in bisect(V):
            assert diameter(child) <= d + 1e-15


def test_repeated_bisection_shrinks_below_any_threshold():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        V = np.eye(n)
        previous = diameter(V)
        for _ in range(45):
            V = bisect(V)[int(rng.integers(0, 2))]
            d = diameter(V)
            assert d <= previous + 1e-15
            previous = d
        assert diameter(V) < 1e-3


def test_generated_vertices_stay_in_standard_simplex():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        V = _random_descendant(rng, n, int(rng.integers(1, 10)))
        assert np.min(V) >= -1e-12
        assert np.allclose(V.sum(axis=1), 1.0, atol=1e-12)


def test_coverage_and_disjoint_interiors():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        leaves = [np.eye(n)]
        for _ in range(30):
            pick = int(rng.integers(0, len(leaves)))
            cell = leaves.pop(pick)
            leaves.extend(bisect(cell))
        for _ in range(40):
            x = rng.dirichlet(np.ones(n))
            holders = sum(1 for cell in leaves if contains(cell, x, tol=1e-12))
            assert holders >= 1
            strict = sum(
                1
                for cell in leaves
                if np.min(barycentric_coordinates(cell, x)) > 1e-9
            )
            assert strict <= 1


def test_membership_helpers():
    V = np.eye(3)
    assert contains(V, [1 / 3, 1 / 3, 1 / 3])
    assert contains(V, [1.0, 0.0, 0.0])
    lam = barycentric_coordinates(V, [0.2, 0.3, 0.5])
    assert np.allclose(lam, [0.2, 0.3, 0.5])
    child = bisect(V)[0]
    assert not contains(child, [1.0, 0.0, 0.0], tol=1e-12)


def test_frontier_bisection_discipline():
    # The certified cells come out in the order of a depth-first walk that
    # tests vertices before coefficients and, after each bisection, visits
    # the child that replaced the later edge endpoint first; the search's
    # cells equal the oracle's bit for bit.
    for A, visits in (
        (eta_shift(9.01, ones_tensor(3, 3)), 59),
        (eta_shift(19.0, ones_tensor(3, 3)), 11),
        (_rho_plus_one(3, 4, 0), 87),
        # Ends at depth 33, past the depth where squared lengths round.
        (_rho_plus_one(6, 5, 0), 1847),
    ):
        dense = dense_of(A)
        expected, visited = [], 0
        stack = [np.eye(A.dim)]
        while stack:
            cell = stack.pop()
            visited += 1
            assert min(A.form(v) for v in cell) >= -1e-12
            if congruence(dense, cell.T).coefficient_vector().min() >= -1e-12:
                expected.append(cell)
            else:
                stack.extend(bisect(cell))
        verdict = _certified(A, max_iterations=visits)
        assert verdict.iterations == visited == visits
        assert [cell.tolist() for cell in verdict.certified_cells] == [
            cell.tolist() for cell in expected
        ]
