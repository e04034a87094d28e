import math

import numpy as np
import pytest

from coposim import (
    DegenerateCellError,
    DetectorConfig,
    Simplex,
    detect,
    eta_shift,
    ones_tensor,
    standard_simplex,
)

from _brute import barycentric_coordinates, congruence, contains, dense_of


def test_standard_simplex():
    S = standard_simplex(3)
    assert np.array_equal(S.vertices, np.eye(3))
    assert standard_simplex(2).diameter() == pytest.approx(math.sqrt(2))
    for n in (2, 3, 5, 8):
        assert standard_simplex(n).diameter() == pytest.approx(math.sqrt(2))
    with pytest.raises(ValueError):
        standard_simplex(1)


def test_construction_validation():
    Simplex([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        Simplex([[1.0, 0.0]])  # not square
    with pytest.raises(ValueError):
        Simplex([[1.1, -0.1], [0.0, 1.0]])  # negative coordinate
    with pytest.raises(ValueError):
        Simplex([[0.7, 0.7], [0.0, 1.0]])  # coordinate sum off
    with pytest.raises(DegenerateCellError):
        Simplex([[0.5, 0.5], [0.5, 0.5]])  # affinely dependent


def test_diameter_degenerate_tolerance():
    base = np.array([0.5, 0.5])
    wiggle = base + np.array([1e-16, -1e-16])
    S = Simplex([base, wiggle], validate=False)
    assert S.diameter() == pytest.approx(0.0, abs=1e-12)


def test_bisection_n2():
    S = standard_simplex(2)
    first, second = S.bisect_longest_edge()
    assert np.allclose(first.vertices, [[0.5, 0.5], [0.0, 1.0]])
    assert np.allclose(second.vertices, [[1.0, 0.0], [0.5, 0.5]])
    assert first.diameter() == pytest.approx(math.sqrt(2) / 2)
    assert second.diameter() == pytest.approx(math.sqrt(2) / 2)


def test_bisection_tie_break_is_lexicographic():
    # all edges of the standard simplex tie, so the (1, 2) edge must win
    first, second = standard_simplex(3).bisect_longest_edge()
    v = np.array([0.5, 0.5, 0.0])
    assert np.allclose(first.vertices[0], v)  # replaced vertex 1
    assert np.allclose(second.vertices[1], v)  # replaced vertex 2
    assert np.allclose(first.vertices[[1, 2]], np.eye(3)[[1, 2]])
    assert np.allclose(second.vertices[[0, 2]], np.eye(3)[[0, 2]])


def test_bisection_zero_diameter_rejected():
    S = Simplex([[0.5, 0.5], [0.5, 0.5]], validate=False)
    with pytest.raises(DegenerateCellError):
        S.bisect_longest_edge()


def _random_descendant(rng, n, splits):
    S = standard_simplex(n)
    for _ in range(splits):
        S = S.bisect_longest_edge()[int(rng.integers(0, 2))]
    return S


def test_bisection_halves_vertex_matrix_determinant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        S = _random_descendant(rng, n, int(rng.integers(0, 6)))
        parent_det = abs(np.linalg.det(S.vertices))
        for child in S.bisect_longest_edge():
            child_det = abs(np.linalg.det(child.vertices))
            assert child_det == pytest.approx(0.5 * parent_det, rel=1e-9)


def test_children_diameters_do_not_grow():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        S = _random_descendant(rng, n, int(rng.integers(0, 8)))
        d = S.diameter()
        for child in S.bisect_longest_edge():
            assert child.diameter() <= d + 1e-15


def test_repeated_bisection_shrinks_below_any_threshold():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        S = standard_simplex(n)
        previous = S.diameter()
        for _ in range(45):
            S = S.bisect_longest_edge()[int(rng.integers(0, 2))]
            d = S.diameter()
            assert d <= previous + 1e-15
            previous = d
        assert S.diameter() < 1e-3


def test_generated_vertices_stay_in_standard_simplex():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        S = _random_descendant(rng, n, int(rng.integers(1, 10)))
        assert np.min(S.vertices) >= -1e-12
        assert np.allclose(S.vertices.sum(axis=1), 1.0, atol=1e-12)


def test_coverage_and_disjoint_interiors():
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        leaves = [standard_simplex(n)]
        for _ in range(30):
            pick = int(rng.integers(0, len(leaves)))
            cell = leaves.pop(pick)
            leaves.extend(cell.bisect_longest_edge())
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
    S = standard_simplex(3)
    assert contains(S, [1 / 3, 1 / 3, 1 / 3])
    assert contains(S, [1.0, 0.0, 0.0])
    lam = barycentric_coordinates(S, [0.2, 0.3, 0.5])
    assert np.allclose(lam, [0.2, 0.3, 0.5])
    child = S.bisect_longest_edge()[0]
    assert not contains(child, [1.0, 0.0, 0.0], tol=1e-12)


def test_frontier_bisection_discipline():
    # The certified cells come out in the order of a depth-first walk that
    # tests vertices before coefficients and, after each bisection, visits
    # the child that replaced the later edge endpoint first.
    A = eta_shift(9.01, ones_tensor(3, 3))
    dense = dense_of(A)
    expected, visited = [], 0
    stack = [standard_simplex(3)]
    while stack:
        cell = stack.pop()
        visited += 1
        assert min(A.form(v) for v in cell.vertices) >= -1e-12
        if congruence(dense, cell.vertices.T).coefficient_vector().min() >= -1e-12:
            expected.append(cell)
        else:
            stack.extend(cell.bisect_longest_edge())
    verdict = detect(A, DetectorConfig(keep_certificates=True))
    assert verdict.iterations == visited == 59
    assert [cell.vertices.tolist() for cell in verdict.certified_cells] == [
        cell.vertices.tolist() for cell in expected
    ]
