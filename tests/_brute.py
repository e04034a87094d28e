"""Independent brute-force oracles for the test suite.

Everything here works on a dense array rebuilt from the canonical entries
with raw index loops, deliberately avoiding the multiplicity-weighted
summation paths used by the library.
"""

import itertools
import math
import time

import numpy as np

from coposim import (
    DetectorConfig,
    SymmetricTensor,
    Verdict,
    VerdictKind,
    diagonal_check,
    multiplicity,
)
from coposim import detector
from coposim.prescreen import DIAGONAL, SUBTENSOR_SAMPLE, PrescreenReport
from coposim.tensor import corner_indices, split_coefficients


def canonical_keys(order: int, dim: int):
    """All sorted multi-indices over ``1..dim`` of length ``order``, in
    lexicographic order, enumerated apart from the library's key table."""
    return itertools.combinations_with_replacement(range(1, dim + 1), order)


def dense_of(A: SymmetricTensor) -> np.ndarray:
    """Dense array read off the coefficient vector: every multi-index is
    sorted, coded in base ``n`` and found by ``searchsorted`` among the
    codes of the canonical keys, which ascend in lexicographic order."""
    m, n = A.order, A.dim
    codes = n ** np.arange(m - 1, -1, -1)
    keys = np.array(list(canonical_keys(m, n))) - 1
    index = np.sort(np.indices((n,) * m).reshape(m, -1), axis=0)
    positions = np.searchsorted(keys @ codes, codes @ index)
    return A.coefficient_vector()[positions].reshape((n,) * m)


def dense_loop(A: SymmetricTensor) -> np.ndarray:
    """Dense array filled position by position via sorted lookup."""
    m, n = A.order, A.dim
    dense = np.zeros((n,) * m)
    entries = dict(A.entries)
    for idx in itertools.product(range(1, n + 1), repeat=m):
        dense[tuple(i - 1 for i in idx)] = entries.get(tuple(sorted(idx)), 0.0)
    return dense


def brute_form(dense: np.ndarray, x) -> float:
    m, n = dense.ndim, dense.shape[0]
    total = 0.0
    for idx in itertools.product(range(n), repeat=m):
        term = dense[idx]
        for i in idx:
            term *= x[i]
        total += term
    return total


def brute_gradient(dense: np.ndarray, x) -> np.ndarray:
    m, n = dense.ndim, dense.shape[0]
    out = np.zeros(n)
    for first in range(n):
        total = 0.0
        for rest in itertools.product(range(n), repeat=m - 1):
            term = dense[(first,) + rest]
            for i in rest:
                term *= x[i]
            total += term
        out[first] = total
    return out


def loop_form(A: SymmetricTensor, x) -> float:
    """The per-key ``fsum`` loop the library's ``form`` must match bit for
    bit: each term is ``(multiplicity * value) * prod(x over the key)``."""
    x = np.asarray(x, dtype=float)
    return math.fsum(
        multiplicity(key) * value * math.prod(x[i - 1] for i in key)
        for key, value in A.entries.items()
    )


def loop_gradient(A: SymmetricTensor, x) -> np.ndarray:
    """The per-key ``fsum`` loop the library's ``gradient_form`` must match
    bit for bit: per distinct index ``i`` of a key, with run length
    ``count``, the term ``((value * mult) * count) / m`` times the product
    over the key with one ``i`` removed, and one ``fsum`` per component."""
    x = np.asarray(x, dtype=float)
    m = A.order
    terms: list[list[float]] = [[] for _ in range(A.dim)]
    for key, value in A.entries.items():
        mult = multiplicity(key)
        for i, group in itertools.groupby(key):
            count = len(list(group))
            start = key.index(i)
            rest = key[:start] + key[start + 1 :]
            weight = value * mult * count / m
            terms[i - 1].append(weight * math.prod(x[j - 1] for j in rest))
    return np.array([math.fsum(t) for t in terms])


def _tensor_of_dense(dense: np.ndarray) -> SymmetricTensor:
    """The symmetric tensor whose canonical entries are read off ``dense``."""
    m, n = dense.ndim, dense.shape[0]
    return SymmetricTensor(
        m, n, {key: dense[tuple(i - 1 for i in key)] for key in canonical_keys(m, n)}
    )


def congruence(dense: np.ndarray, V) -> SymmetricTensor:
    """Coefficients of the form in the coordinates spanned by the columns
    of ``V``: entry ``(i_1 .. i_m)`` is the dense contraction against
    columns ``i_1, ..., i_m``, so ``congruence(dense, V).form(lam)`` equals
    the form at ``V @ lam``.  For the vertex matrix of a cell these are the
    cell's Bernstein coefficients."""
    V = np.asarray(V, dtype=float)
    if V.shape != (dense.shape[0],) * 2:
        raise ValueError(f"expected a square matrix of size {dense.shape[0]}, got {V.shape}")
    for _ in range(dense.ndim):
        dense = np.tensordot(dense, V, axes=([0], [0]))
    return _tensor_of_dense(dense)


def principal_subtensor(dense: np.ndarray, J) -> SymmetricTensor:
    """Restriction to the index subset ``J`` (1-based), relabeled to
    ``1..len(J)`` in increasing order of the original indices."""
    J = sorted(set(J))
    if not J or J[0] < 1 or J[-1] > dense.shape[0]:
        raise ValueError(f"index subset {J} is empty or out of range 1..{dense.shape[0]}")
    rows = np.array(J) - 1
    return _tensor_of_dense(dense[np.ix_(*[rows] * dense.ndim)])


def longest_edge(V) -> tuple[int, int, float]:
    """The search's edge rule on the vertex rows of ``V``: the
    lexicographically first pair (p, q), p < q, of maximal squared length,
    and that length, from one ``diff @ diff`` per pair and a strict
    comparison."""
    n = len(V)
    best_d2 = -1.0
    best = (0, 1)
    for p in range(n - 1):
        for q in range(p + 1, n):
            diff = V[p] - V[q]
            d2 = float(diff @ diff)
            if d2 > best_d2:
                best_d2 = d2
                best = (p, q)
    return best[0], best[1], best_d2


def diameter(V) -> float:
    """Largest pairwise distance between the vertex rows of ``V``."""
    return math.sqrt(longest_edge(V)[2])


def bisect(V) -> tuple[np.ndarray, np.ndarray]:
    """Split ``V`` at the midpoint ``v`` of its longest edge (p, q): the
    first child replaces row ``p`` by ``v``, the second row ``q``.  The
    search pushes them in this order, so it pops the second first."""
    p, q, _ = longest_edge(V)
    v = 0.5 * (V[p] + V[q])
    first = np.array(V, dtype=float)
    first[p] = v
    second = np.array(V, dtype=float)
    second[q] = v
    return first, second


def barycentric_coordinates(V, x) -> np.ndarray:
    """Coefficients expressing ``x`` over the vertex rows of ``V`` (they
    sum to one whenever ``x`` has coordinate-sum one)."""
    return np.linalg.solve(np.asarray(V, dtype=float).T, np.asarray(x, dtype=float))


def contains(V, x, tol: float = 1e-12) -> bool:
    """Membership in the cell with vertex rows ``V``, up to a boundary
    tolerance on the barycentric coordinates."""
    return bool(np.all(barycentric_coordinates(V, x) >= -tol))


def barycentric_lattice(dim: int, d: int):
    """Lattice points ``k / d`` of the closed standard simplex: integer
    ``k >= 0`` summing to ``d``, in lexicographic order of ``k``."""
    for k in itertools.product(range(d + 1), repeat=dim):
        if sum(k) == d:
            yield np.array(k, dtype=float) / d


def interior_lattice(dim: int, d: int):
    """The points of :func:`barycentric_lattice` with every ``k >= 1``."""
    return (x for x in barycentric_lattice(dim, d) if x.min() > 0)


def cut_lattice(dim: int, d: int):
    """The points of :func:`interior_lattice`, one array each, from one
    composition per choice of ``dim - 1`` cuts of ``1..d-1``."""
    for bars in itertools.combinations(range(1, d), dim - 1):
        cuts = (0, *bars, d)
        yield np.array([b - a for a, b in zip(cuts, cuts[1:])], dtype=float) / d


def subtensor_prescreen(A: SymmetricTensor, grid_depth: int = 2,
                        tau: float = 1e-12) -> PrescreenReport:
    """The prescreen battery as it was first written: diagonal entries, then
    every singleton and pair ``J``, each sampled on a freshly built
    principal subtensor over the interior lattice of denominator
    ``grid_depth + len(J) - 1``, a negative sample embedded back with zeros
    off ``J``."""
    n = A.dim
    for i in range(1, n + 1):
        if A[(i,) * A.order] < -tau:
            return PrescreenReport(False, violated_condition=DIAGONAL,
                                   witness=np.eye(n)[i - 1])
    subsets = [(i,) for i in range(1, n + 1)] + list(itertools.combinations(range(1, n + 1), 2))
    dense = dense_of(A)
    for J in subsets:
        sub = principal_subtensor(dense, J)
        for x in interior_lattice(len(J), grid_depth + len(J) - 1):
            if sub.form(x) < -tau:
                witness = np.zeros(n)
                for position, j in enumerate(J):
                    witness[j - 1] = x[position]
                return PrescreenReport(False, violated_condition=SUBTENSOR_SAMPLE,
                                       witness=witness, J=J)
    return PrescreenReport(True)


def pointwise_sample_refute(A: SymmetricTensor, J, grid_depth: int = 2,
                            tau: float = 1e-12) -> PrescreenReport:
    """Face sampling with one ``A.form`` call per lattice point: the
    interior lattice of the face ``J`` (1-based), of denominator
    ``grid_depth + len(J) - 1``, in order, each point embedded with zeros
    off ``J``; the first sample below ``-tau`` refutes."""
    J = tuple(sorted(J))
    support = np.array(J) - 1
    for x in cut_lattice(len(J), grid_depth + len(J) - 1):
        point = np.zeros(A.dim)
        point[support] = x
        if A.form(point) < -tau:
            return PrescreenReport(False, violated_condition=SUBTENSOR_SAMPLE,
                                   witness=point, J=J)
    return PrescreenReport(True, J=J)


def pointwise_prescreen(A: SymmetricTensor, grid_depth: int = 2,
                        tau: float = 1e-12) -> PrescreenReport:
    """The prescreen battery over :func:`pointwise_sample_refute`: the
    diagonal check, then every pair in lexicographic order."""
    report = diagonal_check(A, tau)
    pairs = itertools.combinations(range(1, A.dim + 1), 2)
    while report.passed and (J := next(pairs, None)):
        report = pointwise_sample_refute(A, J, grid_depth, tau)
    return report if not report.passed else PrescreenReport(True)


def split_table_loop(order: int, dim: int, p: int, q: int):
    """The gather plan of ``split_coefficients`` for edge ``(p, q)``, built
    key by key over tuple keys with its own index dict: rows, sources and
    weights as arrays, child 0 replacing ``p`` and child 1 replacing ``q``."""
    keys = list(canonical_keys(order, dim))
    index = {key: t for t, key in enumerate(keys)}
    rows, sources, weights = [], [], []
    for child, (a, b) in enumerate(((p + 1, q + 1), (q + 1, p + 1))):
        for t, key in enumerate(keys, start=child * len(keys)):
            k = key.count(a)
            rest = tuple(i for i in key if i != a)
            for j in range(k + 1):
                rows.append(t)
                sources.append(index[tuple(sorted(rest + (b,) * j + (a,) * (k - j)))])
                weights.append(math.comb(k, j) / 2**k)
    return np.array(rows, dtype=np.intp), np.array(sources, dtype=np.intp), np.array(weights)


def face_ranks_loop(order: int, dim: int) -> np.ndarray:
    """Positions among the canonical keys of shape ``(order, dim)`` of the
    keys on each pair face ``(i, j)``, one row per pair in lexicographic
    pair order, built key by key over tuple keys with their own index dict."""
    index = {key: t for t, key in enumerate(canonical_keys(order, dim))}
    pairs = itertools.combinations(range(1, dim + 1), 2)
    return np.array([[index[tuple(pair[i - 1] for i in key)] for key in canonical_keys(order, 2)]
                     for pair in pairs])


def corner_indices_loop(order: int, dim: int) -> tuple[int, ...]:
    """Positions of the diagonal keys ``(i, ..., i)`` among the canonical
    keys, found by a scan over tuple keys."""
    keys = list(canonical_keys(order, dim))
    return tuple(keys.index((i,) * order) for i in range(1, dim + 1))


def eager_detect(A: SymmetricTensor, cfg: DetectorConfig | None = None) -> Verdict:
    """The search loop as it was before its frontier entries held
    references: every child's cell and ``(n, n)`` squared edge lengths are
    built as arrays when it is pushed, each new length the ``diff @ diff``
    of two vertex rows, and the edge bisected is the ``argmax`` of the
    upper triangle of those lengths.  ``detect`` must match it run for
    run, witness bits and certified cells included, although it derives
    its lengths by the median formula and shares no length code."""
    cfg = DetectorConfig() if cfg is None else cfg
    start = time.perf_counter()
    m, n = A.order, A.dim
    tau = cfg.tolerance
    floor = -cfg.sigma - tau
    root = np.eye(n)
    root.setflags(write=False)
    rows, cols = np.triu_indices(n, 1)
    upper, pairs = rows * n + cols, list(zip(rows.tolist(), cols.tolist()))
    coefficients = A.coefficient_vector()
    corner = corner_indices(m, n)
    values = coefficients.take(corner).tolist()
    unit = detector._SAFETY * (m + 2) * 2.0**-53 * float(np.abs(coefficients).max())
    first = next((i for i, value in enumerate(values) if value < -tau), 0)
    frontier = [(root, 2.0 - 2.0 * root, coefficients, coefficients.min(), first, min(values), 0)]
    iterations = max_depth = 0
    min_vertex = math.inf
    certified = [] if cfg.keep_certificates else None

    def verdict(kind, **kw):
        return Verdict(kind, iterations=iterations, max_depth=max_depth, sigma=cfg.sigma,
                       tolerance=cfg.tolerance, min_vertex_value=min_vertex,
                       elapsed=time.perf_counter() - start, **kw)

    while frontier:
        if iterations >= cfg.max_iterations:
            return verdict(VerdictKind.UNDECIDED)
        cell, lengths, coefficients, low, vertex, value, depth = frontier.pop()
        iterations += 1
        if cfg.min_diameter > 0.0 and math.sqrt(lengths.max()) < cfg.min_diameter:
            return verdict(VerdictKind.UNDECIDED)
        min_vertex = min(min_vertex, value)
        if value < -tau:
            return verdict(VerdictKind.NOT_COPOSITIVE, witness=np.array(cell[vertex]))
        if low >= floor:
            if certified is not None:
                certified.append(cell)
            continue
        p, q = pairs[int(lengths.take(upper).argmax())]
        midpoint = 0.5 * (cell[p] + cell[q])
        row = np.array([diff @ diff for diff in cell - midpoint])
        children = split_coefficients(coefficients, m, n, p, q)
        mid = children.item(corner[p])
        if depth >= 50 or mid - (depth + 3) * unit <= min_vertex:
            mid = A.form(midpoint)
        lows = np.minimum.reduce(children, axis=1).tolist()
        for child_coefficients, low, moved in zip(children, lows, (p, q)):
            child = cell.copy()
            child[moved] = midpoint
            child.setflags(write=False)
            child_lengths = lengths.copy()
            child_lengths[moved] = row
            child_lengths[:, moved] = row
            child_lengths[moved, moved] = 0.0
            frontier.append((child, child_lengths, child_coefficients, low, moved, mid, depth + 1))
        max_depth = max(max_depth, depth + 1)
    return verdict(VerdictKind.COPOSITIVE,
                   certified_cells=None if certified is None else tuple(certified))


def kaplan(M) -> tuple[bool, bool, float]:
    """Kaplan's criterion (Linear Algebra Appl. 313, 2000) for a symmetric
    matrix ``M``: copositive if and only if no principal submatrix has an
    eigenvector with every entry > 0 whose eigenvalue is < 0, and strictly
    copositive if and only if none has one whose eigenvalue is <= 0.  One
    ``numpy.linalg.eigh`` per nonempty index subset; an eigenvector counts
    with either sign, and eigenvalues are taken to be simple (a repeated
    one, probability zero for random entries, leaves its basis arbitrary).
    Returns both answers and the margin: the absolute value of the
    smallest eigenvalue that has such an eigenvector."""
    M = np.asarray(M, dtype=float)
    lowest = math.inf
    for size in range(1, len(M) + 1):
        for J in itertools.combinations(range(len(M)), size):
            values, vectors = np.linalg.eigh(M[np.ix_(J, J)])
            for value, vector in zip(values.tolist(), vectors.T):
                if (vector > 0).all() or (vector < 0).all():
                    lowest = min(lowest, value)
    return lowest >= 0.0, lowest > 0.0, abs(lowest)


def brute_mixed(dense: np.ndarray, x, k: int, y) -> float:
    m, n = dense.ndim, dense.shape[0]
    total = 0.0
    for idx in itertools.product(range(n), repeat=m):
        term = dense[idx]
        for slot, i in enumerate(idx):
            term *= x[i] if slot < k else y[i]
        total += term
    return total


def brute_multilinear(dense: np.ndarray, factors) -> float:
    m, n = dense.ndim, dense.shape[0]
    total = 0.0
    for idx in itertools.product(range(n), repeat=m):
        term = dense[idx]
        for factor, i in zip(factors, idx):
            term *= factor[i]
        total += term
    return total


def brute_inner(d1: np.ndarray, d2: np.ndarray) -> float:
    return float(np.sum(d1 * d2))


def random_symmetric(rng: np.random.Generator, order: int, dim: int,
                     lo: float = -1.0, hi: float = 1.0) -> SymmetricTensor:
    """Random tensor with canonical entries uniform on [lo, hi)."""
    entries = {key: rng.uniform(lo, hi) for key in canonical_keys(order, dim)}
    return SymmetricTensor(order, dim, entries)


def assert_constructed(result: SymmetricTensor, pairs) -> None:
    """``result`` is what the public constructor makes of ``pairs``, handed
    in reverse order with every multi-index reversed: the same entries in
    the same key order, every value a ``float``."""
    scrambled = [(key[::-1], value) for key, value in reversed(list(pairs))]
    reference = SymmetricTensor(result.order, result.dim, scrambled)
    assert result == reference
    assert list(result.entries.items()) == list(reference.entries.items())
    assert all(type(value) is float for value in result.entries.values())


def coefficients_loop(order: int, dim: int, pairs) -> np.ndarray:
    """The coefficient vector the constructor must build from ``(multi-index,
    value)`` pairs: each multi-index sorted as Python ints and looked up in
    its own dict over the enumerated canonical keys, a -0.0 stored as +0.0."""
    index = {key: t for t, key in enumerate(canonical_keys(order, dim))}
    vector = np.zeros(len(index))
    for idx, value in pairs:
        vector[index[tuple(sorted(int(i) for i in idx))]] = float(value)
    return vector + 0.0


def random_tensor_loop(order: int, dim: int, rng) -> SymmetricTensor:
    """The stream ``random_tensor`` must reproduce, drawn one double per
    canonical key in lexicographic order, an exact zero redrawn at once."""
    entries = {}
    for key in canonical_keys(order, dim):
        value = rng.random()
        while value == 0.0:
            value = rng.random()
        entries[key] = value
    return SymmetricTensor(order, dim, entries)


class ZeroingGenerator:
    """``numpy.random.Generator.random`` over a bit generator, one double at
    a time or in blocks from the same stream, with the draws at the given
    stream positions replaced by an exact 0.0."""

    _Generator = np.random.Generator  # kept if a test patches numpy's

    def __init__(self, bit_generator, zeros):
        self._inner = self._Generator(bit_generator)
        self._zeros = set(zeros)
        self.drawn = 0

    def random(self, size=None):
        values = self._inner.random(1 if size is None else size)
        for i in range(len(values)):
            if self.drawn + i in self._zeros:
                values[i] = 0.0
        self.drawn += len(values)
        return values[0] if size is None else values


def random_simplex_point(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.dirichlet(np.ones(dim))


def close(a: float, b: float, tol: float = 1e-10) -> bool:
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))
