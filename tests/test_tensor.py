import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import coposim
from coposim import (
    SymmetricTensor,
    canonical_keys,
    eta_shift,
    from_polynomial,
    identity_tensor,
    motzkin_tensor,
    multiplicity,
    ones_tensor,
)
from coposim.tensor import _multiplicities, _run_positions, canonical_key, split_coefficients

from _brute import (
    brute_form,
    brute_gradient,
    brute_inner,
    brute_mixed,
    brute_multilinear,
    close,
    congruence,
    dense_of,
    loop_form,
    loop_gradient,
    principal_subtensor,
    random_symmetric,
)


def test_entry_access_examples():
    I = identity_tensor(3, 3)
    assert I[(2, 2, 2)] == 1.0
    assert I[(1, 2, 3)] == 0.0
    M = motzkin_tensor()
    assert M[(1, 1, 1, 1, 2, 2)] == pytest.approx(1 / 15, abs=0)
    # the permutation class of that key carries total weight one
    assert multiplicity((1, 1, 1, 1, 2, 2)) * M[(1, 1, 1, 1, 2, 2)] == pytest.approx(1.0)


def test_entry_access_any_index_order():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        A = random_symmetric(rng, m, n)
        key = tuple(int(i) for i in rng.integers(1, n + 1, size=m))
        reference = A[tuple(sorted(key))]
        for perm in itertools.permutations(key):
            assert A[perm] == reference


def test_entry_validation():
    I = identity_tensor(3, 3)
    with pytest.raises(ValueError):
        I[(1, 2)]
    with pytest.raises(ValueError):
        I[(0, 1, 2)]
    with pytest.raises(ValueError):
        I[(1, 2, 4)]


def test_vectorized_multiplicities_are_exact():
    shapes = [(m, n) for m in range(1, 9) for n in range(1, 7)] + [(23, 3), (40, 2)]
    for m, n in shapes:
        keys = list(canonical_keys(m, n))
        got = _multiplicities(_run_positions(np.array(keys) - 1))
        assert got.dtype == float
        assert got.tolist() == [float(multiplicity(key)) for key in keys], (m, n)


def test_indices_must_be_integers():
    assert canonical_key((np.int64(3), 1, np.int32(2))) == (1, 2, 3)
    assert canonical_key([2.0, 1]) == (1, 2)
    assert all(type(i) is int for i in canonical_key((np.int64(3), 2.0)))
    for bad in ((1.5, 2), (True, 2), ("1", 2), (None, 1), (np.bool_(True), 1), (float("nan"), 1)):
        with pytest.raises(ValueError):
            canonical_key(bad)
        with pytest.raises(ValueError):
            SymmetricTensor(2, 3, [(bad, 1.0)])
    for order, dim in ((2.7, 3), (2, 3.5), (True, 3), (2, "3"), (None, 3)):
        with pytest.raises(ValueError):
            SymmetricTensor(order, dim)
    assert SymmetricTensor(np.int64(2), 3.0).dim == 3


def test_constructor_validation():
    with pytest.raises(ValueError):
        SymmetricTensor(0, 3)
    with pytest.raises(ValueError):
        SymmetricTensor(3, 0)
    with pytest.raises(ValueError):
        SymmetricTensor(2, 2, [((1, 2), 1.0), ((2, 1), 2.0)])  # same canonical key
    # zeros are dropped, unsorted keys are canonicalized
    A = SymmetricTensor(2, 2, {(2, 1): 3.0, (1, 1): 0.0})
    assert A.nnz == 1
    assert A[(1, 2)] == 3.0


def test_form_examples():
    assert identity_tensor(3, 3).form([1, 1, 1]) == pytest.approx(3.0)
    assert ones_tensor(3, 3).form([0.5, 0.5, 0.0]) == pytest.approx(1.0)
    assert motzkin_tensor().form([1, 1, 1]) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        identity_tensor(3, 3).form([1, 1])


def test_gradient_examples():
    assert np.allclose(identity_tensor(3, 2).gradient_form([1, 2]), [1.0, 4.0])
    assert np.allclose(ones_tensor(3, 2).gradient_form([1, 1]), [4.0, 4.0])
    assert np.allclose(motzkin_tensor().gradient_form([0, 0, 1]), [0.0, 0.0, 1.0])


def test_mixed_form_examples():
    E = dense_of(ones_tensor(3, 2))
    I = dense_of(identity_tensor(3, 2))
    x = np.array([1.0, 0.0])
    assert brute_mixed(E, x, 3, [5.0, 7.0]) == pytest.approx(ones_tensor(3, 2).form(x))
    assert brute_mixed(E, x, 1, [1.0, 1.0]) == pytest.approx(4.0)
    assert brute_mixed(I, x, 2, [0.0, 1.0]) == pytest.approx(0.0)


def test_multilinear_examples():
    e = np.eye(3)
    assert brute_multilinear(dense_of(ones_tensor(3, 3)), [e[0], e[1], e[2]]) == pytest.approx(1.0)
    assert brute_multilinear(dense_of(identity_tensor(3, 3)), [e[0], e[0], e[1]]) == 0.0
    x = np.array([0.3, 0.5, 0.2])
    A = motzkin_tensor()
    assert brute_multilinear(dense_of(A), [x] * 6) == pytest.approx(A.form(x))


def test_vector_space_operations():
    I = identity_tensor(3, 3)
    E = ones_tensor(3, 3)
    assert I + 0.0 * E == I
    assert (-1.0 * E)[(1, 1, 1)] == -1.0
    shifted = 9.0 * I + (-1.0) * E
    assert shifted[(1, 1, 1)] == 8.0
    assert shifted[(1, 1, 2)] == -1.0
    assert (I - I).nnz == 0
    assert (-I)[(2, 2, 2)] == -1.0
    with pytest.raises(ValueError):
        I + ones_tensor(3, 2)


def test_norm_examples():
    I = identity_tensor(3, 3)
    E = ones_tensor(3, 3)
    assert I.norm() == pytest.approx(math.sqrt(3.0))
    assert E.norm() == pytest.approx(27 ** 0.5)


def test_norm_is_finite_at_extreme_scales():
    # squaring 1e200 overflows and squaring 1e-200 underflows; the norm
    # of a one-entry tensor is that entry's magnitude exactly
    for value in (1e200, 1e-200, -1e200, 5e-324):
        assert SymmetricTensor(3, 2, {(1, 1, 1): value}).norm() == abs(value)
    assert SymmetricTensor(3, 2, {}).norm() == 0.0
    rng = np.random.default_rng(19)
    for _ in range(20):
        A = random_symmetric(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        dense = dense_of(A)
        assert close(A.norm(), math.sqrt(brute_inner(dense, dense)))
        assert close((1e250 * A).norm(), 1e250 * A.norm())


def test_principal_subtensor():
    M = motzkin_tensor()
    dense = dense_of(M)
    assert principal_subtensor(dense, range(1, 4)) == M
    single = principal_subtensor(dense, [3])
    assert single.dim == 1 and single[(1,) * 6] == 1.0
    pair = principal_subtensor(dense, [1, 2])
    assert pair == from_polynomial(6, 2, [((4, 2), 1.0), ((2, 4), 1.0)])
    with pytest.raises(ValueError):
        principal_subtensor(dense, [])
    with pytest.raises(ValueError):
        principal_subtensor(dense, [0, 1])


def test_principal_subtensor_evaluation_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        A = random_symmetric(rng, m, n)
        size = int(rng.integers(1, n + 1))
        J = sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
        sub = principal_subtensor(dense_of(A), J)
        x_sub = rng.uniform(-1, 1, size=len(J))
        x_full = np.zeros(n)
        for position, j in enumerate(J):
            x_full[j - 1] = x_sub[position]
        assert close(sub.form(x_sub), A.form(x_full))


def test_congruence_examples():
    E = ones_tensor(3, 2)
    assert congruence(dense_of(E), np.eye(2)) == E
    V = np.array([[1.0, 0.5], [0.0, 0.5]])
    transformed = congruence(dense_of(E), V)
    assert all(transformed[key] == pytest.approx(1.0) for key in canonical_keys(3, 2))
    assert congruence(dense_of(identity_tensor(3, 2)), V)[(2, 2, 2)] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        congruence(dense_of(E), np.eye(3))


def test_congruence_against_multilinear_oracle():
    rng = np.random.default_rng(23)
    for _ in range(25):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        A = random_symmetric(rng, m, n)
        V = rng.uniform(-1, 1, size=(n, n))
        dense = dense_of(A)
        transformed = congruence(dense, V)
        for key in canonical_keys(m, n):
            want = brute_multilinear(dense, [V[:, i - 1] for i in key])
            assert close(transformed[key], want)


def test_congruence_form_identity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        A = random_symmetric(rng, m, n)
        V = rng.uniform(-1, 1, size=(n, n))
        lam = rng.uniform(-1, 1, size=n)
        assert close(congruence(dense_of(A), V).form(lam), A.form(V @ lam))


def test_binomial_expansion_identity():
    rng = np.random.default_rng(37)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 5))
        A = random_symmetric(rng, m, n)
        x = rng.uniform(-1, 1, size=n)
        y = rng.uniform(-1, 1, size=n)
        dense = dense_of(A)
        expansion = math.fsum(
            math.comb(m, k) * brute_mixed(dense, x, m - k, y) for k in range(m + 1)
        )
        assert close(A.form(x + y), expansion)


def test_contraction_consistency():
    rng = np.random.default_rng(41)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 5))
        A = random_symmetric(rng, m, n)
        x = rng.uniform(-1, 1, size=n)
        assert close(float(x @ A.gradient_form(x)), A.form(x))
        assert close(brute_multilinear(dense_of(A), [x] * m), A.form(x))


def test_brute_force_equivalence():
    rng = np.random.default_rng(43)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        A = random_symmetric(rng, m, n)
        dense = dense_of(A)
        x = rng.uniform(-1, 1, size=n)
        assert close(A.form(x), brute_form(dense, x))
        assert np.allclose(A.gradient_form(x), brute_gradient(dense, x), atol=1e-10)


@pytest.mark.parametrize("m, n", [(3, 3), (4, 4), (6, 3), (6, 5), (4, 8), (3, 10), (22, 3)])
def test_form_and_gradient_match_reference_loops_exactly(m, n):
    rng = np.random.default_rng(1000 * m + n)
    for trial in range(5):
        A = random_symmetric(rng, m, n)
        if trial % 2:  # some keys absent
            A = SymmetricTensor(m, n, {k: v for k, v in A.entries.items() if rng.random() < 0.5})
        for x in (rng.uniform(-1, 1, size=n), rng.dirichlet(np.ones(n)), np.eye(n)[0]):
            assert A.form(x) == loop_form(A, x)
            assert np.array_equal(A.gradient_form(x), loop_gradient(A, x))


def test_split_coefficients_track_the_congruence():
    # Each split is a convex combination of at most m + 1 parent
    # coefficients: at most 2m + 1 roundings of eps/2 relative to max|A|,
    # so each level adds under (m + 1) * eps * max|A| to the carried
    # error.  The dense reference adds about m * n such roundings.  The
    # bound is fixed from eps, the shape and the depth alone.
    eps = np.finfo(float).eps
    depth = 40
    rng = np.random.default_rng(53)
    for m, n in ((2, 3), (3, 3), (4, 4), (6, 3), (6, 5)):
        for _ in range(3):
            A = random_symmetric(rng, m, n)
            dense = dense_of(A)
            scale = max(abs(v) for v in A.entries.values())
            V = np.eye(n)
            c = A.coefficient_vector()
            assert np.array_equal(c, congruence(dense, V).coefficient_vector())
            for level in range(1, depth + 1):
                p, q = (int(i) for i in rng.choice(n, size=2, replace=False))
                V[:, p] = 0.5 * (V[:, p] + V[:, q])
                c = split_coefficients(c, m, n, p, q)
                reference = congruence(dense, V).coefficient_vector()
                tol = (level * (m + 1) + m * n) * eps * scale
                assert np.max(np.abs(c - reference)) <= tol
    with pytest.raises(ValueError):
        split_coefficients(ones_tensor(3, 3).coefficient_vector(), 3, 3, 1, 1)


def test_split_tables_are_built_on_demand_bounded_and_readonly():
    probe = (
        "import coposim, coposim.cli, coposim.tensor as t\n"
        "info = t._split_table.cache_info()\n"
        "print(info.currsize, info.maxsize)\n"
    )
    src = os.path.dirname(os.path.dirname(coposim.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    assert out[0] == "0" and int(out[1]) > 0
    from coposim.tensor import _split_table

    for array in _split_table(3, 4, 0, 2):
        assert not array.flags.writeable


def test_nonfinite_entries_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            SymmetricTensor(2, 2, {(1, 1): bad})
    with pytest.raises(ValueError, match="not finite"):
        SymmetricTensor.from_json('{"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "val": NaN}]}')
    with pytest.raises(ValueError, match="not finite"):
        from_polynomial(2, 2, [((2, 0), math.inf)])


def test_weighted_entries_must_stay_finite():
    # Finite entries whose multiplicity-weighted sum overflows would make
    # form values inf, or inf - inf inside fsum.
    for entries in (
        {(1, 1, 1): 1, (2, 2, 2): 1, (1, 1, 2): 1e308, (1, 2, 2): -1e308},
        {(1, 1, 2): 1e308},
        {(1, 1, 1): 1e308, (2, 2, 2): 1e308},
    ):
        with pytest.raises(ValueError, match="too large"):
            SymmetricTensor(3, 2, entries)
    with pytest.raises(ValueError, match="too large"):
        2.0 * SymmetricTensor(3, 2, {(1, 1, 2): 5e307})
    # Still under the bound: max|entry| * n**m overflows, the exact sum
    # (1e308 + 3 * 2e307) does not, and the form stays finite.
    A = SymmetricTensor(3, 2, {(1, 1, 1): 1e308, (1, 1, 2): 2e307})
    assert A.form([0.5, 0.5]) == pytest.approx(2e307)
    assert SymmetricTensor(3, 2, {(1, 1, 1): 2e307}).form([1.0, 0.0]) == 2e307


def test_multilinear_factor_permutation_invariance():
    rng = np.random.default_rng(47)
    dense = dense_of(random_symmetric(rng, 3, 3))
    factors = [rng.uniform(-1, 1, size=3) for _ in range(3)]
    reference = brute_multilinear(dense, factors)
    for perm in itertools.permutations(factors):
        assert close(brute_multilinear(dense, list(perm)), reference)


def test_storage_bound():
    A = ones_tensor(4, 3)
    assert A.nnz == math.comb(3 + 4 - 1, 4)


def test_json_round_trip():
    A = eta_shift(9.0, ones_tensor(3, 3))
    again = SymmetricTensor.from_json(A.to_json())
    assert again == A
    # unsorted input indices are canonicalized
    loaded = SymmetricTensor.from_json(
        json.dumps(
            {"order": 2, "dim": 3, "entries": [{"idx": [3, 1], "val": 2.5}]}
        )
    )
    assert loaded[(1, 3)] == 2.5
    with pytest.raises(ValueError):
        SymmetricTensor.from_json(
            json.dumps(
                {
                    "order": 2,
                    "dim": 3,
                    "entries": [
                        {"idx": [1, 3], "val": 1.0},
                        {"idx": [3, 1], "val": 2.0},
                    ],
                }
            )
        )
    with pytest.raises(ValueError):
        SymmetricTensor.from_json(json.dumps({"order": 2, "dim": 3}))
