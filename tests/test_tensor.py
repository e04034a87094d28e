import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import coposim
from coposim import (
    SymmetricTensor,
    VerdictKind,
    detect,
    eta_shift,
    from_polynomial,
    identity_tensor,
    motzkin_tensor,
    multiplicity,
    ones_tensor,
    random_tensor,
    spectral_radius,
)
from coposim.prescreen import _face_ranks
from coposim.tensor import (
    MAX_KEYS,
    MAX_ORDER,
    _key_plan,
    _key_table,
    _multiplicities,
    _rank,
    _split_table,
    corner_indices,
    split_coefficients,
)

from _brute import (
    assert_constructed,
    corner_indices_loop,
    brute_form,
    brute_gradient,
    brute_inner,
    brute_mixed,
    brute_multilinear,
    canonical_keys,
    close,
    coefficients_loop,
    congruence,
    dense_loop,
    dense_of,
    loop_form,
    loop_gradient,
    face_ranks_loop,
    principal_subtensor,
    random_symmetric,
    split_table_loop,
)


def test_public_surface():
    """``coposim.__all__`` as it stands.  A change to the public surface is
    a change of the API, and is declared in ``CHANGES.md``."""
    assert coposim.__all__ == [
        "DetectorConfig",
        "PowerIterationBudgetError",
        "PowerIterationResult",
        "PrescreenReport",
        "SymmetricTensor",
        "Verdict",
        "VerdictKind",
        "choi_lam_tensor",
        "detect",
        "diagonal_check",
        "eta_shift",
        "from_polynomial",
        "identity_tensor",
        "motzkin_tensor",
        "multiplicity",
        "ones_tensor",
        "polynomial_from_json",
        "random_tensor",
        "random_tensor_negative_diagonal",
        "robinson_tensor",
        "run_prescreen",
        "spectral_radius",
        "verify_witness",
        "zero_point_gradient_check",
    ]
    assert all(hasattr(coposim, name) for name in coposim.__all__)


MODULE_SURFACES = {
    "tensor": ["MAX_KEYS", "MAX_ORDER", "SymmetricTensor", "multiplicity", "split_coefficients"],
    "detector": ["DetectorConfig", "Verdict", "VerdictKind", "detect", "verify_witness"],
    "prescreen": ["DIAGONAL", "SUBTENSOR_SAMPLE", "ZERO_POINT_GRADIENT", "PrescreenReport",
                  "diagonal_check", "run_prescreen", "zero_point_gradient_check"],
    "instances": ["choi_lam_tensor", "eta_shift", "from_polynomial", "identity_tensor",
                  "motzkin_tensor", "ones_tensor", "polynomial_from_json", "random_tensor",
                  "random_tensor_negative_diagonal", "robinson_tensor"],
    "spectral": ["PowerIterationBudgetError", "PowerIterationResult", "spectral_radius"],
}


@pytest.mark.parametrize("name", sorted(MODULE_SURFACES))
def test_module_surface(name):
    """Each module's ``__all__`` as it stands, so an API change in any module
    shows in the diff."""
    module = getattr(coposim, name)
    assert module.__all__ == MODULE_SURFACES[name]
    assert all(hasattr(module, item) for item in module.__all__)


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
    # Values are Python or numpy integers and floats, stored as floats;
    # bools, strings and the rest are rejected, not passed to float().
    for bad in (True, np.bool_(True), "1.5", None, 1 + 0j, [1.0], 10**400):
        with pytest.raises(ValueError, match="real number"):
            SymmetricTensor(2, 2, {(1, 1): 1.0, (1, 2): bad})
    with pytest.raises(ValueError, match="real number"):
        SymmetricTensor(2, 2, {(1, 1): True, (1, 2): "1.5"})
    A = SymmetricTensor(2, 2, {(2, 2): np.float32(0.5), (1, 2): np.int64(-2), (1, 1): 3})
    assert list(A.entries.items()) == [((1, 1), 3.0), ((1, 2), -2.0), ((2, 2), 0.5)]
    assert all(type(value) is float for value in A.entries.values())


def test_vectorized_multiplicities_are_exact():
    # Past order 20 the counts can leave int64, and past 2**53 the integers
    # a float holds exactly; each slot's division must stay exact anyway.
    shapes = [(m, n) for m in range(1, 9) for n in range(1, 7)]
    shapes += [(23, 3), (40, 2), (60, 3), (30, 4), (300, 2), (1000, 2), (4096, 1)]
    for m, n in shapes:
        keys = list(canonical_keys(m, n))
        got = _multiplicities(np.array(keys) - 1)
        assert got.dtype == float
        assert got.tolist() == [float(multiplicity(key)) for key in keys], (m, n)


def test_indices_must_be_integers():
    # numpy integers and integral floats are indices; the key they name is sorted
    A = SymmetricTensor(3, 3, [((np.int64(3), 1, np.int32(2)), 1.0), ((np.int64(3), 2.0, 3), 2.0)])
    assert list(A.entries.items()) == [((1, 2, 3), 1.0), ((2, 3, 3), 2.0)]
    assert all(type(i) is int for key in A.entries for i in key)
    assert A[(np.int64(3), 2.0, 1)] == 1.0 and A[[3.0, np.int32(3), 2]] == 2.0
    assert list(SymmetricTensor(2, 2, [([2.0, 1], 1.5)]).entries.items()) == [((1, 2), 1.5)]
    for bad in ((1.5, 2), (True, 2), ("1", 2), (None, 1), (np.bool_(True), 1), (float("nan"), 1)):
        with pytest.raises(ValueError, match="index must be an integer"):
            SymmetricTensor(2, 3, [(bad, 1.0)])
        with pytest.raises(ValueError, match="index must be an integer"):
            A[bad + (1,)]
    for order, dim in ((2.7, 3), (2, 3.5), (True, 3), (2, "3"), (None, 3)):
        with pytest.raises(ValueError):
            SymmetricTensor(order, dim)
    assert SymmetricTensor(np.int64(2), 3.0).dim == 3


# One input with one fault, each given both to the constructor (as the
# entries of a (2, 3) tensor) and to ``__getitem__``, and the message it gets.
SINGLE_FAULTS = [
    ((3, 2, 1), "multi-index (1, 2, 3) has length 3, expected 2"),
    ((1, 0), "multi-index (0, 1) out of range 1..3"),
    ((4, 1), "multi-index (1, 4) out of range 1..3"),
    ((1, 10**30), "multi-index (1, 1000000000000000000000000000000) out of range 1..3"),
    ((1.5, 2), "index must be an integer, got 1.5"),
    ((2, True), "index must be an integer, got True"),
    (("1", 2), "index must be an integer, got '1'"),
]


@pytest.mark.parametrize("idx, message", SINGLE_FAULTS)
def test_single_fault_messages(idx, message):
    with pytest.raises(ValueError) as raised:
        SymmetricTensor(2, 3, [((1, 1), 1.0), (idx, 2.0), ((3, 3), 3.0)])
    assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        ones_tensor(2, 3)[idx]
    assert str(raised.value) == message


def test_single_fault_messages_of_whole_entries():
    for entries, message in (
        ([((1, 2), 1.0), ((3, 3), 2.0), ((2, 1), 3.0)], "duplicate canonical key (1, 2)"),
        ({(1, 1): 1.0, (2, 1): "x"},
         "entry (1, 2) must be a real number in the float range, got 'x'"),
    ):
        with pytest.raises(ValueError) as raised:
            SymmetricTensor(2, 3, entries)
        assert str(raised.value) == message
    # Pairs unpack as pairs: a longer one is refused, not cut short.
    with pytest.raises(ValueError, match="unpack"):
        SymmetricTensor(2, 2, [((1, 1), 1.0, "junk"), ((1, 2), 2.0)])
    for empty in (None, {}, [], iter(())):
        assert SymmetricTensor(2, 2, empty) == SymmetricTensor(2, 2)


# Shapes with one slot, one index, and up to 330 keys of order up to 6.
INTAKE_SHAPES = ((1, 4), (4, 1), (2, 5), (3, 10), (4, 8), (6, 4))


@pytest.mark.parametrize("m, n", INTAKE_SHAPES)
def test_intake_matches_the_loop_oracle(m, n):
    # Every key permuted, and given as a tuple, a list, an np.int64 array or
    # integral floats; the entries as a Mapping and as a list of pairs.
    rng = np.random.default_rng(71)
    keys = [key for key in canonical_keys(m, n) if rng.random() < 0.7]
    values = rng.uniform(-1.0, 1.0, size=len(keys)).tolist()
    forms = (tuple, list, lambda key: np.array(key, np.int64), lambda key: [float(i) for i in key])
    hashable = (tuple, lambda key: tuple(map(np.int64, key)), lambda key: tuple(map(float, key)))
    scrambled = [rng.permutation(key).tolist() for key in keys]
    pairs = [(forms[t % 4](key), value) for t, (key, value) in enumerate(zip(scrambled, values))]
    mapping = {hashable[t % 3](key): value for t, (key, value) in enumerate(zip(scrambled, values))}
    expected = coefficients_loop(m, n, zip(keys, values))
    for entries in (pairs, pairs[::-1], mapping):
        A = SymmetricTensor(m, n, entries)
        assert A.coefficient_vector().tobytes() == expected.tobytes(), (m, n)
    for t, key in enumerate(canonical_keys(m, n)):
        assert A[forms[t % 4](rng.permutation(key).tolist())] == expected[t], (m, n, key)


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
    # A bool is no scale factor, numpy's included; numpy numbers are.
    for flag in (True, False, np.True_, np.False_):
        with pytest.raises(TypeError):
            flag * E
        with pytest.raises(TypeError):
            E * flag
    for scalar in (np.int64(2), np.int32(2), np.float64(2.0), np.float32(2.0)):
        assert scalar * E == E * scalar == 2.0 * E


def test_arithmetic_builds_what_the_public_constructor_builds():
    # Sums, differences, multiples and negations hand their keys in
    # canonical order; the public constructor sorts them itself.
    rng = np.random.default_rng(23)
    for m, n in ((1, 3), (2, 2), (3, 3), (4, 5)):
        dense = random_symmetric(rng, m, n)
        sparse, other = (
            SymmetricTensor(m, n, {k: v for k, v in T.entries.items() if rng.random() < 0.4})
            for T in (dense, random_symmetric(rng, m, n))
        )
        for A, B in ((dense, sparse), (sparse, dense), (sparse, other), (dense, -1.0 * dense)):
            keys = sorted(set(A.entries) | set(B.entries))
            a, b = (T.entries.get for T in (A, B))
            assert_constructed(A + B, [(k, a(k, 0.0) + b(k, 0.0)) for k in keys])
            assert_constructed(A - B, [(k, a(k, 0.0) + (-1.0) * b(k, 0.0)) for k in keys])
            for t in (2.5, -1.0, 0.0, 3):
                assert_constructed(t * A, [(k, t * v) for k, v in A.entries.items()])
            assert_constructed(-A, [(k, -v) for k, v in A.entries.items()])


def test_scaling_checks_overflow_and_drops_underflow():
    A = SymmetricTensor(2, 2, {(1, 1): 1e10, (1, 2): 1e-300, (2, 2): 1.0})
    for t in (1e300, -1e300):
        with pytest.raises(ValueError, match="not finite"):
            t * A
    for t in (1e-100, -1e-100):  # 1e-400 underflows to a signed zero
        assert list((t * A).entries) == [(1, 1), (2, 2)]


def _plan(T: SymmetricTensor):
    return _key_plan(T.order, T.dim)


def test_tensors_with_one_key_set_share_a_readonly_plan():
    # Every tensor stores every key of its shape, so one plan serves them all.
    x = np.full(5, 0.2)
    A = random_tensor(4, 5, 0)
    # One shape four ways: another seed, a shift, keys parsed afresh, and a sparse tensor.
    others = (random_tensor(4, 5, 1), eta_shift(3.0, A), SymmetricTensor.from_json_dict(json.loads(json.dumps(A.to_json_dict()))),
              SymmetricTensor(4, 5, {(1, 2, 2, 5): 1.0}))
    plan = _plan(A)
    (columns, multiplicities), (rest, rows, counts) = plan
    for T in others:
        assert _plan(T) is plan
        assert T._form_arrays()[0] is columns and T._gradient_arrays()[0] is rest
        assert np.array_equal(T.gradient_form(x), loop_gradient(T, x))
    assert A._form_arrays()[1] is not others[0]._form_arrays()[1]
    assert len(columns[0]) == math.comb(5 + 4 - 1, 4)
    assert len(rest) == 3 and rows.shape == counts.shape == (5, math.comb(5 + 3 - 1, 3))
    for array in (*columns, multiplicities, *rest, rows, counts):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    # A sparse tensor's absent keys add exact zero terms.
    sparse = SymmetricTensor(6, 12, {(1,) * 6: 2.0, (1,) * 5 + (12,): -1.0, (3, 4, 5, 6, 7, 8): 1.0})
    y = np.linspace(1.0, 2.0, 12)
    assert sparse.form(y) == loop_form(sparse, y)
    assert np.array_equal(sparse.gradient_form(y), loop_gradient(sparse, y))
    # Every coefficient vector is a fresh array.
    c = A.coefficient_vector()
    c[:] = -1.0
    assert A.coefficient_vector().min() > 0.0


def test_root_vertex_values_are_the_corner_coefficients():
    # detect reads the root's vertex values off its corner coefficients:
    # bit for bit A.form(e_i), and +0.0 where the diagonal entry is absent.
    rng = np.random.default_rng(29)
    for m, n in ((2, 3), (3, 4), (6, 3), (4, 5)):
        dense = random_symmetric(rng, m, n)
        offdiagonal = SymmetricTensor(m, n, {k: v for k, v in dense.entries.items() if k[0] < k[-1]})
        for A in (dense, offdiagonal, -1.0 * offdiagonal, SymmetricTensor(m, n)):
            corners = A.coefficient_vector().take(corner_indices(m, n)).tolist()
            forms = [A.form(e) for e in np.eye(n)]
            assert corners == forms
            signs = [math.copysign(1.0, v) for v in corners + forms]
            assert signs[:n] == signs[n:]
        assert all(math.copysign(1.0, v) == 1.0 for v in [offdiagonal.form(e) for e in np.eye(n)])
    verdict = detect(SymmetricTensor(2, 3, {(1, 2): 1.0}))
    assert verdict.iterations == 1 and math.copysign(1.0, verdict.min_vertex_value) == 1.0


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


@pytest.mark.parametrize("m, n", [(1, 4), (2, 5), (3, 3), (4, 4), (5, 4), (6, 3), (6, 5),
                                  (7, 3), (4, 8), (3, 10), (22, 3)])
def test_form_and_gradient_match_reference_loops_exactly(m, n, monkeypatch):
    rng = np.random.default_rng(1000 * m + n)
    previous = SymmetricTensor(m, n)
    for trial in range(5):
        A = random_symmetric(rng, m, n)
        if trial % 2:  # some keys absent
            A = SymmetricTensor(m, n, {k: v for k, v in A.entries.items() if rng.random() < 0.5})
        # and tensors built by arithmetic, whose keys skip canonicalization
        built = (A, A + previous, -2.5 * A, eta_shift(1.5, A))
        previous = A
        for T, x in itertools.product(
            built, (rng.uniform(-1, 1, size=n), rng.dirichlet(np.ones(n)), np.eye(n)[0])
        ):
            assert T.form(x) == loop_form(T, x)
            assert np.array_equal(T.gradient_form(x), loop_gradient(T, x))
    if m > 1:  # and the power iteration, which contracts through gradient_form only
        B, tol = random_tensor(m, n, 0), 1e-10 * n**m  # its rho is below n**m
        ours = spectral_radius(B, tol)
        monkeypatch.setattr(SymmetricTensor, "gradient_form", loop_gradient)
        loop = spectral_radius(B, tol)
        assert (ours.rho, ours.lower, ours.upper, ours.iterations) == (
            loop.rho, loop.lower, loop.upper, loop.iterations)
        assert np.array_equal(ours.x, loop.x)


def test_split_coefficients_track_the_congruence():
    # Each split is a convex combination of at most m + 1 parent
    # coefficients: at most 2m + 1 roundings of eps/2 relative to max|A|,
    # so each level adds under (m + 1) * eps * max|A| to the carried
    # error.  The dense reference adds about m * n such roundings.  The
    # bound is fixed from eps, the shape and the depth alone.  Both
    # children are checked; the walk goes on in one of them at random.
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
                p, q = sorted(int(i) for i in rng.choice(n, size=2, replace=False))
                children = split_coefficients(c, m, n, p, q)
                assert children.shape == (2, len(c))
                tol = (level * (m + 1) + m * n) * eps * scale
                mid = 0.5 * (V[:, p] + V[:, q])
                for row, moved in enumerate((p, q)):
                    W = V.copy()
                    W[:, moved] = mid
                    reference = congruence(dense, W).coefficient_vector()
                    assert np.max(np.abs(children[row] - reference)) <= tol
                row = int(rng.integers(2))
                V[:, (p, q)[row]] = mid
                c = children[row]
    coefficients = ones_tensor(3, 3).coefficient_vector()
    for p, q in ((1, 1), (2, 1), (0, 3), (-1, 2)):
        with pytest.raises(ValueError):
            split_coefficients(coefficients, 3, 3, p, q)


def test_split_tables_are_built_on_demand_bounded_and_readonly():
    # Importing the package and the CLI builds no per-shape table.
    probe = (
        "import coposim, coposim.cli\n"
        "from coposim import detector as d, prescreen as p, tensor as t\n"
        "for cache in (t._key_table, t._key_plan, t._split_table, t.corner_indices,\n"
        "              p._face_ranks, d._edges):\n"
        "    info = cache.cache_info()\n"
        "    print(cache.__name__, info.currsize, info.maxsize)\n"
    )
    src = os.path.dirname(os.path.dirname(coposim.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.splitlines()
    assert len(out) == 6
    for line in out:
        name, size, bound = line.split()
        assert size == "0" and int(bound) > 0, line
    from coposim.tensor import _split_table

    for array in _split_table(3, 4, 0, 2):
        assert not array.flags.writeable
    # One table per unordered edge: all 136 edges of a 17-vertex cell stay
    # cached, so a second sweep over them builds nothing.
    edges = list(itertools.combinations(range(17), 2))
    assert len(edges) == 136
    for p, q in edges:
        _split_table(2, 17, p, q)
    before = _split_table.cache_info()
    for p, q in edges:
        _split_table(2, 17, p, q)
    after = _split_table.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (136, 0)


def test_split_tables_and_corners_match_the_tuple_key_builders():
    # Every shape of the golden sweep, plus two larger ones: the shared
    # key index must give the plans a key-by-key build gives, read-only.
    from test_equivalence_sweep import SHAPES

    for m, n in (*SHAPES, (6, 8), (3, 12)):
        assert corner_indices(m, n) == corner_indices_loop(m, n), (m, n)
        for p, q in itertools.combinations(range(n), 2):
            for ours, loop in zip(_split_table(m, n, p, q), split_table_loop(m, n, p, q)):
                assert ours.dtype == loop.dtype and np.array_equal(ours, loop), (m, n, p, q)
                assert not ours.flags.writeable
    keys, ranks = _key_table(3, 4)
    assert keys.tolist() == [[i - 1 for i in key] for key in canonical_keys(3, 4)]
    assert ranks.shape == (3, 4) and _key_table(np.int64(3), 4.0)[0] is keys  # cached by value
    for array in (keys, ranks):
        with pytest.raises(ValueError):
            array[0, 0] = 5


# Shapes with one index or one slot, every golden-sweep shape, and shapes
# whose keys would overflow a base-(m + 1) exponent code, (3, 32), or hold
# many slots, (20, 3), or many indices, (2, 300).
RANK_SHAPES = ((1, 1), (1, 7), (5, 1), (3, 3), (3, 4), (4, 3), (4, 4), (6, 3), (4, 5), (6, 5),
               (3, 6), (6, 8), (3, 12), (3, 32), (20, 3), (2, 300))


@pytest.mark.parametrize("m, n", RANK_SHAPES)
def test_rank_rule_gives_every_key_its_position(m, n):
    keys = list(canonical_keys(m, n))
    position = {key: t for t, key in enumerate(keys)}
    ranks = _rank(m, n, np.array(keys) - 1)
    assert ranks.dtype == np.intp and ranks.tolist() == list(range(len(keys)))
    assert corner_indices(m, n) == tuple(position[(i,) * m] for i in range(1, n + 1))
    rng = np.random.default_rng(61)
    drawn = np.sort(rng.integers(0, n, size=(200, m)), axis=1)
    assert _rank(m, n, drawn).tolist() == [position[tuple(key)] for key in (drawn + 1).tolist()]


def test_face_ranks_match_the_tuple_key_builder():
    from test_equivalence_sweep import SHAPES

    for m, n in (*SHAPES, (6, 8), (3, 12)):
        ours = _face_ranks(m, n)
        assert np.array_equal(ours, face_ranks_loop(m, n)) and not ours.flags.writeable, (m, n)


def test_split_coefficients_equal_the_exact_congruence():
    # An oracle that shares no code with the split: the dense congruence of
    # the child's vertex matrix.  With integer entries within 2**10 and
    # vertices of denominator 2**d after d splits, every coefficient on
    # both sides is a multiple of 2**-(m*d) below 2**10 in size, so while
    # 10 + m*d <= 53 both sides are exact in any summation order and must
    # be equal.  Every edge of the root is split, then one path goes on as
    # deep as that allows.
    from test_equivalence_sweep import SHAPES

    rng = np.random.default_rng(59)
    for m, n in (*SHAPES, (6, 8), (3, 12)):
        values = rng.integers(-2**10, 2**10, endpoint=True, size=math.comb(n + m - 1, m))
        A = SymmetricTensor(m, n, zip(canonical_keys(m, n), values.tolist()))
        dense = dense_of(A)

        def children_match(V, c, p, q):
            children = split_coefficients(c, m, n, p, q)
            for row, moved in enumerate((p, q)):
                W = V.copy()
                W[:, moved] = 0.5 * (V[:, p] + V[:, q])
                assert np.array_equal(children[row], congruence(dense, W).coefficient_vector()), (m, n, p, q)
            return children

        for p, q in itertools.combinations(range(n), 2):
            children_match(np.eye(n), A.coefficient_vector(), p, q)
        V, c = np.eye(n), A.coefficient_vector()
        for depth in range(1, (53 - 10) // m + 1):
            p, q = sorted(rng.choice(n, size=2, replace=False).tolist())
            row = int(rng.integers(2))
            c = children_match(V, c, p, q)[row]
            V[:, (p, q)[row]] = 0.5 * (V[:, p] + V[:, q])


def test_nonfinite_entries_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            SymmetricTensor(2, 2, {(1, 1): bad})
    with pytest.raises(ValueError, match="not finite"):
        SymmetricTensor.from_json_dict(
            json.loads('{"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "val": NaN}]}')
        )
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


def test_shapes_above_the_key_bound_are_refused_before_allocating():
    # 314 457 495 and 1.3e12 keys, and 1 000 001 keys of a million indices
    # each: every one raises before the key index or a vector is built.
    tracemalloc.start()
    try:
        for make in (
            lambda: SymmetricTensor(8, 40),
            lambda: SymmetricTensor(8, 40, {(1,) * 8: 1.0}),
            lambda: ones_tensor(8, 40),
            lambda: identity_tensor(8, 40),
            lambda: random_tensor(12, 60, 0),
            lambda: SymmetricTensor(10**6, 2),
            lambda: SymmetricTensor(10**9, 10**9),
        ):
            with pytest.raises(ValueError, match="MAX_KEYS"):
                make()
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    # The largest shape any test, demo or workload uses stays well inside.
    assert math.comb(12 + 6 - 1, 6) == 12376 <= MAX_KEYS
    A = random_tensor(6, 12, 0)
    assert A.nnz == 12376 and len(A.coefficient_vector()) == 12376
    assert detect(A).kind is VerdictKind.COPOSITIVE


def test_shapes_whose_multiplicities_leave_the_float_range_are_refused():
    # C(1100, 550) is about 10**329.5: no tensor of that shape, the zero
    # tensor included, can weigh its keys, so the shape is refused at once.
    for make in (
        lambda: SymmetricTensor(1100, 2),
        lambda: SymmetricTensor(1100, 2, {(1,) * 1100: 1.0}),
        lambda: identity_tensor(1100, 2),
        lambda: ones_tensor(1100, 2),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"shape \(order 1100, dim 2\).*10\*\*329\.5"):
            make()
        assert time.perf_counter() - start < 0.1
    # C(1000, 500) is about 2.7e299, a float.
    assert identity_tensor(1000, 2).form([0.5, 0.5]) == 2 * 0.5**1000


def test_orders_above_the_order_bound_are_refused():
    # Only dimension 1 passes MAX_KEYS at such orders; there every per-shape
    # plan takes O(order) Python-level steps, so the shape is refused at once.
    for make in (lambda: identity_tensor(10**6, 1), lambda: SymmetricTensor(MAX_ORDER + 1, 1)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"shape \(order \d+, dim 1\).*MAX_ORDER = 4096"):
            make()
        assert time.perf_counter() - start < 0.1
    A = identity_tensor(MAX_ORDER, 1)
    assert A.form([1.0]) == 1.0 and spectral_radius(A).rho == 1.0


def test_dense_of_matches_the_per_position_fill():
    rng = np.random.default_rng(67)
    for m, n in ((1, 1), (1, 4), (2, 3), (3, 3), (4, 2), (5, 1), (3, 5)):
        A = random_symmetric(rng, m, n)
        for T in (A, SymmetricTensor(m, n, {k: v for k, v in A.entries.items() if k[0] < 2})):
            assert np.array_equal(dense_of(T), dense_loop(T)), (m, n)


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
    again = SymmetricTensor.from_json_dict(json.loads(json.dumps(A.to_json_dict())))
    assert again == A
    # unsorted input indices are canonicalized
    loaded = SymmetricTensor.from_json_dict(
        {"order": 2, "dim": 3, "entries": [{"idx": [3, 1], "val": 2.5}]}
    )
    assert loaded[(1, 3)] == 2.5
    with pytest.raises(ValueError):
        SymmetricTensor.from_json_dict(
            {
                "order": 2,
                "dim": 3,
                "entries": [
                    {"idx": [1, 3], "val": 1.0},
                    {"idx": [3, 1], "val": 2.0},
                ],
            }
        )
    with pytest.raises(ValueError):
        SymmetricTensor.from_json_dict({"order": 2, "dim": 3})
