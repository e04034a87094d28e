import json
import math

import numpy as np
import pytest

from coposim import (
    SymmetricTensor,
    VerdictKind,
    choi_lam_tensor,
    detect,
    eta_shift,
    from_polynomial,
    identity_tensor,
    motzkin_tensor,
    multiplicity,
    ones_tensor,
    polynomial_from_json,
    random_tensor,
    random_tensor_negative_diagonal,
    robinson_tensor,
    spectral_radius,
)

from _brute import (
    ZeroingGenerator,
    assert_constructed,
    barycentric_lattice,
    canonical_keys,
    random_symmetric,
    random_tensor_loop,
)


def test_identity_and_ones():
    I = identity_tensor(3, 3)
    assert I[(1, 1, 1)] == 1.0
    assert I[(1, 1, 2)] == 0.0
    assert ones_tensor(3, 3).form([1, 0, 0]) == pytest.approx(1.0)
    assert identity_tensor(4, 2).form([1, 1]) == pytest.approx(2.0)
    assert ones_tensor(3, 3).nnz == math.comb(5, 3)


def test_eta_shift():
    shifted = eta_shift(9.0, ones_tensor(3, 3))
    assert shifted[(1, 1, 1)] == 8.0
    assert shifted[(1, 1, 2)] == -1.0
    zero = eta_shift(0.0, SymmetricTensor(3, 3))
    assert zero.nnz == 0


def test_instance_constructors_build_what_the_public_constructor_builds():
    rng = np.random.default_rng(31)
    for m, n in ((1, 3), (2, 4), (3, 3), (4, 5), (6, 3)):
        keys = list(canonical_keys(m, n))
        diagonal = [(i,) * m for i in range(1, n + 1)]
        assert_constructed(identity_tensor(m, n), [(key, 1.0) for key in diagonal])
        assert_constructed(ones_tensor(m, n), [(key, 1.0) for key in keys])
        for seed in (0, 7):
            drawn = random_tensor(m, n, seed)
            assert_constructed(drawn, drawn.entries.items())
            assert_constructed(
                random_tensor_negative_diagonal(m, n, seed),
                [(key, -1.0 if key == keys[0] else value) for key, value in drawn.entries.items()],
            )
        dense = random_symmetric(rng, m, n)
        sparse = SymmetricTensor(m, n, {k: v for k, v in dense.entries.items() if k[0] % 2})
        for B, eta in ((dense, 2.5), (sparse, 2.5), (sparse, 0.0), (dense, dense[diagonal[-1]])):
            # eta * identity - B, term by term as the arithmetic forms it
            shift = {key: eta * 1.0 for key in diagonal}
            union = sorted(set(B.entries) | set(diagonal))
            pairs = [(k, shift.get(k, 0.0) + (-1.0) * B.entries.get(k, 0.0)) for k in union]
            assert_constructed(eta_shift(eta, B), pairs)
            arithmetic = eta * identity_tensor(m, n) - B
            assert list(eta_shift(eta, B).entries.items()) == list(arithmetic.entries.items())


def test_random_tensor_matches_the_one_draw_loop(monkeypatch):
    # One block of K draws, zero draws dropped and topped up from the same
    # stream, gives the one-at-a-time loop's values.
    for m, n in ((1, 2), (3, 3), (4, 5), (6, 5), (3, 10)):
        for seed in (0, 1, 2**64 - 1):
            fast = random_tensor(m, n, seed)
            slow = random_tensor_loop(m, n, np.random.Generator(np.random.Philox(key=seed)))
            assert list(fast.entries.items()) == list(slow.entries.items())
    # Exact zeros at stream positions 2, 5 (first block of K = 10) and 10
    # (first top-up): the top-up runs twice.
    zeros = (2, 5, 10)
    stubs = []

    def stub(bits):
        stubs.append(ZeroingGenerator(bits, zeros))
        return stubs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "Generator", stub)
        fast = random_tensor(3, 3, 5)
    slow_stream = ZeroingGenerator(np.random.Philox(key=5), zeros)
    slow = random_tensor_loop(3, 3, slow_stream)
    assert list(fast.entries.items()) == list(slow.entries.items())
    assert stubs[0].drawn == slow_stream.drawn == 13
    assert fast != random_tensor(3, 3, 5) and 0.0 not in fast.entries.values()


def test_random_tensors_of_one_shape_share_their_keys():
    # The entries are those drawn against a fresh key list, bit for bit.
    for m, n in ((1, 3), (3, 3), (4, 8), (3, 10)):
        for seed in (0, 5):
            A, B = random_tensor(m, n, seed), random_tensor(m, n, seed + 1)
            keys = list(canonical_keys(m, n))
            values = np.random.Generator(np.random.Philox(key=seed)).random(len(keys))
            assert list(A.entries) == keys
            assert np.array(list(A.entries.values())).tobytes() == values.tobytes()
            assert list(B.entries) == keys


def test_random_tensor_determinism_and_range():
    A = random_tensor(3, 3, 42)
    B = random_tensor(3, 3, 42)
    assert A == B
    assert A != random_tensor(3, 3, 43)
    for seed in range(5):
        T = random_tensor(4, 3, seed)
        assert T.nnz == math.comb(3 + 4 - 1, 4)
        assert all(0.0 < value < 1.0 for value in T.entries.values())


def test_identity_eta_shift_and_spectral_radius_check_their_arguments():
    # identity_tensor raised TypeError from tuple repetition, eta_shift
    # read "9" as 9.0 and True as 1.0, and spectral_radius ran tol=True as
    # 1.0 and raised TypeError on a string or None.
    B = ones_tensor(3, 3)
    cases = (
        (lambda: identity_tensor("3", 3), "order"),
        (lambda: identity_tensor(True, 3), "order"),
        (lambda: identity_tensor(3, 2.5), "dim"),
        (lambda: eta_shift("9", B), "eta"),
        (lambda: eta_shift(True, B), "eta"),
        (lambda: eta_shift(None, B), "eta"),
        (lambda: spectral_radius(B, tol=True), "tol"),
        (lambda: spectral_radius(B, tol="1e-8"), "tol"),
        (lambda: spectral_radius(B, tol=None), "tol"),
    )
    for case, name in cases:
        with pytest.raises(ValueError, match=name):
            case()
    # Numpy scalars, and integral floats where an integer is wanted, as
    # ones_tensor and random_tensor take them.
    assert identity_tensor(3.0, np.int64(3)) == identity_tensor(np.uint8(3), 3.0) == identity_tensor(3, 3)
    assert eta_shift(np.float32(9.0), B) == eta_shift(np.int64(9), B) == eta_shift(9.0, B)
    assert spectral_radius(B, tol=np.float64(1e-8)).rho == spectral_radius(B).rho


def test_random_tensor_detects_copositive_in_one_iteration():
    for seed in range(5):
        verdict = detect(random_tensor(3, 3, seed))
        assert verdict.kind is VerdictKind.COPOSITIVE
        assert verdict.iterations == 1


def test_negative_diagonal_variant():
    B = random_tensor_negative_diagonal(3, 3, 7)
    assert B[(1, 1, 1)] == -1.0
    base = random_tensor(3, 3, 7)
    assert B[(1, 2, 3)] == base[(1, 2, 3)]


def test_random_tensors_take_integer_arguments_only():
    # Integral floats and numpy integers name the same tensor; a fractional
    # or boolean order, dim or seed used to be truncated into another one.
    A = random_tensor(3, 3, 2)
    assert random_tensor(3.0, np.int64(3), 2.0) == A
    assert random_tensor_negative_diagonal(3.0, 3, np.uint8(2)) == random_tensor_negative_diagonal(3, 3, 2)
    # ones_tensor checks before its cached key lookup, where 3.0 == 3 and
    # True == 1 would find another shape's keys.
    ones_tensor(3, 3), ones_tensor(1, 3)
    assert ones_tensor(3.0, np.int64(3)) == ones_tensor(3, 3)
    for args, name in (((True, 3), "order"), ((3, "3"), "dim"), ((2.5, 3), "order")):
        with pytest.raises(ValueError, match=name):
            ones_tensor(*args)
    for make in (random_tensor, random_tensor_negative_diagonal):
        for args, name in (
            ((3, 3, 2.5), "seed"),
            ((3, 3, True), "seed"),
            ((3, 3, "1"), "seed"),
            ((3.5, 3, 0), "order"),
            ((3, False, 0), "dim"),
        ):
            with pytest.raises(ValueError, match=name):
                make(*args)


def test_from_polynomial_single_monomial():
    T = from_polynomial(6, 3, [((6, 0, 0), 1.0)])
    assert T[(1,) * 6] == 1.0
    assert T.nnz == 1


def test_from_polynomial_validation():
    with pytest.raises(ValueError):
        from_polynomial(6, 3, [((4, 1, 0), 1.0)])  # exponents sum to 5
    with pytest.raises(ValueError):
        from_polynomial(6, 3, [((4, 2), 1.0)])  # wrong length
    with pytest.raises(ValueError):
        from_polynomial(6, 3, [((4, 2, 0), 1.0), ((4, 2, 0), 2.0)])
    with pytest.raises(ValueError, match="nonnegative"):
        from_polynomial(6, 3, [((1, -1, 6), 1.0)])
    for exponents in ((1.5, 0.5, 4), (True, 1, 4), ("2", 0, 4)):
        with pytest.raises(ValueError, match="exponent must be an integer"):
            from_polynomial(6, 3, [(exponents, 1.0)])
    T = from_polynomial(6, 3, [((np.int64(2), 4.0, 0), 1.0)])
    assert T == from_polynomial(6, 3, [((2, 4, 0), 1.0)])
    assert T[(1, 1, 2, 2, 2, 2)] == 1.0 / 15
    with pytest.raises(ValueError):
        from_polynomial(6.5, 3, [((4, 2, 0), 1.0)])


def test_symmetrization_weights():
    M = motzkin_tensor()
    assert M[(1, 1, 1, 1, 2, 2)] == pytest.approx(1 / 15)
    R = robinson_tensor()
    assert R[(1, 1, 2, 2, 3, 3)] == pytest.approx(1 / 30)
    assert multiplicity((1, 1, 2, 2, 3, 3)) == 90


def test_permutation_class_sums():
    M = motzkin_tensor()
    R = robinson_tensor()
    C = choi_lam_tensor()
    def class_sum(T, key):
        return multiplicity(key) * T[key]
    assert class_sum(M, (1, 1, 1, 1, 2, 2)) == pytest.approx(1.0, abs=1e-13)
    assert class_sum(M, (1, 1, 2, 2, 2, 2)) == pytest.approx(1.0, abs=1e-13)
    assert M[(3, 3, 3, 3, 3, 3)] == 1.0
    assert class_sum(M, (1, 1, 2, 2, 3, 3)) == pytest.approx(-3.0, abs=1e-13)
    assert class_sum(R, (1, 1, 2, 2, 3, 3)) == pytest.approx(3.0, abs=1e-13)
    assert class_sum(R, (1, 1, 1, 1, 2, 2)) == pytest.approx(-1.0, abs=1e-13)
    assert class_sum(C, (1, 1, 1, 1, 2, 2)) == pytest.approx(1.0, abs=1e-13)
    assert class_sum(C, (2, 2, 2, 2, 3, 3)) == pytest.approx(1.0, abs=1e-13)
    assert class_sum(C, (1, 1, 3, 3, 3, 3)) == pytest.approx(1.0, abs=1e-13)
    assert class_sum(C, (1, 1, 2, 2, 3, 3)) == pytest.approx(-3.0, abs=1e-13)


def _poly_value(monomials, x):
    return math.fsum(
        c * math.prod(xi ** e for xi, e in zip(x, exps)) for exps, c in monomials
    )


def test_polynomial_round_trip():
    rng = np.random.default_rng(19)
    for _ in range(10):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 4))
        monomials = []
        seen = set()
        for _ in range(int(rng.integers(1, 6))):
            cuts = sorted(rng.integers(0, m + 1, size=n - 1).tolist())
            exps = tuple(
                b - a for a, b in zip([0] + cuts, cuts + [m])
            )
            if exps in seen:
                continue
            seen.add(exps)
            monomials.append((exps, float(rng.uniform(-2, 2))))
        T = from_polynomial(m, n, monomials)
        for _ in range(100):
            x = rng.uniform(-1, 1, size=n)
            assert T.form(x) == pytest.approx(_poly_value(monomials, x), abs=1e-12)


def test_named_tensor_values():
    M = motzkin_tensor()
    R = robinson_tensor()
    C = choi_lam_tensor()
    assert (M.order, M.dim) == (6, 3)
    assert M.form([1, 1, 1]) == pytest.approx(0.0, abs=1e-15)
    assert R.form([1, 1, 0]) == pytest.approx(0.0, abs=1e-15)
    assert C.form([1, 0, 0]) == pytest.approx(0.0, abs=1e-15)


def test_named_tensors_nonnegative_with_boundary_zero():
    uniform = np.full(3, 1 / 3)
    for T in (motzkin_tensor(), robinson_tensor(), choi_lam_tensor()):
        values = [T.form(x) for x in barycentric_lattice(3, 20)]
        assert min(values) >= -1e-12
        assert abs(T.form(uniform)) <= 1e-15


def test_polynomial_json_reader():
    text = """
    {"order": 6, "dim": 3,
     "monomials": [{"exponents": [4, 2, 0], "coeff": 1.0},
                   {"exponents": [2, 4, 0], "coeff": 1.0},
                   {"exponents": [0, 0, 6], "coeff": 1.0},
                   {"exponents": [2, 2, 2], "coeff": -3.0}]}
    """
    assert polynomial_from_json(json.loads(text)) == motzkin_tensor()
    with pytest.raises(ValueError):
        polynomial_from_json(json.loads('{"order": 6, "dim": 3}'))
    with pytest.raises(ValueError):
        polynomial_from_json(json.loads('{"order": 6, "dim": 3, "monomials": [{"coeff": 1.0}]}'))
    # Coefficients are Python or numpy ints and floats; not strings or bools.
    for coeff in ('"3"', "true", "null", "[1]"):
        with pytest.raises(ValueError, match="coefficient"):
            polynomial_from_json(json.loads(
                '{"order": 2, "dim": 2, "monomials": [{"exponents": [2, 0], "coeff": %s}]}' % coeff
            ))
    assert polynomial_from_json(json.loads(
        '{"order": 2, "dim": 2, "monomials": [{"exponents": [1, 1], "coeff": 3}]}'
    )).entries == {(1, 2): 1.5}
