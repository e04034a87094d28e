from collections import Counter

import numpy as np
import pytest

from coposim import (
    DetectorConfig,
    SymmetricTensor,
    VerdictKind,
    barycentric_lattice,
    detect,
    diagonal_check,
    eta_shift,
    identity_tensor,
    motzkin_tensor,
    ones_tensor,
    random_tensor,
    random_tensor_negative_diagonal,
    run_prescreen,
    subtensor_sample_refute,
    verify_witness,
    zero_point_gradient_check,
)
from coposim.prescreen import DIAGONAL, SUBTENSOR_SAMPLE, ZERO_POINT_GRADIENT

from _brute import random_symmetric, subtensor_prescreen

# Zero at e1, where the contraction is (0, -0.1): the form slopes down
# into the simplex.
SLOPED = SymmetricTensor(3, 2, {(1, 1, 2): -0.1, (1, 2, 2): 1.0, (2, 2, 2): 1.0})


def test_barycentric_lattice():
    closed = list(barycentric_lattice(2, 2))
    assert sorted(tuple(p) for p in closed) == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    interior = list(barycentric_lattice(2, 2, interior=True))
    assert [tuple(p) for p in interior] == [(0.5, 0.5)]
    assert list(barycentric_lattice(3, 2, interior=True)) == []
    depth20 = list(barycentric_lattice(3, 20))
    assert len(depth20) == 231
    with pytest.raises(ValueError):
        list(barycentric_lattice(0, 2))


def test_diagonal_check():
    for seed in range(3):
        assert diagonal_check(random_tensor(3, 3, seed)).passed
    assert diagonal_check(identity_tensor(3, 3)).passed
    report = diagonal_check(random_tensor_negative_diagonal(4, 3, 0))
    assert not report.passed
    assert report.violated_condition == DIAGONAL
    assert np.array_equal(report.witness, [1.0, 0.0, 0.0])
    assert verify_witness(random_tensor_negative_diagonal(4, 3, 0), report.witness)


def test_zero_point_gradient_check_passes():
    M = motzkin_tensor()
    report = zero_point_gradient_check(M, np.ones(3))  # rescaled internally
    assert report.passed
    assert np.allclose(M.gradient_form(np.full(3, 1 / 3)), 0.0, atol=1e-15)
    A = eta_shift(9.0, ones_tensor(3, 3))
    assert zero_point_gradient_check(A, np.full(3, 1 / 3)).passed


def test_zero_point_gradient_check_requires_zero():
    with pytest.raises(ValueError):
        zero_point_gradient_check(identity_tensor(3, 3), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        zero_point_gradient_check(identity_tensor(3, 3), np.zeros(3))
    with pytest.raises(ValueError):
        zero_point_gradient_check(identity_tensor(3, 3), np.array([-1.0, 1.0, 1.0]))


def test_zero_point_gradient_check_refutes():
    # form is -3 x^2 y: zero at e1, but the contraction there points down
    A = SymmetricTensor(3, 2, {(1, 1, 2): -1.0})
    report = zero_point_gradient_check(A, np.array([1.0, 0.0]))
    assert not report.passed
    assert report.violated_condition == ZERO_POINT_GRADIENT
    point, direction = report.witness
    assert np.array_equal(point, [1.0, 0.0])
    assert np.array_equal(direction, [0.0, 1.0])
    # the stated inequality re-verifies from the witness pair alone
    slot = int(np.argmax(direction))
    assert A.gradient_form(point)[slot] < -1e-12


def test_subtensor_sample_refute():
    E = ones_tensor(3, 3)
    report = subtensor_sample_refute(-1.0 * E, [1, 2], grid_depth=1)
    assert not report.passed
    assert report.violated_condition == SUBTENSOR_SAMPLE
    assert report.J == (1, 2)
    assert np.allclose(report.witness, [0.5, 0.5, 0.0])
    assert verify_witness(-1.0 * E, report.witness)

    for J in ([1], [2, 3], [1, 2, 3]):
        for depth in (1, 2, 4):
            assert subtensor_sample_refute(E, J, depth).passed

    shifted = eta_shift(1.0, E)
    report = subtensor_sample_refute(shifted, [1, 2], grid_depth=1)
    assert not report.passed
    assert np.allclose(report.witness, [0.5, 0.5, 0.0])
    assert shifted.form(report.witness) == pytest.approx(-0.75)

    with pytest.raises(ValueError):
        subtensor_sample_refute(E, [])
    with pytest.raises(ValueError):
        subtensor_sample_refute(E, [1], grid_depth=0)
    for J in ([0, 1], [2, 4], [-1], [1.5, 2], [True, 2]):
        with pytest.raises(ValueError):
            subtensor_sample_refute(E, J)


def test_run_prescreen_order_and_short_circuit():
    # fails both the diagonal and subtensor checks; diagonal runs first
    bad_diagonal = random_tensor_negative_diagonal(3, 3, 1)
    report = run_prescreen(bad_diagonal)
    assert report.violated_condition == DIAGONAL

    # clean diagonal, but a pair face dips negative
    A = eta_shift(1.0, ones_tensor(3, 3))
    report = run_prescreen(A, grid_depth=1)
    assert not report.passed
    assert report.violated_condition == SUBTENSOR_SAMPLE
    assert verify_witness(A, report.witness)

    assert run_prescreen(ones_tensor(3, 3)).passed
    assert run_prescreen(motzkin_tensor()).passed
    # mild enough that the sampling stages pass; only the standalone
    # zero-point check refutes it (see test_report_json)
    assert run_prescreen(SLOPED).passed


def test_prescreen_failures_imply_not_copositive():
    cfg = DetectorConfig(max_iterations=2000)
    rng = np.random.default_rng(29)
    checked = 0
    for seed in range(40):
        A = SymmetricTensor(
            3,
            3,
            {
                key: rng.uniform(-0.4, 1.0)
                for key in ones_tensor(3, 3).entries
            },
        )
        report = run_prescreen(A)
        if report.passed:
            continue
        checked += 1
        assert verify_witness(A, report.witness)
        verdict = detect(A, cfg)
        assert verdict.kind is VerdictKind.NOT_COPOSITIVE
    assert checked >= 5


def test_diagonal_failure_equivalent_to_first_iteration_refutation():
    for seed in range(10):
        for make in (random_tensor, random_tensor_negative_diagonal):
            A = make(3, 3, seed)
            first_iteration_refuted = False
            verdict = detect(A)
            if verdict.kind is VerdictKind.NOT_COPOSITIVE and verdict.iterations == 1:
                first_iteration_refuted = True
                # iteration-one witnesses are unit vectors
                assert sorted(verdict.witness) == [0.0, 0.0, 1.0]
            assert first_iteration_refuted == (not diagonal_check(A).passed)


def test_run_prescreen_matches_the_principal_subtensor_oracle():
    # Sampling on the full tensor at the embedded point must report exactly
    # what sampling a freshly built principal subtensor reported, and
    # skipping singletons must change nothing.
    rng = np.random.default_rng(41)
    kinds = Counter()
    for trial in range(1200):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        A = random_symmetric(rng, m, n, lo=float(rng.choice([-0.05, -0.2, -0.6])))
        if trial % 3:  # a nonnegative diagonal, so the pair samples decide
            A = SymmetricTensor(m, n, {k: abs(v) if len(set(k)) == 1 else v
                                       for k, v in A.entries.items()})
        depth = int(rng.integers(1, 4))
        expected = subtensor_prescreen(A, depth).to_json_dict()
        assert run_prescreen(A, grid_depth=depth).to_json_dict() == expected, (trial, m, n)
        kinds[expected["violated_condition"]] += 1
    assert kinds[SUBTENSOR_SAMPLE] >= 100 and kinds[DIAGONAL] >= 100 and kinds[None] >= 100


def test_report_json():
    report = run_prescreen(random_tensor_negative_diagonal(3, 3, 2))
    obj = report.to_json_dict()
    assert obj["passed"] is False
    assert obj["violated_condition"] == DIAGONAL
    assert obj["witness"] == [1.0, 0.0, 0.0]
    # the zero-point check's witness is a (point, direction) pair
    obj = zero_point_gradient_check(SLOPED, np.array([1.0, 0.0])).to_json_dict()
    assert obj["passed"] is False
    assert obj["violated_condition"] == ZERO_POINT_GRADIENT
    assert obj["witness"] == [[1.0, 0.0], [0.0, 1.0]]
