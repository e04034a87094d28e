import math

import numpy as np
import pytest

from coposim import (
    CellKind,
    DetectorConfig,
    SymmetricTensor,
    VerdictKind,
    certify_cell,
    check_boundary_zero_stall,
    detect,
    detect_with_relaxation,
    eta_shift,
    motzkin_tensor,
    ones_tensor,
    random_tensor,
    spectral_radius,
    standard_simplex,
    verify_witness,
)

from _brute import random_simplex_point, random_symmetric


def test_config_validation():
    DetectorConfig()
    with pytest.raises(ValueError):
        DetectorConfig(max_iterations=0)
    with pytest.raises(ValueError):
        DetectorConfig(tolerance=-1e-9)
    with pytest.raises(ValueError):
        DetectorConfig(sigma=-0.1)
    with pytest.raises(ValueError):
        DetectorConfig(min_diameter=-1.0)


def test_certify_nonnegative_tensor_on_standard_simplex():
    rng = np.random.default_rng(3)
    A = random_symmetric(rng, 3, 3, lo=0.0, hi=1.0)
    status = certify_cell(A, standard_simplex(3))
    assert status.kind is CellKind.CERTIFIED
    assert len(status.vertex_values) == 3


def test_certify_negative_vertex():
    A = eta_shift(1.0, ones_tensor(3, 3))
    cell = standard_simplex(3).bisect_longest_edge()[1]  # {e1, midpoint, e3}
    status = certify_cell(A, cell)
    assert status.kind is CellKind.NEGATIVE_VERTEX
    assert status.vertex_index == 1
    assert status.vertex_value == pytest.approx(-0.75)


def test_certify_indeterminate():
    A = eta_shift(19.0, ones_tensor(3, 3))
    status = certify_cell(A, standard_simplex(3))
    assert status.kind is CellKind.INDETERMINATE
    assert status.vertex_values == pytest.approx((18.0, 18.0, 18.0))
    # a large enough cellwise slack flips the same cell to certified
    relaxed = certify_cell(A, standard_simplex(3), sigma=1.5)
    assert relaxed.kind is CellKind.CERTIFIED


def test_certify_dimension_mismatch():
    with pytest.raises(ValueError):
        certify_cell(ones_tensor(3, 3), standard_simplex(4))


def test_detect_eta_one_trace():
    # provable two-iteration refutation with the midpoint witness
    verdict = detect(eta_shift(1.0, ones_tensor(3, 3)))
    assert verdict.kind is VerdictKind.NOT_COPOSITIVE
    assert verdict.iterations == 2
    assert verdict.max_depth == 1
    assert np.array_equal(verdict.witness, [0.5, 0.5, 0.0])
    assert verify_witness(eta_shift(1.0, ones_tensor(3, 3)), verdict.witness)


def test_detect_reference_family_verdicts():
    cases = [
        (3, 3, 8.99, VerdictKind.NOT_COPOSITIVE, 43),
        (3, 3, 9.01, VerdictKind.COPOSITIVE, 59),
        (3, 3, 19.0, VerdictKind.COPOSITIVE, 11),
        (4, 4, 10.0, VerdictKind.NOT_COPOSITIVE, 14),
        (4, 4, 64.0, VerdictKind.COPOSITIVE, 63),
        (4, 4, 74.0, VerdictKind.COPOSITIVE, 63),
    ]
    for m, n, eta, kind, ref_iterations in cases:
        verdict = detect(eta_shift(eta, ones_tensor(m, n)))
        assert verdict.kind is kind, (m, n, eta)
        assert ref_iterations / 2 <= verdict.iterations <= 2 * ref_iterations
        if kind is VerdictKind.NOT_COPOSITIVE:
            assert verify_witness(eta_shift(eta, ones_tensor(m, n)), verdict.witness)


def test_detect_boundary_case_is_undecided():
    A = eta_shift(9.0, ones_tensor(3, 3))
    verdict = detect(A)
    assert verdict.kind is VerdictKind.UNDECIDED
    assert verdict.iterations == 100
    diagnostic = check_boundary_zero_stall(A, verdict)
    assert diagnostic.applicable
    assert diagnostic.stall_suspected
    assert abs(diagnostic.min_vertex_value) < 1e-6


def test_stall_diagnostic_not_applicable_when_decided():
    A = eta_shift(19.0, ones_tensor(3, 3))
    verdict = detect(A)
    assert verdict.kind is VerdictKind.COPOSITIVE
    assert not check_boundary_zero_stall(A, verdict).applicable
    negative = -1.0 * ones_tensor(3, 3)
    refuted = detect(negative)
    assert refuted.kind is VerdictKind.NOT_COPOSITIVE
    assert refuted.iterations == 1
    assert not check_boundary_zero_stall(negative, refuted).applicable


def test_stall_diagnostic_ignores_budget_starvation_far_from_zero():
    A = eta_shift(19.0, ones_tensor(3, 3))
    verdict = detect(A, DetectorConfig(max_iterations=2))
    assert verdict.kind is VerdictKind.UNDECIDED
    diagnostic = check_boundary_zero_stall(A, verdict)
    assert diagnostic.applicable
    assert not diagnostic.stall_suspected


def test_min_diameter_cutoff():
    A = eta_shift(9.0, ones_tensor(3, 3))
    verdict = detect(A, DetectorConfig(min_diameter=1.0))
    assert verdict.kind is VerdictKind.UNDECIDED
    # root (sqrt 2) and first child (still sqrt 2) pass; the grandchild
    # popped at iteration three is the first below the cutoff
    assert verdict.iterations == 3
    huge = detect(A, DetectorConfig(min_diameter=2.0))
    assert huge.kind is VerdictKind.UNDECIDED
    assert huge.iterations == 1
    assert math.isinf(huge.min_vertex_value)
    assert huge.to_json_dict()["min_vertex_value"] is None


def test_detect_dimension_check():
    with pytest.raises(ValueError):
        detect(ones_tensor(3, 1))


def test_determinism():
    A = eta_shift(8.99, ones_tensor(3, 3))
    first = detect(A)
    second = detect(A)
    assert first.kind is second.kind
    assert first.iterations == second.iterations
    assert first.max_depth == second.max_depth
    assert np.array_equal(first.witness, second.witness)


def test_positive_soundness_sampling():
    rng = np.random.default_rng(11)
    for A in (eta_shift(19.0, ones_tensor(3, 3)), eta_shift(9.01, ones_tensor(3, 3))):
        verdict = detect(A)
        assert verdict.kind is VerdictKind.COPOSITIVE
        bound = -verdict.tolerance * (1.0 + A.norm())
        for _ in range(500):
            assert A.form(random_simplex_point(rng, A.dim)) >= bound


def test_certificate_retention_and_recheck():
    A = eta_shift(19.0, ones_tensor(3, 3))
    cfg = DetectorConfig(keep_certificates=True)
    verdict = detect(A, cfg)
    assert verdict.kind is VerdictKind.COPOSITIVE
    cells = verdict.certified_cells
    assert cells and len(cells) <= verdict.iterations
    # every retained cell re-certifies from its vertex matrix alone
    for cell in cells:
        coefficients = A.congruence(cell.vertex_matrix)
        assert coefficients.min_coefficient() >= -cfg.sigma - cfg.tolerance
    # and together the certified cells cover the simplex
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = random_simplex_point(rng, 3)
        assert any(cell.contains(x, tol=1e-9) for cell in cells)
    # retention off by default
    assert detect(A).certified_cells is None


def test_relaxation_certifies_motzkin():
    M = motzkin_tensor()
    plain = detect(M)
    assert plain.kind is VerdictKind.UNDECIDED
    verdict = detect_with_relaxation(M, 0.01, DetectorConfig(max_iterations=1000))
    assert verdict.kind is VerdictKind.COPOSITIVE
    assert verdict.sigma_certified
    assert verdict.sigma == 0.01
    assert verdict.to_json_dict()["verdict"] == "sigma_certified"


def test_relaxation_negative_passthrough():
    A = -1.0 * ones_tensor(3, 3)
    verdict = detect_with_relaxation(A, 0.5)
    assert verdict.kind is VerdictKind.NOT_COPOSITIVE
    assert not verdict.sigma_certified
    assert verify_witness(A, verdict.witness)


def test_relaxation_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        detect_with_relaxation(ones_tensor(3, 3), 0.0)
    with pytest.raises(ValueError):
        detect_with_relaxation(ones_tensor(3, 3), -0.1)


def test_sigma_soundness_sampling():
    rng = np.random.default_rng(17)
    M = motzkin_tensor()
    sigma = 0.01
    verdict = detect_with_relaxation(M, sigma, DetectorConfig(max_iterations=1000))
    assert verdict.sigma_certified
    for _ in range(1000):
        x = random_simplex_point(rng, 3)
        assert M.form(x) >= -sigma - verdict.tolerance


def test_witnesses_verified_on_random_refutable_instances():
    from coposim import random_tensor_negative_diagonal

    cfg = DetectorConfig(max_iterations=1000)
    for seed in range(20):
        A = random_tensor_negative_diagonal(3, 3, seed)
        verdict = detect(A, cfg)
        assert verdict.kind is VerdictKind.NOT_COPOSITIVE
        assert verify_witness(A, verdict.witness)


def test_verify_witness_examples():
    E = ones_tensor(3, 3)
    assert verify_witness(-1.0 * E, [1.0, 0.0, 0.0])
    assert not verify_witness(E, [0.2, 0.3, 0.5])
    assert verify_witness(eta_shift(1.0, E), [0.5, 0.5, 0.0])
    # simplex membership is part of the check
    assert not verify_witness(-1.0 * E, [0.5, 0.5, 0.5])
    assert not verify_witness(-1.0 * E, [1.5, -0.5, 0.0])
    with pytest.raises(ValueError):
        verify_witness(E, [1.0, 0.0])


def test_verdict_json_schema():
    A = eta_shift(1.0, ones_tensor(3, 3))
    record = detect(A).to_json_dict()
    assert set(record) == {
        "verdict",
        "sigma",
        "tolerance",
        "iterations",
        "max_depth",
        "witness",
        "min_vertex_value",
    }
    assert record["verdict"] == "not_copositive"
    assert record["witness"] == [0.5, 0.5, 0.0]
    certified = detect(eta_shift(19.0, ones_tensor(3, 3))).to_json_dict()
    assert certified["verdict"] == "copositive"
    assert certified["witness"] is None
    undecided = detect(eta_shift(9.0, ones_tensor(3, 3))).to_json_dict()
    assert undecided["verdict"] == "undecided"


def test_random_copositive_runs_certify_immediately():
    for seed in range(5):
        verdict = detect(random_tensor(4, 3, seed))
        assert verdict.kind is VerdictKind.COPOSITIVE
        assert verdict.iterations == 1
        assert verdict.max_depth == 0


def test_search_carries_coefficients_and_vertex_values(monkeypatch):
    # Every bisection costs one form evaluation (the midpoint, shared by
    # both children) and no fresh congruence; the root costs n.
    calls = []
    form = SymmetricTensor.form

    def counted(self, x):
        calls.append(1)
        return form(self, x)

    def forbidden(self, V):
        raise AssertionError("detect must not recompute a congruence")

    monkeypatch.setattr(SymmetricTensor, "form", counted)
    monkeypatch.setattr(SymmetricTensor, "congruence", forbidden)
    verdict = detect(eta_shift(9.01, ones_tensor(3, 3)))
    assert verdict.kind is VerdictKind.COPOSITIVE and verdict.iterations == 59
    bisections = (verdict.iterations - 1) // 2
    assert len(calls) == 3 + bisections


def test_deep_random_search_runs_to_completion():
    B = random_tensor(6, 5, 0)
    verdict = detect(eta_shift(spectral_radius(B).rho + 1.0, B), DetectorConfig(max_iterations=5000))
    assert verdict.kind is VerdictKind.COPOSITIVE
    assert verdict.iterations == 1847
    assert verdict.max_depth == 33
