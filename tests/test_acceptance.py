"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import math

import numpy as np

from coposim import (
    DetectorConfig,
    VerdictKind,
    choi_lam_tensor,
    detect,
    eta_shift,
    identity_tensor,
    motzkin_tensor,
    ones_tensor,
    random_tensor,
    random_tensor_negative_diagonal,
    robinson_tensor,
    spectral_radius,
    verify_witness,
)

from _brute import (
    barycentric_coordinates,
    bisect,
    brute_form,
    brute_gradient,
    brute_inner,
    brute_mixed,
    close,
    congruence,
    contains,
    dense_of,
    diameter,
    random_simplex_point,
    random_symmetric,
)

TOL = 1e-10


def _report(criterion: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {criterion}] {status} - {label}")
    assert not failures, f"criterion {criterion}: {failures}"


def test_criterion_1_reference_family_verdicts():
    """Verdicts of the eta-ones family match the reference table exactly;
    iteration counts stay within a factor of two."""
    reference = [
        (3, 3, 1.0, VerdictKind.NOT_COPOSITIVE, 2),
        (3, 3, 8.99, VerdictKind.NOT_COPOSITIVE, 43),
        (3, 3, 9.01, VerdictKind.COPOSITIVE, 59),
        (3, 3, 19.0, VerdictKind.COPOSITIVE, 11),
        (4, 4, 10.0, VerdictKind.NOT_COPOSITIVE, 14),
        (4, 4, 64.0, VerdictKind.COPOSITIVE, 63),
        (4, 4, 74.0, VerdictKind.COPOSITIVE, 63),
    ]
    failures = []
    for m, n, eta, kind, ref_it in reference:
        verdict = detect(eta_shift(eta, ones_tensor(m, n)))
        if verdict.kind is not kind:
            failures.append((m, n, eta, "verdict", verdict.kind))
        if not ref_it / 2 <= verdict.iterations <= 2 * ref_it:
            failures.append((m, n, eta, "iterations", verdict.iterations, ref_it))
    boundary = detect(eta_shift(9.0, ones_tensor(3, 3)))
    if boundary.kind is not VerdictKind.UNDECIDED or boundary.iterations != 100:
        failures.append((3, 3, 9.0, "expected undecided at budget 100", boundary.kind))
    # the two-iteration trace is forced by the deterministic conventions
    exact = detect(eta_shift(1.0, ones_tensor(3, 3)))
    if exact.iterations != 2:
        failures.append((3, 3, 1.0, "iterations must equal 2", exact.iterations))
    _report(1, "eta-ones family verdict reproduction", failures)


def test_criterion_2_sigma_relaxation_reproduction():
    """The three named tensors stall undecided without relaxation and
    certify with iteration counts within a factor of two of the reference."""
    reference = {
        "motzkin": (motzkin_tensor(), {0.01: 11, 0.001: 27, 0.0001: 71}),
        "robinson": (robinson_tensor(), {0.01: 11, 0.001: 27, 0.0001: 83}),
        "choi-lam": (choi_lam_tensor(), {0.01: 5, 0.001: 27, 0.0001: 41}),
    }
    failures = []
    for name, (tensor, by_sigma) in reference.items():
        plain = detect(tensor)
        if plain.kind is not VerdictKind.UNDECIDED or plain.iterations != 100:
            failures.append((name, "plain run must be undecided at 100", plain.kind))
        for sigma, ref_it in by_sigma.items():
            verdict = detect(tensor, DetectorConfig(max_iterations=1000, sigma=sigma))
            if not verdict.sigma_certified:
                failures.append((name, sigma, "not certified", verdict.kind))
            elif not ref_it / 2 <= verdict.iterations <= 2 * ref_it:
                failures.append((name, sigma, "iterations", verdict.iterations, ref_it))
    _report(2, "sigma-relaxation certification of the named tensors", failures)


def test_criterion_3_spectral_threshold_pattern():
    """Ten seeded random nonnegative tensors per shape: below the spectral
    radius every shift refutes, above it every shift certifies."""
    failures = []
    cfg = DetectorConfig(max_iterations=1000)
    for m, n in ((3, 3), (3, 4), (4, 3), (4, 4), (6, 3)):
        tensors = [random_tensor(m, n, seed) for seed in range(10)]
        radii = [spectral_radius(B).rho for B in tensors]
        for offset, expected in ((-1.0, VerdictKind.NOT_COPOSITIVE),
                                 (1.0, VerdictKind.COPOSITIVE),
                                 (10.0, VerdictKind.COPOSITIVE)):
            verdicts = [
                detect(eta_shift(rho + offset, B), cfg)
                for B, rho in zip(tensors, radii)
            ]
            hits = sum(1 for v in verdicts if v.kind is expected)
            if hits != 10:
                failures.append((m, n, offset, f"{hits}/10"))
            for i, v in enumerate(verdicts):
                if v.kind is VerdictKind.NOT_COPOSITIVE:
                    shifted = eta_shift(radii[i] + offset, tensors[i])
                    if not verify_witness(shifted, v.witness):
                        failures.append((m, n, offset, "witness failed verification"))
    _report(3, "spectral threshold pattern 10/10 per row", failures)


def test_criterion_4_random_instances_resolve_in_one_iteration():
    """Random nonnegative tensors certify at iteration one; flipping the
    leading diagonal entry refutes at iteration one."""
    failures = []
    for m, n in ((3, 3), (3, 4), (4, 3), (4, 4), (6, 3)):
        for seed in range(10):
            yes = detect(random_tensor(m, n, seed))
            if yes.kind is not VerdictKind.COPOSITIVE or yes.iterations != 1:
                failures.append((m, n, seed, "A", yes.kind, yes.iterations))
            no = detect(random_tensor_negative_diagonal(m, n, seed))
            if no.kind is not VerdictKind.NOT_COPOSITIVE or no.iterations != 1:
                failures.append((m, n, seed, "B", no.kind, no.iterations))
    _report(4, "random instances resolve at iteration one", failures)


def test_criterion_5_spectral_sanity():
    """Known spectral radii to 1e-6."""
    failures = []
    checks = [
        (ones_tensor(3, 3), 9.0),
        (ones_tensor(4, 4), 64.0),
        (identity_tensor(3, 3), 1.0),
        (identity_tensor(4, 4), 1.0),
        (identity_tensor(6, 3), 1.0),
    ]
    for B, expected in checks:
        rho = spectral_radius(B).rho
        if abs(rho - expected) > 1e-6:
            failures.append((B.order, B.dim, rho, expected))
    _report(5, "spectral radius sanity values", failures)


def test_criterion_6_property_suites():
    """Randomized property suites at tolerance 1e-10, at least 100 cases
    apiece."""
    failures = []
    rng = np.random.default_rng(2024)

    # binomial expansion of the form under a sum of arguments
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
        if not close(A.form(x + y), expansion, TOL):
            failures.append(("binomial", m, n))
            break

    # congruence transform evaluation identity
    for _ in range(100):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        A = random_symmetric(rng, m, n)
        V = rng.uniform(-1, 1, size=(n, n))
        lam = rng.uniform(-1, 1, size=n)
        if not close(congruence(dense_of(A), V).form(lam), A.form(V @ lam), TOL):
            failures.append(("congruence", m, n))
            break

    # bisection: coverage, disjoint interiors, non-increasing diameters
    point_checks = 0
    for trial in range(10):
        n = 2 + trial % 3
        leaves = [np.eye(n)]
        for _ in range(25):
            cell = leaves.pop(int(rng.integers(0, len(leaves))))
            children = bisect(cell)
            if any(diameter(child) > diameter(cell) + 1e-15 for child in children):
                failures.append(("bisection diameter", n))
            leaves.extend(children)
        for _ in range(15):
            x = random_simplex_point(rng, n)
            point_checks += 1
            holders = sum(1 for cell in leaves if contains(cell, x, tol=1e-12))
            strict = sum(
                1
                for cell in leaves
                if np.min(barycentric_coordinates(cell, x)) > 1e-9
            )
            if holders < 1:
                failures.append(("coverage", n))
            if strict > 1:
                failures.append(("disjointness", n))
    assert point_checks >= 100

    # every refuting run yields an independently verified witness
    witness_runs = 0
    cfg = DetectorConfig(max_iterations=1000)
    for seed in range(50):
        A = random_tensor_negative_diagonal(3, 3, seed)
        verdict = detect(A, cfg)
        if verdict.kind is not VerdictKind.NOT_COPOSITIVE or not verify_witness(A, verdict.witness):
            failures.append(("witness", seed))
        witness_runs += 1
    for seed in range(50):
        B = random_tensor(3, 3, seed)
        A = eta_shift(spectral_radius(B).rho - 0.5, B)
        verdict = detect(A, cfg)
        if verdict.kind is not VerdictKind.NOT_COPOSITIVE or not verify_witness(A, verdict.witness):
            failures.append(("witness below threshold", seed))
        witness_runs += 1
    assert witness_runs >= 100

    # certified relaxations bound the form from below on random samples
    for tensor, sigma in ((motzkin_tensor(), 0.01), (robinson_tensor(), 0.01),
                          (choi_lam_tensor(), 0.01)):
        verdict = detect(tensor, DetectorConfig(max_iterations=1000, sigma=sigma))
        if not verdict.sigma_certified:
            failures.append(("sigma certify", sigma))
            continue
        floor = -sigma - verdict.tolerance
        samples = rng.dirichlet(np.ones(3), size=10_000)
        low = min(tensor.form(x) for x in samples)
        if low < floor:
            failures.append(("sigma soundness", sigma, low))

    # all evaluation paths agree with dense brute force
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        A = random_symmetric(rng, m, n)
        dense = dense_of(A)
        x = rng.uniform(-1, 1, size=n)
        checks = [
            close(A.form(x), brute_form(dense, x), TOL),
            np.allclose(A.gradient_form(x), brute_gradient(dense, x), atol=TOL),
            close(A.inner(A), brute_inner(dense, dense), TOL),
        ]
        if not all(checks):
            failures.append(("brute force", m, n, checks))
            break

    _report(6, "randomized property suites", failures)
