import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from coposim import (
    DetectorConfig,
    SymmetricTensor,
    Verdict,
    VerdictKind,
    choi_lam_tensor,
    detect,
    eta_shift,
    motzkin_tensor,
    ones_tensor,
    random_tensor,
    random_tensor_negative_diagonal,
    robinson_tensor,
    spectral_radius,
    verify_witness,
)
from coposim import detector
from coposim.cli import TABLE1_ROWS, main
from coposim.tensor import corner_indices

from _brute import (
    brute_inner,
    canonical_keys,
    congruence,
    contains,
    dense_of,
    eager_detect,
    kaplan,
    m_certificate,
    random_simplex_point,
    random_symmetric,
)


def test_config_validation():
    DetectorConfig()
    DetectorConfig(max_iterations=5.0)
    for bad in (0, 2.5, True, "10"):
        with pytest.raises(ValueError):
            DetectorConfig(max_iterations=bad)
    # A bool once passed as 1.0, so tolerance=True, sigma=True ran as a
    # silent sigma = 1, and a string raised TypeError from the comparison.
    for name in ("tolerance", "sigma", "min_diameter"):
        for bad in (-1e-9, math.nan, math.inf, True, np.True_, "1e-3", None, 1j, 10**400):
            with pytest.raises(ValueError, match=name):
                DetectorConfig(**{name: bad})
    with pytest.raises(ValueError, match="tolerance"):
        DetectorConfig(tolerance=True, sigma=True)
    DetectorConfig(tolerance=np.float32(1e-9), sigma=np.int64(0), min_diameter=1)
    DetectorConfig(keep_certificates=True)
    for bad in ("no", 0, 1, None):
        with pytest.raises(ValueError, match="keep_certificates"):
            DetectorConfig(keep_certificates=bad)


def test_nonnegative_tensor_is_certified_at_the_root():
    rng = np.random.default_rng(3)
    A = random_symmetric(rng, 3, 3, lo=0.0, hi=1.0)
    verdict = detect(A, DetectorConfig(keep_certificates=True))
    assert verdict.kind is VerdictKind.COPOSITIVE and verdict.iterations == 1
    assert np.array_equal(verdict.certified_cells[0], np.eye(3))


def test_negative_midpoint_vertex_is_the_witness():
    # The root's vertex values are all 0 and its coefficients mixed, so it
    # is bisected; the child {e1, midpoint, e3} is popped next and its
    # second vertex, at -0.75, is the witness.
    A = eta_shift(1.0, ones_tensor(3, 3))
    verdict = detect(A)
    assert verdict.kind is VerdictKind.NOT_COPOSITIVE and verdict.iterations == 2
    assert np.array_equal(verdict.witness, [0.5, 0.5, 0.0])
    assert verdict.min_vertex_value == pytest.approx(-0.75)


def test_one_cell_budget_is_undecided_until_sigma_certifies_it():
    A = eta_shift(19.0, ones_tensor(3, 3))
    verdict = detect(A, DetectorConfig(max_iterations=1))
    assert verdict.kind is VerdictKind.UNDECIDED
    assert verdict.min_vertex_value == pytest.approx(18.0)
    # a large enough cellwise slack flips the same cell to certified
    relaxed = detect(A, DetectorConfig(max_iterations=1, sigma=1.5))
    assert relaxed.kind is VerdictKind.COPOSITIVE and relaxed.iterations == 1
    assert relaxed.sigma_certified


def test_detect_eta_one_trace():
    # provable two-iteration refutation with the midpoint witness
    verdict = detect(eta_shift(1.0, ones_tensor(3, 3)))
    assert verdict.kind is VerdictKind.NOT_COPOSITIVE
    assert verdict.iterations == 2
    assert verdict.max_depth == 1
    assert np.array_equal(verdict.witness, [0.5, 0.5, 0.0])
    assert verify_witness(eta_shift(1.0, ones_tensor(3, 3)), verdict.witness)


def test_root_witness_is_the_first_negative_vertex_in_list_order():
    # Two root vertices are negative; the smaller value sits at e2, yet the
    # witness is e1, the first in list order, and the minimum is still e2's.
    A = SymmetricTensor(3, 3, {(1, 1, 1): -1, (2, 2, 2): -2, (3, 3, 3): 1})
    verdict = detect(A)
    assert verdict.kind is VerdictKind.NOT_COPOSITIVE and verdict.iterations == 1
    assert np.array_equal(verdict.witness, [1.0, 0.0, 0.0])
    assert verdict.min_vertex_value == -2.0


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
    verdict = detect(eta_shift(9.0, ones_tensor(3, 3)))
    assert verdict.kind is VerdictKind.UNDECIDED
    assert verdict.iterations == 100
    # the stall signature: the smallest vertex value hugs zero
    assert abs(verdict.min_vertex_value) < 1e-6


def test_decided_runs_report_their_smallest_vertex_value():
    certified = detect(eta_shift(19.0, ones_tensor(3, 3)))
    assert certified.kind is VerdictKind.COPOSITIVE
    # far from zero: the form of 19 I - E is at least 19/9 - 1 on the simplex
    assert certified.min_vertex_value == 63 / 32
    refuted = detect(-1.0 * ones_tensor(3, 3))
    assert refuted.kind is VerdictKind.NOT_COPOSITIVE
    assert refuted.iterations == 1
    assert refuted.min_vertex_value == -1.0


def test_undecided_run_reports_its_smallest_vertex_value():
    verdict = detect(eta_shift(19.0, ones_tensor(3, 3)), DetectorConfig(max_iterations=2))
    assert verdict.kind is VerdictKind.UNDECIDED
    # the first midpoint, at 19/4 - 1, is the smallest vertex value seen
    assert verdict.min_vertex_value == 3.75


def test_min_diameter_cutoff():
    # The cut ends a run only at a cell about to be bisected, after its
    # vertex has been tested: the fifth cell popped is the first such cell
    # below the cutoff.
    A = eta_shift(9.0, ones_tensor(3, 3))
    verdict = detect(A, DetectorConfig(min_diameter=1.0))
    assert verdict.kind is VerdictKind.UNDECIDED
    assert verdict.iterations == 5
    assert verdict.min_vertex_value == 0.40625
    # the root (diameter sqrt 2) is tested, then cut instead of bisected
    huge = detect(A, DetectorConfig(min_diameter=2.0))
    assert huge.kind is VerdictKind.UNDECIDED
    assert huge.iterations == 1
    assert huge.min_vertex_value == 8.0


def test_min_diameter_spares_cells_that_certify():
    # Every cell of this run below the cutoff certifies, so the cut never
    # fires and the run decides as it does without one.
    A = eta_shift(19.0, ones_tensor(3, 3))
    verdict = detect(A, DetectorConfig(min_diameter=1.0))
    assert verdict.kind is VerdictKind.COPOSITIVE
    assert (verdict.iterations, verdict.max_depth) == (11, 3)
    plain = detect(A)
    assert (plain.iterations, plain.max_depth) == (11, 3)


def test_dimension_one_is_decided_at_the_root():
    # One vertex, one coefficient: the root's vertex value refutes or
    # certifies it, with or without a cellwise slack.
    for a, kind in ((2.0, VerdictKind.COPOSITIVE), (0.0, VerdictKind.COPOSITIVE),
                    (-0.5, VerdictKind.NOT_COPOSITIVE)):
        A = SymmetricTensor(3, 1, {(1, 1, 1): a})
        for sigma in (0.0, 1.0):
            verdict = detect(A, DetectorConfig(sigma=sigma, keep_certificates=True))
            assert verdict.kind is kind and verdict.iterations == 1, (a, sigma)
            assert verdict.max_depth == 0 and verdict.min_vertex_value == a
            if kind is VerdictKind.NOT_COPOSITIVE:
                assert verdict.witness.tolist() == [1.0]
                assert verify_witness(A, verdict.witness)
            else:
                assert [cell.tolist() for cell in verdict.certified_cells] == [[[1.0]]]
    for gen, code in (("ones", 0), ("example3-b", 1)):
        for extra in ([], ["--no-prescreen"]):
            assert main(["detect", "--gen", gen, "--m", "3", "--n", "1", *extra]) == code


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
        dense = dense_of(A)
        bound = -verdict.tolerance * (1.0 + math.sqrt(brute_inner(dense, dense)))
        for _ in range(500):
            assert A.form(random_simplex_point(rng, A.dim)) >= bound


def test_certificate_retention_and_recheck():
    A = eta_shift(19.0, ones_tensor(3, 3))
    cfg = DetectorConfig(keep_certificates=True)
    verdict = detect(A, cfg)
    assert verdict.kind is VerdictKind.COPOSITIVE
    cells = verdict.certified_cells
    assert cells and len(cells) <= verdict.iterations
    # every retained cell re-certifies from its vertices alone
    dense = dense_of(A)
    for cell in cells:
        coefficients = congruence(dense, cell.T).coefficient_vector()
        assert coefficients.min() >= -cfg.sigma - cfg.tolerance
    # and together the certified cells cover the simplex
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = random_simplex_point(rng, 3)
        assert any(contains(cell, x, tol=1e-9) for cell in cells)
    # retention off by default
    assert detect(A).certified_cells is None


def test_sigma_certifies_motzkin_where_the_plain_search_stalls():
    M = motzkin_tensor()
    plain = detect(M)
    assert plain.kind is VerdictKind.UNDECIDED
    assert not plain.sigma_certified
    verdict = detect(M, DetectorConfig(max_iterations=1000, sigma=0.01))
    assert verdict.kind is VerdictKind.COPOSITIVE
    assert verdict.sigma_certified
    assert verdict.sigma == 0.01
    assert verdict.to_json_dict()["verdict"] == "sigma_certified"


def test_sigma_labels_match_the_cli_record(capsys):
    # A copositive verdict reached with sigma > 0 proves only f >= -sigma,
    # so its label says so, in process and on the command line alike.
    verdict = detect(motzkin_tensor(), DetectorConfig(sigma=1e-3))
    assert verdict.to_json_dict()["verdict"] == "sigma_certified"
    assert main(["detect", "--gen", "motzkin", "--sigma", "1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == verdict.to_json_dict()


def test_sigma_relaxes_the_certificate_not_the_refutation():
    # A vertex at f = -9.96e-4 refutes A even though it lies above -sigma;
    # A + sigma * E, whose vertex there sits at +9.0e-3, certified in 51
    # cells instead.
    B = random_tensor(3, 3, 0)
    A = eta_shift(spectral_radius(B).rho - 0.01, B)
    verdict = detect(A, DetectorConfig(max_iterations=400, sigma=0.01))
    assert verdict.kind is VerdictKind.NOT_COPOSITIVE
    assert verdict.iterations == 30
    assert verify_witness(A, verdict.witness)
    assert A.form(verdict.witness) == pytest.approx(-9.96e-4, rel=1e-3)
    shifted = detect(A + 0.01 * ones_tensor(3, 3), DetectorConfig(max_iterations=400))
    assert shifted.kind is VerdictKind.COPOSITIVE and shifted.iterations == 51


def test_sigma_does_not_relax_a_refutation():
    A = -1.0 * ones_tensor(3, 3)
    verdict = detect(A, DetectorConfig(sigma=0.5))
    assert verdict.kind is VerdictKind.NOT_COPOSITIVE
    assert not verdict.sigma_certified
    assert verify_witness(A, verdict.witness)


def test_sigma_soundness_sampling():
    rng = np.random.default_rng(17)
    M = motzkin_tensor()
    sigma = 0.01
    verdict = detect(M, DetectorConfig(max_iterations=1000, sigma=sigma))
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
    # tau must be a finite nonnegative real: tau=True used to accept this
    # point, whose coordinates sum to 1.9.
    for tau in (True, math.nan, -1.0, "0.1"):
        with pytest.raises(ValueError, match="tau"):
            verify_witness(-2.0 * ones_tensor(2, 2), [0.95, 0.95], tau=tau)


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


def _count_form_calls(monkeypatch, A) -> tuple[Verdict, int]:
    calls = []
    form = SymmetricTensor.form

    def counted(self, x):
        calls.append(1)
        return form(self, x)

    with monkeypatch.context() as patch:
        patch.setattr(SymmetricTensor, "form", counted)
        verdict = detect(A)
    return verdict, len(calls)


def test_search_carries_coefficients_and_vertex_values(monkeypatch):
    # The root's vertex values are its corner coefficients and cost no
    # form evaluation.  A bisection reads the midpoint's value off the
    # split and evaluates the form only when that value lies within the
    # rounding bound of the running minimum: here 15 of the 29 bisections
    # fall back.  Forced exact, every bisection evaluates.
    A = eta_shift(9.01, ones_tensor(3, 3))
    verdict, calls = _count_form_calls(monkeypatch, A)
    assert verdict.kind is VerdictKind.COPOSITIVE and verdict.iterations == 59
    bisections = (verdict.iterations - 1) // 2
    assert bisections == 29 and calls == 15
    monkeypatch.setattr(detector, "_SAFETY", math.inf)
    exact, calls = _count_form_calls(monkeypatch, A)
    assert exact.to_json_dict() == verdict.to_json_dict()
    assert calls == bisections


def _midpoint_values(monkeypatch, A, cfg) -> tuple[Verdict, list[tuple[float, float, np.ndarray]]]:
    """Run ``A`` with every midpoint evaluated exactly, and return, per
    bisection, the corner coefficient the filter reads, the form's value
    at the midpoint and the midpoint."""
    corners, values = [], []
    split, form = detector.split_coefficients, SymmetricTensor.form

    def spy_split(coefficients, m, n, p, q):
        children = split(coefficients, m, n, p, q)
        corners.append(children.item(corner_indices(m, n)[p]))
        return children

    def spy_form(self, x):
        value = form(self, x)
        values.append((value, np.array(x)))
        return value

    with monkeypatch.context() as patch:
        patch.setattr(detector, "_SAFETY", math.inf)
        patch.setattr(detector, "split_coefficients", spy_split)
        patch.setattr(SymmetricTensor, "form", spy_form)
        verdict = detect(A, cfg)
    assert len(corners) == len(values)
    return verdict, [(c, v, x) for c, (v, x) in zip(corners, values)]


def _dyadic_depth(x: np.ndarray) -> int:
    """The smallest k with every coordinate of ``x`` a multiple of 2**-k: a
    midpoint made at depth d + 1 has k <= d + 1."""
    return next(k for k in range(64) if all((v * 2.0**k).is_integer() for v in x))


def test_corner_coefficient_is_within_the_filter_bound_of_the_form(monkeypatch):
    # The filter's bound before its safety factor, (depth + 3)(m + 2) u M,
    # holds on every bisection; each cell is given the shallowest depth its
    # midpoint's dyadic coordinates allow, which only tightens the bound.
    for (m, n), budget in (((6, 5), 5000), ((4, 8), 2000), ((3, 12), 2000)):
        B = random_tensor(m, n, 0)
        A = eta_shift(spectral_radius(B).rho + 1.0, B)
        verdict, bisections = _midpoint_values(monkeypatch, A, DetectorConfig(max_iterations=budget))
        if (m, n) == (6, 5):
            assert verdict.iterations == 1847 and verdict.max_depth == 33
        assert bisections
        unit = (m + 2) * 2.0**-53 * max(map(abs, A.entries.values()))
        for corner, value, midpoint in bisections:
            depth = max(_dyadic_depth(midpoint) - 1, 0)
            assert abs(corner - value) <= (depth + 3) * unit, ((m, n), midpoint)


def test_filtered_midpoint_values_change_nothing(monkeypatch):
    # Every run, its records and its certified cells are those of the run
    # that evaluates every midpoint's form exactly.
    # Runs are (tensor, budget, sigma): Table 1, (6,5) to completion,
    # rho - 1 shifts (refuted, or undecided at n >= 8) and the sextics.
    runs = [(eta_shift(eta, ones_tensor(m, n)), 100, 0.0) for m, n, _, eta, _, _ in TABLE1_ROWS]
    B = random_tensor(6, 5, 0)
    runs.append((eta_shift(spectral_radius(B).rho + 1.0, B), 5000, 0.0))
    for m, n in ((3, 3), (4, 4), (6, 3), (6, 5), (4, 8), (3, 12)):
        for seed in (0, 1):
            B = random_tensor(m, n, seed)
            runs.append((eta_shift(spectral_radius(B).rho - 1.0, B), 2000, 0.0))
    for sextic in (motzkin_tensor, robinson_tensor, choi_lam_tensor):
        runs.append((sextic(), 2000, 1e-3))
    kinds = set()
    for A, budget, sigma in runs:
        cfg = DetectorConfig(max_iterations=budget, sigma=sigma, keep_certificates=True)
        filtered = detect(A, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(detector, "_SAFETY", math.inf)
            exact = detect(A, cfg)
        assert filtered.to_json_dict() == exact.to_json_dict(), A
        cells, exact_cells = filtered.certified_cells or (), exact.certified_cells or ()
        assert len(cells) == len(exact_cells)
        assert all(np.array_equal(a, b) for a, b in zip(cells, exact_cells))
        kinds.add(filtered.to_json_dict()["verdict"])
    assert kinds == {"copositive", "not_copositive", "undecided", "sigma_certified"}


def test_deep_random_search_runs_to_completion():
    B = random_tensor(6, 5, 0)
    verdict = detect(eta_shift(spectral_radius(B).rho + 1.0, B), DetectorConfig(max_iterations=5000))
    assert verdict.kind is VerdictKind.COPOSITIVE
    assert verdict.iterations == 1847
    assert verdict.max_depth == 33


def test_carried_lengths_match_exact_squared_distances():
    # ``detect`` carries squared edge lengths in Python floats: a child's
    # new lengths come from its parent's by the median formula, each
    # operation correctly rounded on every platform.  Follow seeded random
    # paths of that arithmetic from the standard simplex and hold the
    # lengths to the exact squared distances of the exact dyadic vertices
    # (integers scaled by 2**60).  At depth d the vertices are multiples
    # of 2**-d and the squared lengths multiples of 2**-2d below 2, so
    # through depth 26 every operation is exact.  Past it a level rounds
    # at most twice (halving and quartering are exact), and the relative
    # bound at depth d allows 32 roundings per level.
    def bound(depth):
        return 32 * depth * 2.0**-53

    scale = 2**60
    checked = decided = 0
    for n in range(3, 13):
        pairs, at, _ = detector._edges(n)
        for seed in range(6):
            rng = np.random.default_rng([n, seed])
            exact = [[scale * (i == j) for j in range(n)] for i in range(n)]
            exact_lengths = [2 * scale**2] * len(pairs)
            lengths = [2.0] * len(pairs) + [0.0]
            for depth in range(60):
                k = lengths.index(max(lengths))
                best = max(exact_lengths)
                first = exact_lengths.index(best)
                gap = best - max(x for j, x in enumerate(exact_lengths) if j != first)
                if gap > 2 * bound(depth) * best:
                    assert k == first, (n, seed, depth)
                    decided += depth > 26
                p, q = pairs[k]
                quarter = 0.25 * lengths[k]
                row = [0.5 * (lengths[a] + lengths[b]) - quarter for a, b in zip(at[p], at[q])]
                moved = (p, q)[int(rng.integers(2))]
                exact[moved] = [(a + b) // 2 for a, b in zip(exact[p], exact[q])]
                lengths = lengths.copy()
                for slot, length in zip(at[moved], row):
                    lengths[slot] = length
                lengths[-1] = 0.0
                for j, slot in enumerate(at[moved]):
                    if j == moved:
                        continue
                    exact_lengths[slot] = sum((a - b) ** 2 for a, b in zip(exact[moved], exact[j]))
                    expected = Fraction(exact_lengths[slot], scale**2)
                    if depth + 1 <= 26:
                        assert lengths[slot] == expected, (n, seed, depth)
                    else:
                        error = abs(Fraction(lengths[slot]) - expected)
                        assert error <= bound(depth + 1) * expected, (n, seed, depth)
                        checked += 1
    assert checked > 0 and decided > 0


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_detect_matches_the_eager_loop():
    # Frontier entries hold references and build a cell only when it is
    # bisected or kept; the eager loop builds every child's cell and
    # lengths when it is pushed.  Records, witness bits and certified
    # cells (order, bits, read-only) must agree on every kind of run.
    def shifted(m, n, seed, delta):
        B = random_tensor(m, n, seed)
        return eta_shift(spectral_radius(B).rho + delta, B)

    runs = [(eta_shift(eta, ones_tensor(m, n)), {}) for m, n, _, eta, _, _ in TABLE1_ROWS]
    for seed in range(3):
        runs += [
            (shifted(4, 4, seed, 1.0), {"max_iterations": 5000}),
            (shifted(3, 5, seed, 1.0), {"max_iterations": 5000}),
            (shifted(3, 3, seed, -1.0), {"max_iterations": 2000}),
            (shifted(6, 3, seed, -1.0), {"max_iterations": 2000}),
            (shifted(4, 8, seed, -1.0), {"max_iterations": 300}),
            (shifted(3, 12, seed, 1.0), {"max_iterations": 300}),
            (random_tensor_negative_diagonal(4, 3 + seed, seed), {}),
            (shifted(4, 5, seed, 1.0), {"max_iterations": 5000, "min_diameter": 0.2}),
        ]
    # Ends at depth 33, past the depth where squared lengths round.
    runs.append((shifted(6, 5, 0, 1.0), {"max_iterations": 5000}))
    runs += [(sextic(), {"max_iterations": 2000, "sigma": 1e-3})
             for sextic in (motzkin_tensor, robinson_tensor, choi_lam_tensor)]
    runs += [
        (eta_shift(9.0, ones_tensor(3, 3)), {"min_diameter": 0.05}),
        (eta_shift(1.0, ones_tensor(3, 3)), {"min_diameter": 1.0}),
        (-1.0 * ones_tensor(3, 3), {"sigma": 0.5}),
    ]
    seen = set()
    for A, options in runs:
        cfg = DetectorConfig(keep_certificates=True, **options)
        ours, eager = detect(A, cfg), eager_detect(A, cfg)
        assert ours.to_json_dict() == eager.to_json_dict(), (A, options)
        assert (ours.witness is None) == (eager.witness is None)
        if ours.witness is not None:
            assert _bits(ours.witness) == _bits(eager.witness)
        cells, expected = ours.certified_cells, eager.certified_cells
        assert (cells is None) == (expected is None)
        assert [_bits(c) for c in cells or ()] == [_bits(c) for c in expected or ()]
        assert not any(cell.flags.writeable for cell in cells or ())
        record = ours.to_json_dict()
        if record["verdict"] == "not_copositive":
            seen.add("refuted at the root" if ours.iterations == 1 else "refuted deep")
        elif record["verdict"] == "undecided":
            at_budget = ours.iterations == cfg.max_iterations
            seen.add("undecided at the budget" if at_budget else "undecided by min_diameter")
        else:
            seen.add(record["verdict"])
    assert seen == {
        "copositive",
        "sigma_certified",
        "refuted at the root",
        "refuted deep",
        "undecided at the budget",
        "undecided by min_diameter",
    }


def test_order_two_verdicts_agree_with_kaplans_criterion():
    # Kaplan's eigenvector criterion decides order 2 exactly and shares no
    # code with the search.  Where its margin exceeds delta the search must
    # decide within 20k cells and agree with it; an undecided run is allowed
    # only inside the margin.  Off-diagonal entries reach below -0.5, so a
    # search that certified cells with 0.5 of slack would call some
    # matrices copositive that are not.
    rng = np.random.default_rng(67)
    cfg = DetectorConfig(max_iterations=20_000)
    delta = 1e-3
    seen = set()
    for trial in range(500):
        n = 2 + trial % 5
        M = rng.uniform(-0.7, 1.0, size=(n, n))
        M = (M + M.T) / 2
        M[np.diag_indices(n)] = rng.uniform(0.0, 1.0, size=n)
        copositive, _, margin = kaplan(M)
        keys = itertools.combinations_with_replacement(range(n), 2)
        verdict = detect(SymmetricTensor(2, n, {(i + 1, j + 1): M[i, j] for i, j in keys}), cfg)
        if margin > delta:
            assert verdict.kind is not VerdictKind.UNDECIDED, (M, margin)
            assert (verdict.kind is VerdictKind.COPOSITIVE) == copositive, (M, margin)
        seen.add(copositive)
    assert seen == {True, False}


def test_relabelled_indices_keep_the_verdict():
    # A o pi, built through the constructor from permuted, unsorted keys
    # handed in a shuffled order, is copositive exactly when A is.  Where
    # both runs decide, the kinds must agree; every witness on A o pi must
    # verify there.  An undecided run is allowed but counted: at this budget
    # none of the 46 relabelled runs ends undecided.
    rng = np.random.default_rng(73)
    cases = []
    for m, n in ((3, 3), (4, 3), (3, 4), (6, 3), (4, 4)):
        for seed in (0, 1):
            B = random_tensor(m, n, seed)
            rho = spectral_radius(B).rho
            cases += [(eta_shift(rho + step, B), 0.0) for step in (-1.0, 1.0)]
    cases += [(make(), 1e-3) for make in (motzkin_tensor, robinson_tensor, choi_lam_tensor)]
    runs = undecided = 0
    for A, sigma in cases:
        cfg = DetectorConfig(max_iterations=5000, sigma=sigma)
        base = detect(A, cfg).kind
        for _ in range(2):
            pi = rng.permutation(A.dim) + 1
            pairs = [(rng.permutation([pi[i - 1] for i in key]).tolist(), value)
                     for key, value in A.entries.items()]
            shuffled = [pairs[t] for t in rng.permutation(len(pairs))]
            relabelled = SymmetricTensor(A.order, A.dim, shuffled)
            verdict = detect(relabelled, cfg)
            runs += 1
            if VerdictKind.UNDECIDED in (base, verdict.kind):
                undecided += 1
            else:
                assert verdict.kind is base, (A, pi)
            if verdict.witness is not None:
                assert verify_witness(relabelled, verdict.witness, cfg.tolerance), (A, pi)
    assert (runs, undecided) == (46, 0)


def test_diagonal_scaling_keeps_the_verdict():
    # x -> Dx for a positive diagonal D: A is copositive exactly when A o D
    # is, whose entries are a_alpha * prod_j d_{alpha_j}, exact for d_i = 2**k.
    # A witness w of A o D maps to the witness Dw / sum(Dw) of A.  Where both
    # runs decide, the kinds must agree; an undecided side is allowed but
    # counted, and enough pairs must decide that the test cannot pass vacuously.
    # Cells grow under D, so at this budget some transformed runs stay undecided.
    rng = np.random.default_rng(79)
    cfg = DetectorConfig(max_iterations=5000)
    pairs = decided = mapped = 0
    for m, n in ((4, 3), (3, 4), (6, 3), (4, 4), (3, 5)):
        for seed in (0, 1):
            B = random_tensor(m, n, seed)
            rho = spectral_radius(B).rho
            for step in (-1.0, 1.0, -0.01, 0.01):
                A = eta_shift(rho + step, B)
                base = detect(A, cfg).kind
                for _ in range(2):
                    d = 2.0 ** rng.integers(-2, 3, size=n)
                    scaled = SymmetricTensor(m, n, {key: value * math.prod(d[i - 1] for i in key)
                                                    for key, value in A.entries.items()})
                    verdict = detect(scaled, cfg)
                    pairs += 1
                    if VerdictKind.UNDECIDED not in (base, verdict.kind):
                        decided += 1
                        assert verdict.kind is base, (m, n, seed, step, d)
                    if verdict.witness is not None:
                        x = d * verdict.witness
                        assert verify_witness(A, x / x.sum(), cfg.tolerance), (m, n, seed, step, d)
                        mapped += 1
    assert pairs == 80 and decided >= 60, (decided, mapped)  # 66 decide, 35 witnesses map


def _z_tensor(m, n, seed):
    """``s I - B`` for a random Z-tensor: off-diagonal entries uniform in
    [-1, 0], diagonal ``1 + 0.5 U``, ``s`` its largest diagonal entry, so
    that ``B`` is nonnegative."""
    rng = np.random.default_rng((m, n, seed))
    A = SymmetricTensor(m, n, {key: 1.0 + 0.5 * rng.random() if len(set(key)) == 1
                               else -rng.random() for key in canonical_keys(m, n)})
    return eta_shift(max(A[(i,) * m] for i in range(1, n + 1)), A)


def test_z_tensors_are_decided_as_the_m_tensor_criterion_decides():
    # eta I - B with B >= 0 is copositive exactly when eta >= rho(B).  At
    # 5% above rho, B's power iterate, snapped to a rational, is an exact
    # certificate of the criterion; at 5% below, its Perron vector is a
    # witness, whose form value is (eta - rho) sum(x_i^m) < 0, and no
    # certificate.  Where detect decides, it must agree; undecided runs
    # are counted.
    cfg = DetectorConfig(max_iterations=20_000)
    runs = undecided = 0
    for m, n in ((3, 3), (4, 3), (3, 4), (4, 4), (6, 3), (3, 5), (4, 5), (3, 6)):
        for seed in range(12):
            B = _z_tensor(m, n, seed)
            power = spectral_radius(B)
            x = [Fraction(v).limit_denominator(10**12) for v in power.x.tolist()]
            for factor, copositive in ((0.95, False), (1.05, True)):
                A = eta_shift(power.rho * factor, B)
                assert m_certificate(A, x) is copositive, (m, n, seed, factor)
                assert verify_witness(A, power.x) is not copositive, (m, n, seed, factor)
                verdict = detect(A, cfg)
                runs += 1
                if verdict.kind is VerdictKind.UNDECIDED:
                    undecided += 1
                else:
                    assert (verdict.kind is VerdictKind.COPOSITIVE) is copositive, (m, n, seed)
    assert runs == 192 and undecided <= 19, undecided  # all 192 decide today


def test_verdicts_are_monotone_in_the_shift_and_under_nonnegative_additions():
    # eta I - B loses no copositivity as eta grows, and A + c N keeps A's
    # for N >= 0, c > 0.  Undecided runs are allowed but counted.
    cfg = DetectorConfig(max_iterations=3000)
    steps = (-1.0, -0.1, -0.01, 0.01, 0.1, 1.0, 10.0)
    runs = undecided = 0
    for m, n in ((3, 3), (3, 4), (4, 3), (4, 4), (6, 3), (3, 5)):
        for seed in range(5):
            B = random_tensor(m, n, seed)
            rho = spectral_radius(B).rho
            kinds = {step: detect(eta_shift(rho + step, B), cfg).kind for step in steps}
            refuted = [step for step, kind in kinds.items() if kind is VerdictKind.NOT_COPOSITIVE]
            certified = [step for step, kind in kinds.items() if kind is VerdictKind.COPOSITIVE]
            assert max(refuted, default=-math.inf) < min(certified, default=math.inf), (m, n, seed)
            runs += len(steps)
            undecided += list(kinds.values()).count(VerdictKind.UNDECIDED)
            if kinds[1.0] is not VerdictKind.COPOSITIVE:
                continue
            N = random_tensor(m, n, 100 + seed)
            for c in (0.01, 1.0):
                kind = detect(eta_shift(rho + 1.0, B) + c * N, cfg).kind
                assert kind is not VerdictKind.NOT_COPOSITIVE, (m, n, seed, c)
                runs += 1
                undecided += kind is VerdictKind.UNDECIDED
    # every rho + 1 run certifies, so 60 sums are checked; 7 runs are undecided today
    assert runs == 270 and undecided <= 27, undecided


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
def test_power_of_two_scaling_keeps_the_verdict():
    # Copositivity is invariant under A -> 2**k A, and every coefficient and
    # vertex value scales exactly; only the absolute tolerance does not.
    # Today the four rho - 0.01 shifts come back copositive at k = -33, and
    # both eta shifts are refuted at k = 20 and 33.
    cfg = DetectorConfig(max_iterations=5000)
    instances = []
    for (m, n), seed in (((4, 4), 0), ((3, 5), 1), ((6, 3), 2), ((4, 5), 3)):
        B = random_tensor(m, n, seed)
        instances.append(eta_shift(spectral_radius(B).rho - 0.01, B))
    instances += [eta_shift(9.0, ones_tensor(3, 3)), eta_shift(27.0, ones_tensor(4, 3))]
    moved = []
    for index, A in enumerate(instances):
        kind = detect(A, cfg).kind
        moved += [(index, k) for k in (-33, 20, 33) if detect(2.0**k * A, cfg).kind is not kind]
    assert moved == []
