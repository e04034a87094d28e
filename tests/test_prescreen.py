import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from coposim import (
    DetectorConfig,
    SymmetricTensor,
    VerdictKind,
    detect,
    eta_shift,
    identity_tensor,
    motzkin_tensor,
    multiplicity,
    ones_tensor,
    random_tensor,
    random_tensor_negative_diagonal,
    run_prescreen,
    spectral_radius,
    verify_witness,
)
from coposim import prescreen, tensor
from coposim.prescreen import DIAGONAL, SUBTENSOR_SAMPLE, _sample_blocks

from _brute import (
    barycentric_lattice,
    canonical_keys,
    cut_lattice,
    interior_lattice,
    pointwise_prescreen,
    random_symmetric,
    subtensor_prescreen,
)

def test_barycentric_lattice():
    closed = list(barycentric_lattice(2, 2))
    assert sorted(tuple(p) for p in closed) == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    assert [(f.tolist(), x.tolist()) for f, x in _sample_blocks(1, 1, 4)] == [([0], [[0.5, 0.5]])]
    assert list(_sample_blocks(1, 0, 4)) == list(_sample_blocks(0, 3, 4)) == []
    assert len(list(barycentric_lattice(3, 20))) == 231
    # The cut generator yields the oracle's interior points, in the same
    # (lexicographic) order and bit for bit.
    for dim in range(1, 5):
        for d in range(1, 9):
            cuts = [tuple(x) for x in cut_lattice(dim, d)]
            assert cuts == [tuple(x) for x in interior_lattice(dim, d)], (dim, d)


def _flat_samples(faces, depth, size):
    """Faces and points of every block of the flat scan, concatenated,
    after checking that every block but the last is full."""
    blocks = list(_sample_blocks(faces, depth, size))
    assert all(len(f) == len(x) == size for f, x in blocks[:-1]), (faces, depth, size)
    if not blocks:
        return np.empty(0, np.intp), np.empty((0, 2))
    return np.concatenate([f for f, _ in blocks]), np.concatenate([x for _, x in blocks])


def test_lattice_blocks_match_the_cut_generator():
    # The library builds each block of face samples in numpy; in blocks of
    # any size the samples run face by face, each face's points the cut
    # generator's, in its order, bit for bit, and every block but the last
    # is full.
    for depth in (0, 1, 2, 4, 8, 13):
        lattice = np.array(list(cut_lattice(2, depth + 1))).reshape(-1, 2)
        for faces in (1, 3, 10):
            for size in (1, 2, 3, 7, 64, 10**6):
                face, points = _flat_samples(faces, depth, size)
                assert face.tolist() == np.repeat(np.arange(faces), depth).tolist()
                expected = np.tile(lattice, (faces, 1))
                assert points.shape == expected.shape, (faces, depth, size)
                assert np.array_equal(points.view(np.int64), expected.view(np.int64))
    face, deep = _flat_samples(3, 20000, 1092)
    assert face.tolist() == [0] * 20000 + [1] * 20000 + [2] * 20000
    lattice = np.array(list(cut_lattice(2, 20001)))
    assert np.array_equal(deep.view(np.int64), np.tile(lattice, (3, 1)).view(np.int64))


def test_diagonal_stage():
    for seed in range(3):
        assert run_prescreen(random_tensor(3, 3, seed)).passed
    assert run_prescreen(identity_tensor(3, 3)).passed
    report = run_prescreen(random_tensor_negative_diagonal(4, 3, 0))
    assert not report.passed
    assert report.violated_condition == DIAGONAL
    assert np.array_equal(report.witness, [1.0, 0.0, 0.0])
    assert verify_witness(random_tensor_negative_diagonal(4, 3, 0), report.witness)


def test_dimension_one_has_only_the_diagonal_stage():
    # No pair face, so the pair shape's plan is never needed: at order 1100
    # its multiplicities leave the float range, and at MAX_ORDER its keys
    # pass MAX_KEYS times 16 / order.
    for m in (3, 1100, tensor.MAX_ORDER):
        assert run_prescreen(ones_tensor(m, 1)).passed
        report = run_prescreen(-1.0 * ones_tensor(m, 1))
        assert report.violated_condition == DIAGONAL and report.witness.tolist() == [1.0]


def test_prescreens_reject_a_nonfinite_or_negative_tau():
    # With tau = nan every comparison is false, so the -1 diagonal entry
    # would pass unseen; a bool once passed as 1.0, and a string raised
    # TypeError.
    A = random_tensor_negative_diagonal(4, 3, 0)
    for tau in (np.nan, np.inf, -1.0, True, "1e-3", None, 1j, 10**400):
        with pytest.raises(ValueError, match="tau"):
            run_prescreen(A, tau=tau)
    assert run_prescreen(A, tau=0.0).violated_condition == DIAGONAL
    assert run_prescreen(A, tau=np.float32(0.0)).violated_condition == DIAGONAL


def test_subtensor_sample_refute():
    # I - E has unit diagonal, and its form is -0.75 at the midpoint of
    # the (1,2) edge: the battery's first pair sample refutes it there.
    A = eta_shift(1.0, ones_tensor(3, 3))
    report = run_prescreen(A, grid_depth=1)
    assert not report.passed
    assert report.violated_condition == SUBTENSOR_SAMPLE
    assert report.J == (1, 2)
    assert np.array_equal(report.witness, [0.5, 0.5, 0.0])
    assert A.form(report.witness) == pytest.approx(-0.75)
    assert verify_witness(A, report.witness)
    # -E dips on every face too, but its diagonal refutes it first.
    assert run_prescreen(-1.0 * ones_tensor(3, 3), grid_depth=1).violated_condition == DIAGONAL
    for depth in (1, 2, 4):
        assert run_prescreen(ones_tensor(3, 3), depth).passed


def test_run_prescreen_checks_grid_depth_first():
    # A refuting diagonal, or a single index with no pair to sample, used
    # to let a bad depth through unchecked.
    for A in (random_tensor_negative_diagonal(3, 3, 0), ones_tensor(3, 1), ones_tensor(2, 3)):
        for depth in (0, -3, 2.5, True, "2"):
            with pytest.raises(ValueError, match="grid_depth"):
                run_prescreen(A, grid_depth=depth)
        assert run_prescreen(A, 2.0).to_json_dict() == run_prescreen(A, 2).to_json_dict()


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
    # A zero at e1 where the form slopes down into the simplex (the
    # contraction there is (0, -0.1)): not copositive, yet mild enough that
    # every sample passes.  A pass certifies nothing.
    sloped = SymmetricTensor(3, 2, {(1, 1, 2): -0.1, (1, 2, 2): 1.0, (2, 2, 2): 1.0})
    assert run_prescreen(sloped).passed


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
            diagonal_refuted = run_prescreen(A).violated_condition == DIAGONAL
            assert first_iteration_refuted == diagonal_refuted


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


TAUS = (0.0, 1e-12, 1e-3)


def _assert_matches_pointwise(A, depth, tau, kinds):
    """``run_prescreen`` reports exactly what one ``A.form`` call per
    embedded lattice point reports."""
    expected = pointwise_prescreen(A, depth, tau).to_json_dict()
    assert run_prescreen(A, depth, tau).to_json_dict() == expected, (A, depth, tau)
    kinds[expected["violated_condition"]] += 1


def test_batched_face_samples_match_the_pointwise_oracle():
    rng = np.random.default_rng(67)
    kinds = Counter()
    tensors = []
    for trial in range(45):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        A = random_symmetric(rng, m, n, lo=float(rng.choice([-0.05, -0.2, -0.6])))
        keep = rng.random(len(A.entries)) < (0.5 if trial % 2 else 1.0)  # odd: sparse
        entries = {k: abs(v) if len(set(k)) == 1 else v
                   for (k, v), kept in zip(A.entries.items(), keep) if kept}
        tensors.append(SymmetricTensor(m, n, entries))
        B = random_tensor(m + 1, n, trial)  # order >= 2 for the power method
        rho = spectral_radius(B).rho
        tensors.append(eta_shift(rho + float(rng.choice([-1.0, -0.1, 0.1, 1.0])), B))
    for A in tensors:
        for depth in range(1, 5):
            for tau in TAUS:
                _assert_matches_pointwise(A, depth, tau, kinds)
    assert kinds[SUBTENSOR_SAMPLE] >= 100 and kinds[None] >= 100, kinds


def test_face_samples_in_small_blocks_keep_face_then_lattice_order(monkeypatch):
    # Blocks of a few terms split each lattice over many blocks, so a later
    # face may refute in an earlier block than the face that decides.
    rng = np.random.default_rng(73)
    kinds = Counter()
    for block in (1, 6, 40):
        monkeypatch.setattr(prescreen, "_BLOCK_TERMS", block)
        for trial in range(30):
            m, n, depth = (int(v) for v in rng.integers((2, 2, 2), (5, 6, 7)))
            A = random_symmetric(rng, m, n, lo=-1.5)
            A = SymmetricTensor(m, n, {k: abs(v) if len(set(k)) == 1 else v
                                       for k, v in A.entries.items()})
            _assert_matches_pointwise(A, depth, TAUS[trial % 3], kinds)
    assert kinds[SUBTENSOR_SAMPLE] >= 60, kinds


def test_samples_at_the_tolerance_match_form_to_the_last_bit():
    # On the face (i, j), the diagonal term at the face's first lattice
    # point is cancelled by a large negative term, and one entry between
    # them in key order is walked ulp by ulp until the form there is
    # exactly -tau.  That tensor, and those an ulp of the entry below and
    # above it, must be decided as A.form decides them; summing the terms
    # in order instead loses the small one against the large ones.  Every
    # entry off the face is nonnegative (or absent), so only this face, at
    # this point, can refute.
    rng = np.random.default_rng(71)
    kinds, exact = Counter(), Counter()
    for trial in range(90):
        tau = TAUS[trial % 3]
        m, n, depth = (int(v) for v in rng.integers((3, 2, 1), (6, 5, 5)))
        i, j = sorted(rng.choice(range(1, n + 1), 2, replace=False).tolist())
        entries = {key: rng.uniform(0.0, 1.0) for key in canonical_keys(m, n)
                   if not set(key) <= {i, j} and rng.random() < 0.7}
        point = np.zeros(n)
        point[[i - 1, j - 1]] = next(cut_lattice(2, depth + 1))

        def term(key):
            return multiplicity(key) * math.prod(point[t - 1] for t in key)

        k = int(rng.integers(2, m))
        key, large = (i,) * k + (j,) * (m - k), (i,) * (k - 1) + (j,) * (m - k + 1)
        entries[(i,) * m] = int(rng.integers(1, 65)) / 8
        entries[large] = -entries[(i,) * m] * term((i,) * m) / term(large)
        rest = SymmetricTensor(m, n, entries).form(point)

        def tuned(value):
            return SymmetricTensor(m, n, {**entries, key: float(value)})

        walk = [(-tau - rest) / term(key)]
        for _ in range(24):
            walk = [np.nextafter(walk[0], -np.inf), *walk, np.nextafter(walk[-1], np.inf)]
        on = [v for v in walk if tuned(v).form(point) == -tau]
        if not on:
            continue
        exact[tau] += 1
        for value in (np.nextafter(on[0], -np.inf), on[0], np.nextafter(on[0], np.inf)):
            _assert_matches_pointwise(tuned(value), depth, tau, kinds)
    assert min(exact[tau] for tau in TAUS) >= 15, exact
    assert kinds[SUBTENSOR_SAMPLE] >= 30 and kinds[None] >= 30, kinds


def test_face_ranks_of_a_wide_shape_build_in_bounded_memory():
    # The ranks come from prefix sums of the rank table, one (F, m + 1)
    # array at a time; ranking the (F, m + 1, m) face keys peaked near 100 MiB.
    tensor._face_ranks.cache_clear()
    tracemalloc.start()
    try:
        ranks = tensor._face_ranks(2, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        tensor._face_ranks.cache_clear()
    assert ranks.shape == (1000 * 999 // 2, 3)
    assert peak < 60 * 2**20, peak


def test_deep_face_sampling_runs_in_bounded_memory():
    A = eta_shift(100.0, ones_tensor(3, 6))  # every pair sample passes
    run_prescreen(A)  # the shape's cached plans are built outside the trace
    tracemalloc.start()
    try:
        report = run_prescreen(A, grid_depth=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 8 * 2**20, peak
