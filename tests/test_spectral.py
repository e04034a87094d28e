import math

import numpy as np
import pytest

from coposim import (
    PowerIterationBudgetError,
    SymmetricTensor,
    VerdictKind,
    DetectorConfig,
    detect,
    eta_shift,
    identity_tensor,
    ones_tensor,
    random_tensor,
    spectral_radius,
)


def test_known_spectral_radii():
    assert spectral_radius(ones_tensor(3, 3)).rho == pytest.approx(9.0, abs=1e-6)
    assert spectral_radius(ones_tensor(4, 4)).rho == pytest.approx(64.0, abs=1e-6)
    for m, n in ((3, 3), (4, 4), (6, 3)):
        assert spectral_radius(identity_tensor(m, n)).rho == pytest.approx(1.0, abs=1e-6)


def test_bounds_sandwich_known_instances():
    for B, rho in ((ones_tensor(3, 3), 9.0), (ones_tensor(4, 4), 64.0),
                   (identity_tensor(3, 3), 1.0)):
        result = spectral_radius(B)
        assert result.lower - 1e-9 <= rho <= result.upper + 1e-9
        assert result.upper - result.lower < 1e-8
        assert np.all(result.x > 0)
        assert result.x.sum() == pytest.approx(1.0)


def test_scale_equivariance():
    for seed in range(3):
        B = random_tensor(3, 3, seed)
        rho = spectral_radius(B).rho
        assert spectral_radius(4.5 * B).rho == pytest.approx(4.5 * rho, rel=1e-6)


def test_threshold_law_against_detector():
    cfg = DetectorConfig(max_iterations=1000)
    for m, n in ((3, 3), (3, 4), (4, 4)):
        for seed in range(3):
            B = random_tensor(m, n, seed)
            rho = spectral_radius(B).rho
            below = detect(eta_shift(rho - 1.0, B), cfg)
            above = detect(eta_shift(rho + 1.0, B), cfg)
            assert below.kind is VerdictKind.NOT_COPOSITIVE
            assert above.kind is VerdictKind.COPOSITIVE


def test_input_validation():
    with pytest.raises(ValueError):
        spectral_radius(eta_shift(1.0, ones_tensor(3, 3)))  # negative entries
    with pytest.raises(ValueError):
        spectral_radius(ones_tensor(3, 3), tol=0.0)
    with pytest.raises(ValueError):
        spectral_radius(ones_tensor(1, 3))
    for tol in (math.nan, math.inf, -1e-8):
        with pytest.raises(ValueError, match="tol"):
            spectral_radius(ones_tensor(3, 3), tol=tol)
    for max_iter in (0, -5, 2.5, True, "10"):
        with pytest.raises(ValueError, match="max_iter"):
            spectral_radius(ones_tensor(3, 3), max_iter=max_iter)
    assert spectral_radius(ones_tensor(3, 3), max_iter=10.0).rho == pytest.approx(9.0)


def test_budget_error_carries_bounds():
    B = random_tensor(3, 3, 5)
    with pytest.raises(PowerIterationBudgetError) as info:
        spectral_radius(B, tol=1e-14, max_iter=2)
    err = info.value
    assert err.iterations == 2
    assert err.lower <= err.upper
    full = spectral_radius(B)
    assert err.lower - 1e-9 <= full.rho <= err.upper + 1e-9


def test_reducible_safeguard():
    # no diagonal-free mass on index 1: the first contraction hits zero there
    B = SymmetricTensor(3, 2, {(2, 2, 2): 1.0})
    result = spectral_radius(B)
    assert result.shift > 0
    assert result.rho == pytest.approx(1.0, abs=1e-6)
