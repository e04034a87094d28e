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


# spectral_radius(random_tensor(m, n, seed)).rho.hex() for Table 2's shapes
# and seeds 0-9.  Table 2's eta = rho +- delta, and so the golden sweep,
# inherit these bits, which depend on numpy's ``power``: a platform or
# libm change shows here first, named at its cause.
TABLE2_RHO_BITS = {
    (3, 3): (
        "0x1.07815030be99fp+2", "0x1.fe44eaac809f7p+1", "0x1.6f6db29fd220ep+2",
        "0x1.19079b77ad0f4p+2", "0x1.2090df78b8498p+2", "0x1.25b2128e847aep+2",
        "0x1.d01649b6483eep+0", "0x1.a69047be351aap+1", "0x1.2ec698e620d82p+2",
        "0x1.9ac92ad2c3c23p+2",
    ),
    (3, 4): (
        "0x1.0314d6b8f3f1bp+3", "0x1.df0775605ddd5p+2", "0x1.22b5980f8752fp+3",
        "0x1.f5772da783016p+2", "0x1.ed5f54c5dce4bp+2", "0x1.26512e306c1fcp+3",
        "0x1.8bca9b4573516p+2", "0x1.f81d357015b41p+2", "0x1.fbc5d3241f1e4p+2",
        "0x1.45551ab6f7910p+3",
    ),
    (4, 3): (
        "0x1.a2a6b87db8bc1p+3", "0x1.94b80fc3fde2ep+3", "0x1.0e0a27597fdd7p+4",
        "0x1.9c5609d944f96p+3", "0x1.9649bea4521fap+3", "0x1.bb46b1479f52dp+3",
        "0x1.07d74dc961461p+3", "0x1.61070397200e2p+3", "0x1.9be27e0698ed4p+3",
        "0x1.28878502f902bp+4",
    ),
    (4, 4): (
        "0x1.1959cdc45aa6ep+5", "0x1.b8e0066ce4676p+4", "0x1.e7bf95a4a0ccbp+4",
        "0x1.0dbbb73286c8dp+5", "0x1.082d8d5860b50p+5", "0x1.0e68a42f374e8p+5",
        "0x1.bc160ac9ecadcp+4", "0x1.0212519f8c740p+5", "0x1.fb5c3c4f7c06cp+4",
        "0x1.12057e414efacp+5",
    ),
    (6, 3): (
        "0x1.df19dede787e6p+6", "0x1.04451d37306e6p+7", "0x1.f233c53ccc197p+6",
        "0x1.e8f700be20f04p+6", "0x1.c1821b8edee38p+6", "0x1.07b7896ee6dbdp+7",
        "0x1.cee6909f359c4p+6", "0x1.cd92eb58d4a42p+6", "0x1.a30b3eec6e932p+6",
        "0x1.17d92e38e4f3ep+7",
    ),
}


def test_table2_radii_keep_their_bits():
    for (m, n), bits in TABLE2_RHO_BITS.items():
        got = [spectral_radius(random_tensor(m, n, seed)).rho.hex() for seed in range(10)]
        assert got == list(bits), (m, n)


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
