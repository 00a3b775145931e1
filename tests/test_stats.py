"""CCDF estimation, closed-form curves, and Gaussianity diagnostics."""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from ofdm_papr import (
    CcdfCurve,
    ModulationScheme,
    TimeFrame,
    empirical_ccdf,
    gaussianity_stats,
    random_frame,
    synthesize,
    theoretical_ccdf_original,
    theoretical_ccdf_slm,
    theoretical_curve,
)


def test_empirical_exceedance_is_strict():
    curve = empirical_ccdf([1.0, 2.0, 3.0], [0.0, 2.0, 5.0])
    assert_allclose(curve.probabilities, [1.0, 1 / 3, 0.0])
    assert curve.sample_count == 3


def test_empirical_rejects_bad_input():
    with pytest.raises(ValueError, match="at least one sample"):
        empirical_ccdf([], [1.0, 2.0])
    with pytest.raises(ValueError, match="ascending"):
        empirical_ccdf([1.0], [2.0, 1.0])
    with pytest.raises(ValueError, match="ascending"):
        empirical_ccdf([1.0], [1.0, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            empirical_ccdf([bad, 1.0], [0.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            empirical_ccdf([1.0, 2.0], [bad])


def test_vanishing_threshold_gives_certainty():
    assert theoretical_ccdf_original(64, 1e-12) > 1 - 1e-9


def test_single_carrier_is_exponential():
    for z in (0.5, 1.0, 4.0, 10.0):
        assert np.isclose(theoretical_ccdf_original(1, z), math.exp(-z), rtol=1e-14)


def test_inversion_landmarks():
    # numeric inversion oracle: threshold where the closed form crosses 1e-2
    z64 = brentq(lambda z: theoretical_ccdf_original(64, z) - 0.01, 1.0, 40.0, xtol=1e-12)
    assert abs(z64 - 8.759110827357588) < 1e-9
    assert abs(10 * math.log10(z64) - 9.4246) < 1e-4
    z128 = brentq(lambda z: theoretical_ccdf_original(128, z) - 0.01, 1.0, 40.0, xtol=1e-12)
    assert abs(z128 - 9.452218749563844) < 1e-9
    assert abs(10 * math.log10(z128) - 9.7553) < 1e-4


def test_candidate_power_law_matches_high_precision_arithmetic():
    value = theoretical_ccdf_slm(64, 4, 8.0)
    mp.mp.dps = 50
    oracle = float((1 - (1 - mp.e ** -8) ** 64) ** 4)
    assert np.isclose(value, oracle, rtol=1e-12)
    assert np.isclose(value, 2.0369e-7, rtol=1e-3)


def test_single_candidate_reduces_to_original():
    z = np.linspace(0.1, 12.0, 50)
    assert_allclose(theoretical_ccdf_slm(64, 1, z), theoretical_ccdf_original(64, z))


def test_power_relation():
    z = np.linspace(0.5, 10.0, 20)
    base = theoretical_ccdf_original(32, z)
    for m in (2, 3, 4):
        assert_allclose(theoretical_ccdf_slm(32, m, z), base ** m, rtol=1e-14)


def test_curves_strictly_decreasing_and_ordered():
    z = np.linspace(0.05, 14.0, 200)
    base = theoretical_ccdf_original(64, z)
    assert np.all(np.diff(base) <= 0)
    # strictly decreasing wherever the value is representable below 1.0
    interior = base < 1.0
    assert np.all(np.diff(base[interior]) < 0)
    for m in (2, 8):
        assert np.all(theoretical_ccdf_slm(64, m, z) <= base)


def test_large_threshold_asymptote():
    # original CCDF approaches n * exp(-z) once that product is tiny
    for n in (16, 64, 256):
        z = math.log(n / 1e-3)  # n * e^{-z} == 1e-3
        for extra in (0.0, 1.0, 3.0):
            ratio = theoretical_ccdf_original(n, z + extra) / (n * math.exp(-(z + extra)))
            assert abs(ratio - 1) < 0.01


def test_domain_errors():
    with pytest.raises(ValueError, match="positive"):
        theoretical_ccdf_original(64, 0.0)
    with pytest.raises(ValueError, match="positive"):
        theoretical_ccdf_original(64, -1.0)
    with pytest.raises(ValueError, match="positive"):
        theoretical_ccdf_original(64, np.nan)
    with pytest.raises(ValueError, match="positive"):
        theoretical_ccdf_original(64, np.array([1.0, np.nan]))
    assert theoretical_ccdf_original(64, np.inf) == 0.0
    with pytest.raises(ValueError, match=">= 1"):
        theoretical_ccdf_original(0, 1.0)
    with pytest.raises(ValueError, match=">= 1"):
        theoretical_ccdf_slm(64, 0, 1.0)


def test_theoretical_curve_on_db_grid():
    grid = np.array([6.0, 9.0, 12.0])
    curve = theoretical_curve(64, grid, slm_branches=2)
    assert curve.sample_count == 0
    expected = theoretical_ccdf_slm(64, 2, 10 ** (grid / 10))
    assert_allclose(curve.probabilities, expected)


def test_ccdf_curve_validation():
    with pytest.raises(ValueError, match="ascending"):
        CcdfCurve(np.array([2.0, 1.0]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="non-increasing"):
        CcdfCurve(np.array([1.0, 2.0]), np.array([0.4, 0.5]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        CcdfCurve(np.array([1.0, 2.0]), np.array([1.5, 0.5]))
    with pytest.raises(ValueError, match="equal length"):
        CcdfCurve(np.array([1.0, 2.0]), np.array([0.5]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            CcdfCurve(np.array([bad]), np.array([0.5]))
    # The closed form must not see the grid first: it names a bad threshold
    # "not positive" instead.
    for bad in ([np.nan], [-np.inf, 1.0]):
        with pytest.raises(ValueError, match="finite 1-D grid"):
            theoretical_curve(64, bad)


def test_constant_frames_have_zero_variance():
    c = 0.5 - 0.75j  # dyadic components keep the mean exact
    frames = [TimeFrame(np.full(32, c), 1) for _ in range(3)]
    stats = gaussianity_stats(frames)
    assert np.isclose(stats.mean_re, c.real)
    assert np.isclose(stats.mean_im, c.imag)
    assert stats.variance == 0.0
    assert stats.n_samples == 96


def test_synthesized_frames_approach_gaussian_moments():
    rng = np.random.default_rng(424242)
    frames = [synthesize(random_frame(128, ModulationScheme.QPSK, rng), 1)
              for _ in range(10_000)]
    stats = gaussianity_stats(frames)
    assert abs(stats.mean_re) < 0.01
    assert abs(stats.mean_im) < 0.01
    assert abs(stats.variance - 0.5) < 0.02
    assert abs(stats.excess_kurtosis_re) < 0.1
    assert abs(stats.excess_kurtosis_im) < 0.1


def test_gaussianity_rejects_empty_and_wrong_types():
    with pytest.raises(ValueError, match="at least one frame"):
        gaussianity_stats([])
    with pytest.raises(TypeError, match="TimeFrame"):
        gaussianity_stats([np.ones(4)])
