"""Empirical and closed-form CCDF curves plus Gaussianity diagnostics.

The closed-form curves model the frame maximum as N independent unit-mean
exponential power samples: CCDF(z) = 1 - (1 - e^{-z})^N, and the best of M
independent candidates as its M-th power.  These are Nyquist-rate (L = 1)
approximations; oversampled measurements sit above them, and even at L = 1
the self-normalised PAPR of finite-N frames deviates measurably (see the
acceptance notes).

Exceedance is strict: a sample contributes to the CCDF at threshold z only
when it is greater than z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import TimeFrame
from .modulation import read_only_field


def check_grid(thresholds_db) -> np.ndarray:
    """The dB threshold grid as a float64 array: non-empty, 1-D, finite, strictly ascending."""
    grid = np.asarray(thresholds_db, dtype=np.float64)
    if (grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all()
            or not np.all(np.diff(grid) > 0)):
        raise ValueError("thresholds must be a non-empty strictly ascending finite 1-D grid")
    return grid


@dataclass(frozen=True, eq=False)
class CcdfCurve:
    """Ascending dB thresholds paired with exceedance probabilities.

    sample_count is 0 for analytic curves.
    """

    thresholds_db: np.ndarray
    probabilities: np.ndarray
    sample_count: int = 0

    def __post_init__(self):
        t = check_grid(read_only_field(self, "thresholds_db", np.float64))
        p = read_only_field(self, "probabilities", np.float64)
        if p.shape != t.shape:
            raise ValueError("thresholds and probabilities must be 1-D and equal length")
        if np.any(p < 0) or np.any(p > 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if not np.all(np.diff(p) <= 0):
            raise ValueError("probabilities must be non-increasing")


@dataclass(frozen=True)
class SignalStats:
    """Pooled per-component moments of a collection of time frames."""

    mean_re: float
    mean_im: float
    variance: float
    excess_kurtosis_re: float
    excess_kurtosis_im: float
    n_samples: int


def empirical_ccdf(samples_db, thresholds_db) -> CcdfCurve:
    """Exceedance fractions P(sample > z) on the given ascending dB grid."""
    samples = np.asarray(samples_db, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("at least one sample is required")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    grid = check_grid(thresholds_db)
    ordered = np.sort(samples)
    exceed = samples.size - np.searchsorted(ordered, grid, side="right")
    return CcdfCurve(grid, exceed / samples.size, sample_count=samples.size)


def theoretical_ccdf_original(n: int, z_linear) -> float | np.ndarray:
    """Closed-form CCDF of the unmodified frame, 1 - (1 - e^{-z})^n.

    z_linear is the threshold as a linear power ratio; scalars map to
    scalars and arrays map elementwise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z = np.asarray(z_linear, dtype=np.float64)
    if not np.all(z > 0):
        raise ValueError("threshold must be positive")
    out = -np.expm1(n * np.log1p(-np.exp(-z)))
    return float(out) if np.isscalar(z_linear) else out


def theoretical_ccdf_slm(n: int, m: int, z_linear) -> float | np.ndarray:
    """Closed-form CCDF of the best of m independent candidates: original^m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return theoretical_ccdf_original(n, z_linear) ** m


def theoretical_curve(n: int, thresholds_db, slm_branches: int = 1) -> CcdfCurve:
    """Closed-form CCDF evaluated on a dB grid, as a CcdfCurve."""
    grid = check_grid(thresholds_db)
    z = 10.0 ** (grid / 10.0)
    return CcdfCurve(grid, theoretical_ccdf_slm(n, slm_branches, z), sample_count=0)


def gaussianity_stats(frames) -> SignalStats:
    """Pooled mean, per-component variance, and excess kurtosis of the samples.

    The Gaussian limit applies to each quadrature component separately;
    the reported variance is the average of the two component variances.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("at least one frame is required")
    for f in frames:
        if not isinstance(f, TimeFrame):
            raise TypeError("gaussianity_stats expects TimeFrame instances")
    samples = np.concatenate([f.samples for f in frames])
    re, im = samples.real, samples.imag

    def moments(x):
        mu = x.mean()
        d = x - mu
        var = (d ** 2).mean()
        kurt = (d ** 4).mean() / var ** 2 - 3.0 if var > 0 else 0.0
        return mu, var, kurt

    mean_re, var_re, kurt_re = moments(re)
    mean_im, var_im, kurt_im = moments(im)
    return SignalStats(
        mean_re=float(mean_re),
        mean_im=float(mean_im),
        variance=float((var_re + var_im) / 2.0),
        excess_kurtosis_re=float(kurt_re),
        excess_kurtosis_im=float(kurt_im),
        n_samples=samples.size,
    )
