"""Time-domain OFDM frame synthesis and the peak-to-average power ratio metric.

Oversampling is realised as mid-spectrum zero padding (trigonometric
interpolation): the N-point spectrum is split at the midpoint and (L-1)*N
zeros are inserted between the two halves before the inverse transform.
No renormalisation is applied afterwards; the PAPR is a ratio and does not
depend on the overall scale.

The power mean used by the PAPR is accumulated with an even/odd pairwise
tree over the last axis.  Elementwise tree steps are bitwise deterministic
for any leading batch shape, so a frame scored inside a candidate batch
yields exactly the same value as the same frame scored alone.  The
never-worse guarantees of the reduction algorithms rely on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dft import inverse_dft, is_power_of_two
from .modulation import FrequencyFrame


@dataclass(frozen=True)
class PaprSample:
    """One frame's PAPR as a linear ratio and in decibels."""

    linear: float
    db: float

    @classmethod
    def from_linear(cls, linear: float) -> "PaprSample":
        return cls(linear=float(linear), db=10.0 * math.log10(linear))


@dataclass(frozen=True, eq=False, slots=True)
class TimeFrame:
    """Oversampled time-domain frame: L*N complex samples."""

    samples: np.ndarray
    oversample: int

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.oversample < 1:
            raise ValueError("oversample must be >= 1")
        if arr.size % self.oversample != 0:
            raise ValueError(f"sample count {arr.size} is not a multiple of L={self.oversample}")
        if not np.isfinite(arr.view(np.float64)).all():
            raise ValueError("samples contain non-finite values")
        if not arr.any():
            raise ValueError("all-zero frame has undefined PAPR")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n_subcarriers(self) -> int:
        return self.samples.size // self.oversample


def pad_spectrum(symbols: np.ndarray, oversample: int) -> np.ndarray:
    """Zero-pad (..., N) spectra at the midpoint to length L*N."""
    n = symbols.shape[-1]
    if oversample == 1:
        return symbols
    half = n // 2
    out = np.zeros(symbols.shape[:-1] + (oversample * n,), dtype=np.complex128)
    out[..., :half] = symbols[..., :half]
    out[..., oversample * n - (n - half):] = symbols[..., half:]
    return out


def time_samples(symbols, oversample: int = 1) -> np.ndarray:
    """Synthesize (..., L*N) time samples from (..., N) spectra.

    Array-level core of :func:`synthesize`; batches transform in one call.
    """
    arr = np.asarray(symbols, dtype=np.complex128)
    n = arr.shape[-1]
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    if not is_power_of_two(oversample * n):
        raise ValueError(f"L*N = {oversample * n} is not a power of two")
    return inverse_dft(pad_spectrum(arr, oversample))


def _tree_sum(values: np.ndarray) -> np.ndarray:
    """Even/odd pairwise sum over the last (power-of-two) axis."""
    while values.shape[-1] > 1:
        values = values[..., 0::2] + values[..., 1::2]
    return values[..., 0]


def papr_linear(samples: np.ndarray) -> np.ndarray:
    """Peak power over mean power along the last axis; batch friendly."""
    p = samples.real ** 2 + samples.imag ** 2
    mean = _tree_sum(p) / p.shape[-1]
    return p.max(axis=-1) / mean


def synthesize(freq: FrequencyFrame, oversample: int) -> TimeFrame:
    """Synthesize the oversampled time-domain frame of one frequency frame."""
    return TimeFrame(time_samples(freq.symbols, oversample), oversample)


def papr(frame: TimeFrame) -> PaprSample:
    """PAPR of a time frame: max_n |x_n|^2 / mean_n |x_n|^2."""
    return PaprSample.from_linear(papr_linear(frame.samples))
