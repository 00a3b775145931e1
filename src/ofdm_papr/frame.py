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

:func:`time_samples` and :func:`papr_linear` allocate the arrays of each
call: the zero-padded spectra (L > 1), the time samples, |x|^2 and the
levels of the pairwise sum.  :func:`check_work` bounds the size of what a
call may allocate; :func:`time_samples` (so :func:`synthesize`), the SLM
and PTS public functions and the experiment config call it first.
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


def check_work(n: int, oversample: int, candidates: int = 1) -> None:
    """Reject a frame of L*N samples, or a block of C such frames, too large to search.

    The limits: L*N a power of two at most 2**20, and C*L*N at most 2**24
    complex samples (256 MiB), the candidate block of one trial.
    """
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    samples = oversample * n
    if not is_power_of_two(samples):
        raise ValueError(f"L*N = {samples} is not a power of two")
    if samples > 2 ** 20:
        raise ValueError(f"L*N = {samples} exceeds 2**20")
    if candidates * samples > 2 ** 24:
        raise ValueError(f"{candidates} candidates of L*N = {samples} samples exceed 2**24")


def pad_spectrum(symbols: np.ndarray, oversample: int) -> np.ndarray:
    """Zero-pad (..., N) spectra at the midpoint to length L*N.

    At L=1 the spectra are returned as they are.
    """
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
    check_work(arr.shape[-1], oversample)
    return inverse_dft(pad_spectrum(arr, oversample))


def _tree_sum(values: np.ndarray) -> np.ndarray:
    """Even/odd pairwise sum over the last (power-of-two) axis, one fresh array per level."""
    while values.shape[-1] > 1:
        values = values[..., 0::2] + values[..., 1::2]
    return values[..., 0]


def papr_linear(samples: np.ndarray) -> np.ndarray:
    """Peak power over mean power along the last axis; batch friendly."""
    p = np.square(samples.real)
    p += np.square(samples.imag)
    peak = p.max(axis=-1)
    return peak / (_tree_sum(p) / p.shape[-1])


_TIE_RTOL = 1e-12


def pick_min(scores: np.ndarray) -> np.ndarray:
    """Lowest index along the last axis within a relative 1e-12 window of its minimum.

    Candidates that tie in exact arithmetic then resolve the same way
    despite rounding noise.  SLM and PTS both select with it, one trial
    per row of (..., C) scores.
    """
    return (scores <= scores.min(axis=-1, keepdims=True) * (1.0 + _TIE_RTOL)).argmax(axis=-1)


def is_unit_magnitude(values: np.ndarray) -> bool:
    """Every |value| within 1e-12 of 1; NaN and inf fail."""
    return bool((np.abs(np.abs(values) - 1.0) <= 1e-12).all())


def synthesize(freq: FrequencyFrame, oversample: int) -> TimeFrame:
    """Synthesize the oversampled time-domain frame of one frequency frame.

    :func:`time_samples` bounds L*N by :func:`check_work` before it allocates.
    """
    return TimeFrame(time_samples(freq.symbols, oversample), oversample)


def papr(frame: TimeFrame) -> PaprSample:
    """PAPR of a time frame: max_n |x_n|^2 / mean_n |x_n|^2."""
    if not is_power_of_two(frame.samples.size):
        raise ValueError(f"PAPR needs a power-of-two sample count, got {frame.samples.size}")
    return PaprSample.from_linear(papr_linear(frame.samples))
