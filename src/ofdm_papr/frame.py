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

:func:`time_samples` and :func:`papr_linear` write every L*N-sized array
they produce into a :class:`Workspace`.  A run sizes one workspace for a
chunk of trials from its config and reuses it on every chunk, so no trial
allocates (and page-faults in) a fresh candidate block; a call without a
workspace allocates only the arrays it uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False, slots=True)
class Workspace:
    """Buffers that synthesize and score a block of (..., L*N) frames.

    ``padded`` and ``samples`` are :func:`time_samples`' zero-padded
    spectra and time samples; only the two occupied ends of ``padded`` are
    ever written, so its middle band stays zero.  ``power`` and ``scratch``
    are :func:`papr_linear`'s |x|^2 and its second summand; ``halves`` are
    the levels of the pairwise power sum, packed into ``scratch`` once the
    summand is spent.  ``spectra``, when present, holds the (..., N)
    candidate spectra that a search core builds before synthesis.
    """

    padded: np.ndarray
    samples: np.ndarray
    power: np.ndarray
    scratch: np.ndarray
    spectra: np.ndarray | None = None
    halves: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self) -> None:
        # Levels (..., P/2), (..., P/4), ..., (..., 1) one after another,
        # each contiguous: numpy then sums a level in one strided pass, not
        # in one pass per row.
        lead, p, flat = self.scratch.shape[:-1], self.scratch.shape[-1], self.scratch.reshape(-1)
        rows, halves, start = flat.size // p, [], 0
        while p > 1:
            p //= 2
            halves.append(flat[start:start + rows * p].reshape(lead + (p,)))
            start += rows * p
        object.__setattr__(self, "halves", tuple(halves))

    @classmethod
    def sized(cls, shape: tuple[int, ...], n: int | None = None) -> "Workspace":
        """Buffers for frames of ``shape`` = (..., L*N) samples, and spectra of ``n`` if given."""
        spectra = None if n is None else np.empty(shape[:-1] + (n,), dtype=np.complex128)
        return cls(np.zeros(shape, dtype=np.complex128), np.empty(shape, dtype=np.complex128),
                   np.empty(shape), np.empty(shape), spectra)


def pad_spectrum(symbols: np.ndarray, oversample: int, out: np.ndarray | None) -> np.ndarray:
    """Zero-pad (..., N) spectra at the midpoint to length L*N, into ``out``.

    ``out`` is a (..., L*N) buffer whose middle band is zero; only its two
    ends are written.  At L=1 the spectra are returned as they are and
    ``out`` is not used.
    """
    n = symbols.shape[-1]
    if oversample == 1:
        return symbols
    half = n // 2
    out[..., :half] = symbols[..., :half]
    out[..., oversample * n - (n - half):] = symbols[..., half:]
    return out


def time_samples(symbols, oversample: int = 1, workspace: Workspace | None = None) -> np.ndarray:
    """Synthesize (..., L*N) time samples from (..., N) spectra.

    Array-level core of :func:`synthesize`; batches transform in one call.
    Writes into ``workspace`` and returns its ``samples``; without one, it
    allocates the padded spectra (L > 1) and the samples.
    """
    arr = np.asarray(symbols, dtype=np.complex128)
    n = arr.shape[-1]
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    if not is_power_of_two(oversample * n):
        raise ValueError(f"L*N = {oversample * n} is not a power of two")
    if workspace is None:
        padded = (np.zeros(arr.shape[:-1] + (oversample * n,), dtype=np.complex128)
                  if oversample > 1 else None)
        return inverse_dft(pad_spectrum(arr, oversample, padded))
    return inverse_dft(pad_spectrum(arr, oversample, workspace.padded), out=workspace.samples)


def _tree_sum(values: np.ndarray, halves: tuple[np.ndarray, ...] | None) -> np.ndarray:
    """Even/odd pairwise sum over the last (power-of-two) axis, level by level into halves.

    Without halves, each level is a fresh array: the same sums, bit for bit.
    """
    for level in halves or [None] * (values.shape[-1].bit_length() - 1):
        values = np.add(values[..., 0::2], values[..., 1::2], out=level)
    return values[..., 0]


def papr_linear(samples: np.ndarray, workspace: Workspace | None = None) -> np.ndarray:
    """Peak power over mean power along the last axis; batch friendly.

    The |x|^2 and pairwise-sum buffers are ``workspace``'s; without one,
    they are allocated.
    """
    power, scratch, halves = ((None, None, None) if workspace is None else
                              (workspace.power, workspace.scratch, workspace.halves))
    p = np.square(samples.real, out=power)
    np.add(p, np.square(samples.imag, out=scratch), out=p)
    peak = p.max(axis=-1)
    return peak / (_tree_sum(p, halves) / p.shape[-1])


_TIE_RTOL = 1e-12


def pick_min(scores: np.ndarray) -> np.ndarray:
    """Lowest index along the last axis within a relative 1e-12 window of its minimum.

    Candidates that tie in exact arithmetic then resolve the same way
    despite rounding noise.  SLM and PTS both select with it, one trial
    per row of (..., C) scores.
    """
    return (scores <= scores.min(axis=-1, keepdims=True) * (1.0 + _TIE_RTOL)).argmax(axis=-1)


def synthesize(freq: FrequencyFrame, oversample: int) -> TimeFrame:
    """Synthesize the oversampled time-domain frame of one frequency frame."""
    return TimeFrame(time_samples(freq.symbols, oversample), oversample)


def papr(frame: TimeFrame) -> PaprSample:
    """PAPR of a time frame: max_n |x_n|^2 / mean_n |x_n|^2."""
    if not is_power_of_two(frame.samples.size):
        raise ValueError(f"PAPR needs a power-of-two sample count, got {frame.samples.size}")
    return PaprSample.from_linear(papr_linear(frame.samples))
