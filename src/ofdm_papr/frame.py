"""Time-domain OFDM frame synthesis and the peak-to-average power ratio metric.

Synthesis is one unitary inverse FFT (numpy's, ``norm="ortho"``) of the
spectrum, oversampled by mid-spectrum zero padding (trigonometric
interpolation): the N-point spectrum is split after its first floor(N/2)
bins, its midpoint at even N, and (L-1)*N zeros are inserted between the
two parts before the transform.  No renormalisation is applied afterwards;
the PAPR is a ratio and does not depend on the overall scale.

A run scores its candidates by the peak alone.  Every frame on the run
path has energy exactly N: the BPSK/QPSK symbols, SLM rotations and PTS
factors have unit magnitude and the transform is unitary, so by Parseval
the mean power is 1/L and the PAPR is L*max|x|^2.  Every peak, mean and
pick is scored through one power kernel, :func:`spend_power`, which
spends its block for a fresh C-order (..., P) power array.  The public
:func:`papr` keeps the time-domain mean, since a
:class:`~ofdm_papr.modulation.FrequencyFrame` may hold any finite symbols.
Its mean is numpy's row mean over the C-order power array, so a frame
scored inside a batch (``SlmResult.all_paprs``) yields exactly the value
it yields alone, whatever the batch's layout; a property pins this, as one
does for the transform.

The cores trust their input: :func:`~ofdm_papr.modulation.check_work`
bounds the size of what a call may allocate, and every public function
that allocates a frame, a draw or a candidate block, and the experiment
config, calls it first.  :func:`synthesize` is the validated entry to the
transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modulation import FrequencyFrame, check_signal, check_work, read_only_field


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
        arr = read_only_field(self, "samples", np.complex128)
        if self.oversample < 1:
            raise ValueError("oversample must be >= 1")
        if arr.size % self.oversample != 0:
            raise ValueError(f"sample count {arr.size} is not a multiple of L={self.oversample}")
        check_signal(arr, "samples")

    @property
    def n_subcarriers(self) -> int:
        return self.samples.size // self.oversample


def pad_spectrum(symbols: np.ndarray, oversample: int, out: np.ndarray) -> np.ndarray:
    """Write (..., N) spectra into (..., L*N) `out`, zero-padded at the midpoint; return it."""
    n = symbols.shape[-1]
    half = n // 2
    tail = oversample * n - (n - half)
    out[..., :half] = symbols[..., :half]
    out[..., half:tail] = 0
    out[..., tail:] = symbols[..., half:]
    return out


def time_samples(symbols: np.ndarray, oversample: int = 1, out: np.ndarray | None = None
                 ) -> np.ndarray:
    """Synthesize (..., L*N) time samples from (..., N) complex spectra.

    x_n = (1/sqrt(P)) sum_k X_k e^{+j2pi nk/P} over the P = L*N padded bins.
    Array-level core of :func:`synthesize`; batches transform in one call,
    each row bitwise equal to that row alone.  The spectra are padded into
    `out`, a fresh array when none is given, and transformed in place, so
    a caller that passes its own block allocates nothing of its size.  No
    size or finiteness check: :func:`synthesize` is the validated entry.
    """
    if out is None:
        out = np.empty(symbols.shape[:-1] + (oversample * symbols.shape[-1],),
                       dtype=np.complex128)
    return np.fft.ifft(pad_spectrum(symbols, oversample, out), norm="ortho", out=out)


def spend_power(block: np.ndarray) -> np.ndarray:
    """|x|^2 of every sample of a (..., P) complex128 block, spending the block.

    Squares the block's float64 view in place and adds the odd (imaginary)
    lanes to the even ones, so each value is re^2 + im^2 rounded as
    ``np.square(x.real) + np.square(x.imag)`` rounds it.  Returns a fresh
    C-order (..., P) float64 array: numpy sums each of its rows as one
    contiguous run, bitwise as it sums that row alone.  The block's last
    axis must be contiguous; afterwards it holds no candidate.
    """
    lanes = block.view(np.float64)
    np.square(lanes, out=lanes)
    return np.add(lanes[..., 0::2], lanes[..., 1::2], order="C")


def papr_linear(samples: np.ndarray) -> np.ndarray:
    """Peak power over mean power along the last axis; batch friendly.

    Scores a C-order complex128 copy, so any input layout or dtype gives
    the bytes of that copy.
    """
    power = spend_power(np.array(samples, dtype=np.complex128, order="C"))
    return power.max(axis=-1) / power.mean(axis=-1)


_TIE_RTOL = 1e-12


def pick_min(scores: np.ndarray) -> np.ndarray:
    """Lowest index along the last axis within a relative 1e-12 window of its minimum.

    Candidates that tie in exact arithmetic then resolve the same way
    despite rounding noise.  SLM and PTS both select with it, one trial
    per row of (..., C) scores.
    """
    return (scores <= scores.min(axis=-1, keepdims=True) * (1.0 + _TIE_RTOL)).argmax(axis=-1)


def is_unit_magnitude(values: np.ndarray) -> bool:
    """Every |value| within 1e-14 of 1; NaN and inf fail.

    Tight enough that a rotated candidate's energy, and so its mean power,
    differs from the frame's far inside the 1e-12 tie window: the lowest
    peak power is then the lowest PAPR.  At 1e-12 a candidate could win by
    its peak and report a PAPR above the unmodified frame's.
    """
    return bool((np.abs(np.abs(values) - 1.0) <= 1e-14).all())


def synthesize(freq: FrequencyFrame, oversample: int) -> TimeFrame:
    """Synthesize the oversampled time-domain frame of one frequency frame."""
    check_work(freq.n_subcarriers, oversample)
    return TimeFrame(time_samples(freq.symbols, oversample), oversample)


def papr(frame: TimeFrame) -> PaprSample:
    """PAPR of a time frame: max_n |x_n|^2 / mean_n |x_n|^2."""
    return PaprSample.from_linear(papr_linear(frame.samples))
