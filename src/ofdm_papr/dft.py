"""Unitary discrete Fourier transform pair: numpy's FFT behind boundary checks.

Both directions carry a 1/sqrt(P) factor (``norm="ortho"``), so Parseval
holds.  The inverse uses the e^{+j*2*pi*n*k/P} kernel; the forward uses the
conjugate kernel.  Inputs must have a power-of-two length and finite values;
a direct O(P^2) summation oracle pins the result in the tests.

Both functions transform the last axis of (..., P) arrays, so batches go
through one call.  Each row of a batch is bitwise equal to that row
transformed alone.  The synthesis core, ``frame.time_samples``, calls the
same numpy transform without these checks; the never-worse guarantees of
SLM and PTS rely on that row invariance.
"""

from __future__ import annotations

import numpy as np


def is_power_of_two(n: int) -> bool:
    """True when n is 1, 2, 4, 8, ..."""
    return n >= 1 and (n & (n - 1)) == 0


def _checked(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim < 1:
        raise ValueError(f"{name} must have at least one axis")
    p = arr.shape[-1]
    if not is_power_of_two(p):
        raise ValueError(f"{name} length {p} is not a power of two")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def inverse_dft(freq) -> np.ndarray:
    """Frequency-domain symbols to time samples, x_n = (1/sqrt(P)) sum_k X_k e^{+j2pi nk/P}.

    Args:
        freq: array-like of shape (..., P) with P a power of two.

    Returns:
        complex128 array of the same shape.
    """
    return np.fft.ifft(_checked(freq, "freq"), norm="ortho")


def forward_dft(time) -> np.ndarray:
    """Unitary inverse of :func:`inverse_dft`: forward_dft(inverse_dft(X)) == X."""
    return np.fft.fft(_checked(time, "time"), norm="ortho")
