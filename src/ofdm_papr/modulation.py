"""Bit-to-constellation mapping and random frequency-domain frame generation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# Gray-ordered QPSK: adjacent bit pairs map to neighbouring 90-degree points.
# Indexed by the natural binary value of the bit group.  No part is -0.0 (as
# in -1.0j), so the identity rotation 1+0j leaves every symbol bit for bit.
_BPSK_TABLE = np.array([1.0 + 0.0j, -1.0 + 0.0j])
_QPSK_TABLE = np.array([1.0 + 0.0j, 0.0 + 1.0j, 0.0 - 1.0j, -1.0 + 0.0j])  # 00,01,10,11


class ModulationScheme(Enum):
    """Supported constellations; every point has unit magnitude."""

    BPSK = "bpsk"
    QPSK = "qpsk"

    @property
    def bits_per_symbol(self) -> int:
        return 1 if self is ModulationScheme.BPSK else 2

    @property
    def symbol_table(self) -> np.ndarray:
        """Constellation points indexed by the binary value of a bit group."""
        return _BPSK_TABLE if self is ModulationScheme.BPSK else _QPSK_TABLE


def read_only_field(obj, name: str, dtype) -> np.ndarray:
    """Replace field `name` of a frozen dataclass with a read-only 1-D copy; return it.

    The copy adds 0, which turns -0.0 parts into +0.0, so the identity
    rotation and weighting leave every copied symbol bit for bit.
    """
    arr = np.asarray(getattr(obj, name), dtype=dtype) + 0
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


def check_signal(arr: np.ndarray, name: str) -> None:
    """Reject a frame with a non-finite value, or empty or all zero (its PAPR is undefined)."""
    if not np.isfinite(arr.view(np.float64)).all():
        raise ValueError(f"{name} contain non-finite values")
    if not arr.any():
        raise ValueError("empty or all-zero frame has undefined PAPR")


def check_work(n: int, oversample: int, candidates: int = 1) -> None:
    """Reject a frame of L*N samples, or a block of C such frames, too large to search.

    The limits: N >= 1, L >= 1, L*N at most 2**20, and C*L*N at most 2**24
    complex samples (256 MiB), the candidate block of one trial.  Every
    input size rule lives here: any N and L within them runs.  The public
    shells and the experiment config call it before they allocate.
    """
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    samples = oversample * n
    if samples > 2 ** 20:
        raise ValueError(f"L*N = {samples} exceeds 2**20")
    if candidates * samples > 2 ** 24:
        raise ValueError(f"{candidates} candidates of L*N = {samples} samples exceed 2**24")


@dataclass(frozen=True, eq=False, slots=True)
class FrequencyFrame:
    """One OFDM symbol in the frequency domain: N complex subcarrier symbols.

    Immutable; `symbols` is a read-only complex128 array, non-empty, finite
    and not all zero.
    """

    symbols: np.ndarray

    def __post_init__(self) -> None:
        check_signal(read_only_field(self, "symbols", np.complex128), "symbols")

    @property
    def n_subcarriers(self) -> int:
        return self.symbols.size


def map_bits(bits, scheme: ModulationScheme) -> np.ndarray:
    """Map a bit sequence onto constellation symbols.

    BPSK: 0 -> +1, 1 -> -1.  QPSK (Gray): 00 -> +1, 01 -> +j, 11 -> -1,
    10 -> -j.  The bit count must divide evenly into symbols.
    """
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("bits must contain only 0 and 1")
    k = scheme.bits_per_symbol
    if arr.size % k != 0:
        raise ValueError(f"bit count {arr.size} not divisible by {k}")
    groups = arr.astype(np.intp).reshape(-1, k)
    values = groups[:, 0] if k == 1 else (groups[:, 0] << 1) | groups[:, 1]
    return scheme.symbol_table[values]


def random_frame(n: int, scheme: ModulationScheme, rng: np.random.Generator) -> FrequencyFrame:
    """Draw n i.i.d. uniform constellation symbols from the given stream.

    Deterministic for a given generator state; the frame rejects n = 0.
    """
    check_work(max(n, 1), 1)
    table = scheme.symbol_table
    return FrequencyFrame(table[rng.integers(0, table.size, n)])
