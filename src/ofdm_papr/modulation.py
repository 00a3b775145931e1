"""Bit-to-constellation mapping and random frequency-domain frame generation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dft import is_power_of_two

# Gray-ordered QPSK: adjacent bit pairs map to neighbouring 90-degree points.
# Indexed by the natural binary value of the bit group.
_BPSK_TABLE = np.array([1.0 + 0.0j, -1.0 + 0.0j])
_QPSK_TABLE = np.array([1.0 + 0.0j, 1.0j, -1.0j, -1.0 + 0.0j])  # 00,01,10,11


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


@dataclass(frozen=True, eq=False, slots=True)
class FrequencyFrame:
    """One OFDM symbol in the frequency domain: N complex subcarrier symbols.

    Immutable; `symbols` is a read-only complex128 array of power-of-two
    length.
    """

    symbols: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.symbols, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("symbols must be one-dimensional")
        if not is_power_of_two(arr.size):
            raise ValueError(f"frame length {arr.size} is not a power of two")
        if not np.isfinite(arr.view(np.float64)).all():
            raise ValueError("symbols contain non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "symbols", arr)

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


def draw_symbols(n: int, scheme: ModulationScheme, rng: np.random.Generator,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Array core of :func:`random_frame`: n i.i.d. uniform constellation symbols.

    Written into ``out`` (an (n,) complex128 array) when given.
    """
    table = scheme.symbol_table
    # The drawn indices are in range, so "clip" changes nothing; it spares
    # the copy of ``out`` that the default "raise" mode makes.
    return table.take(rng.integers(0, table.size, n), out=out, mode="clip")


def random_frame(n: int, scheme: ModulationScheme, rng: np.random.Generator) -> FrequencyFrame:
    """Draw n i.i.d. uniform constellation symbols from the given stream.

    Deterministic for a given generator state; n must be a power of two.
    """
    if not is_power_of_two(n):
        raise ValueError(f"n={n} is not a power of two")
    return FrequencyFrame(draw_symbols(n, scheme, rng))
