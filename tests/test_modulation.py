"""Constellation mapping and random frame generation."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from ofdm_papr import (
    FrequencyFrame,
    ModulationScheme,
    PartitionScheme,
    PhaseSequence,
    PhaseVector,
    SubBlockPartition,
    TimeFrame,
    map_bits,
    random_frame,
)

BPSK = ModulationScheme.BPSK
QPSK = ModulationScheme.QPSK


def test_bpsk_map():
    assert_array_equal(map_bits([0, 1], BPSK), [1, -1])


def test_qpsk_gray_map():
    assert_array_equal(map_bits([0, 0, 1, 1], QPSK), [1, -1])
    assert_array_equal(map_bits([0, 1, 1, 0], QPSK), [1j, -1j])


def test_unit_energy_everywhere():
    for scheme in (BPSK, QPSK):
        assert np.all(np.abs(scheme.symbol_table) == 1.0)


def test_bit_pattern_map_is_injective():
    bpsk = {map_bits([b], BPSK)[0] for b in (0, 1)}
    qpsk = {map_bits([b0, b1], QPSK)[0] for b0 in (0, 1) for b1 in (0, 1)}
    assert len(bpsk) == 2
    assert len(qpsk) == 4
    assert qpsk == {1, -1, 1j, -1j}


def test_gray_neighbours_differ_by_quarter_turn():
    ring = [(0, 0), (0, 1), (1, 1), (1, 0)]
    symbols = [map_bits(list(bits), QPSK)[0] for bits in ring]
    for a, b in zip(symbols, symbols[1:] + symbols[:1]):
        assert b / a in (1j, -1j)


def test_bit_count_must_divide():
    with pytest.raises(ValueError, match="divisible"):
        map_bits([0, 1, 0], QPSK)


def test_non_bit_values_rejected():
    with pytest.raises(ValueError, match="0 and 1"):
        map_bits([0, 2], BPSK)


def test_random_frame_deterministic():
    a = random_frame(64, QPSK, np.random.default_rng(7))
    b = random_frame(64, QPSK, np.random.default_rng(7))
    assert_array_equal(a.symbols, b.symbols)


def test_random_frame_alphabet():
    frame = random_frame(64, QPSK, np.random.default_rng(3))
    assert all(s in (1, -1, 1j, -1j) for s in frame.symbols)
    assert frame.n_subcarriers == 64


def test_random_frame_uniformity():
    # 2^17 symbols; each point within 0.25 +/- 0.01 (binomial bound)
    frame = random_frame(1 << 17, QPSK, np.random.default_rng(11))
    for point in (1, -1, 1j, -1j):
        freq = np.mean(frame.symbols == point)
        assert abs(freq - 0.25) < 0.01


def test_random_frame_takes_any_length_but_zero():
    assert random_frame(48, QPSK, np.random.default_rng(0)).n_subcarriers == 48
    with pytest.raises(ValueError, match="empty or all-zero frame has undefined PAPR"):
        random_frame(0, QPSK, np.random.default_rng(0))


def test_frequency_frame_validation():
    with pytest.raises(ValueError, match="empty or all-zero frame has undefined PAPR"):
        FrequencyFrame([])
    with pytest.raises(ValueError, match="finite"):
        FrequencyFrame([1, np.nan, 1, 1])
    with pytest.raises(ValueError, match="undefined PAPR"):
        FrequencyFrame(np.zeros(8))


# (wrapper class, its array field, a valid 1-D value, the other arguments)
ARRAY_WRAPPERS = [
    (FrequencyFrame, "symbols", [1, -1, 1j, -1j], ()),
    (TimeFrame, "samples", [1, -1, 1j, -1j], (1,)),
    (PhaseSequence, "rotations", [1, -1, 1j, -1j], (1,)),
    (SubBlockPartition, "block_of", [0, 1, 0, 1], (2, PartitionScheme.INTERLEAVED)),
    (PhaseVector, "factors", [1, -1, 1j, -1j], (0,)),
]


@pytest.mark.parametrize("cls, field, value, rest", ARRAY_WRAPPERS,
                         ids=[w[0].__name__ for w in ARRAY_WRAPPERS])
def test_array_wrappers_hold_a_read_only_copy(cls, field, value, rest):
    with pytest.raises(ValueError, match=f"{field} must be one-dimensional"):
        cls(np.reshape(value, (2, 2)), *rest)
    given = np.array(value)
    obj = cls(given, *rest)
    stored = getattr(obj, field)
    assert not stored.flags.writeable
    with pytest.raises(ValueError):
        stored[0] = stored[1]
    given[0] = given[1]
    assert_array_equal(stored, value)
    with pytest.raises(AttributeError):
        setattr(obj, field, given)
