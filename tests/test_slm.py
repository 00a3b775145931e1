"""Selected mapping: candidate generation, selection, and its guarantees."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from ofdm_papr import (
    FrequencyFrame,
    ModulationScheme,
    PhaseSequence,
    generate_phase_sequences,
    papr,
    random_frame,
    slm_reduce,
    synthesize,
)

QPSK = ModulationScheme.QPSK


def scan_oracle(freq, sequences, oversample):
    """Synthesize each candidate one by one and scan for the minimum."""
    best_index, best = None, None
    paprs = []
    for i, seq in enumerate(sequences):
        candidate = synthesize(FrequencyFrame(freq.symbols * seq.rotations), oversample)
        value = papr(candidate).linear
        paprs.append(value)
        if best is None or value < best:
            best_index, best = i, value
    return best_index, best, paprs


def test_single_sequence_is_identity():
    seqs = generate_phase_sequences(1, 8, np.random.default_rng(0))
    assert len(seqs) == 1
    assert_array_equal(seqs[0].rotations, np.ones(8))
    assert seqs[0].index == 0


def test_sequences_use_four_ary_alphabet():
    seqs = generate_phase_sequences(4, 64, np.random.default_rng(1))
    assert len(seqs) == 4
    for seq in seqs[1:]:
        assert all(r in (1, -1, 1j, -1j) for r in seq.rotations)


def test_sequences_deterministic():
    a = generate_phase_sequences(4, 16, np.random.default_rng(5))
    b = generate_phase_sequences(4, 16, np.random.default_rng(5))
    for x, y in zip(a, b):
        assert_array_equal(x.rotations, y.rotations)


def test_sequence_count_must_be_positive():
    with pytest.raises(ValueError, match=">= 1"):
        generate_phase_sequences(0, 8, np.random.default_rng(0))
    with pytest.raises(ValueError, match=">= 1"):
        generate_phase_sequences(4, 0, np.random.default_rng(0))


def test_phase_sequence_validation():
    with pytest.raises(ValueError, match="unit magnitude"):
        PhaseSequence([1, 0.5], 1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="unit magnitude"):
            PhaseSequence([1, bad], 1)
    with pytest.raises(ValueError, match="identity"):
        PhaseSequence([1, -1], 0)
    # Off unit magnitude by 1e-12, a rotation could win by its peak power
    # with a PAPR above the unmodified frame's; computed phases still pass.
    with pytest.raises(ValueError, match="unit magnitude"):
        PhaseSequence([1, 1 - 1e-12], 1)
    PhaseSequence(np.exp(1j * np.linspace(0.0, 6.0, 64)), 1)


def test_identity_only_returns_original_frame():
    freq = random_frame(16, QPSK, np.random.default_rng(2))
    seqs = generate_phase_sequences(1, 16, np.random.default_rng(3))
    result = slm_reduce(freq, seqs, 2)
    original = synthesize(freq, 2)
    assert result.selected_index == 0
    assert_array_equal(result.frame.samples, original.samples)
    assert result.papr.linear == papr(original).linear
    # A -0.0 part must not survive into row 0 as a sign bit the identity flips.
    freq = FrequencyFrame([complex(-0.0, -1.0), 1, 1j, -1])
    identity = generate_phase_sequences(1, 4, np.random.default_rng(0))
    for oversample in (1, 2):
        result = slm_reduce(freq, identity, oversample)
        assert result.frame.samples.tobytes() == synthesize(freq, oversample).samples.tobytes()


def test_never_worse_than_original():
    rng = np.random.default_rng(4)
    for _ in range(200):
        freq = random_frame(64, QPSK, rng)
        seqs = generate_phase_sequences(4, 64, rng)
        result = slm_reduce(freq, seqs, 1)
        assert result.papr.linear <= papr(synthesize(freq, 1)).linear


def test_never_worse_at_the_edge_of_unit_magnitude():
    # Shrink the rotations least where the subcarriers build the peak: the
    # candidate's peak falls less than its energy, the most a rotation
    # within the unit-magnitude tolerance can do against the frame.
    rng = np.random.default_rng(5)
    for _ in range(200):
        freq = random_frame(16, QPSK, rng)
        samples = synthesize(freq, 1).samples
        k = np.argmax(np.abs(samples))
        share = np.real(freq.symbols * np.exp(2j * np.pi * k * np.arange(16) / 16)
                        * np.conj(samples[k]))
        shrink = np.where(share > np.median(share), 0.6e-14, 1e-14)
        sequences = [PhaseSequence(np.ones(16), 0), PhaseSequence(1 - shrink, 1)]
        result = slm_reduce(freq, sequences, 1)
        assert result.papr.linear <= papr(synthesize(freq, 1)).linear


def test_matches_candidate_scan_oracle():
    freq = random_frame(8, QPSK, np.random.default_rng(6))
    seqs = generate_phase_sequences(4, 8, np.random.default_rng(7))
    result = slm_reduce(freq, seqs, 1)
    index, best, paprs = scan_oracle(freq, seqs, 1)
    assert result.selected_index == index
    assert result.papr.linear == best
    assert [p.linear for p in result.all_paprs] == paprs


def test_result_is_the_minimum_with_lowest_index():
    freq = random_frame(32, QPSK, np.random.default_rng(8))
    seqs = generate_phase_sequences(8, 32, np.random.default_rng(9))
    result = slm_reduce(freq, seqs, 2)
    values = np.array([p.linear for p in result.all_paprs])
    assert result.papr.linear == values.min()
    assert result.selected_index == int(np.argmin(values))
    assert len(result.all_paprs) == 8


def test_monotone_in_candidate_count():
    rng = np.random.default_rng(10)
    for _ in range(50):
        freq = random_frame(32, QPSK, rng)
        seqs = generate_phase_sequences(8, 32, rng)
        last = np.inf
        for m in (1, 2, 4, 8):
            value = slm_reduce(freq, seqs[:m], 1).papr.linear
            assert value <= last
            last = value


def test_deterministic():
    freq = random_frame(16, QPSK, np.random.default_rng(11))
    seqs = generate_phase_sequences(4, 16, np.random.default_rng(12))
    a = slm_reduce(freq, seqs, 4)
    b = slm_reduce(freq, seqs, 4)
    assert a.selected_index == b.selected_index
    assert_array_equal(a.frame.samples, b.frame.samples)


def test_length_mismatch_rejected():
    freq = random_frame(16, QPSK, np.random.default_rng(13))
    seqs = generate_phase_sequences(2, 8, np.random.default_rng(14))
    with pytest.raises(ValueError, match="length"):
        slm_reduce(freq, seqs, 1)
    with pytest.raises(ValueError, match="at least one"):
        slm_reduce(freq, [], 1)


def test_identity_must_come_first():
    # selected_index is the list position, and the never-worse promise
    # rests on the identity at position 0.
    freq = random_frame(16, QPSK, np.random.default_rng(15))
    seqs = generate_phase_sequences(4, 16, np.random.default_rng(16))
    for bad in (seqs[1:], seqs[::-1], [seqs[0], seqs[2]]):
        with pytest.raises(ValueError, match="index"):
            slm_reduce(freq, bad, 2)
