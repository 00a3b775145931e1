"""Frame synthesis (with oversampling) and the PAPR metric."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ofdm_papr import (
    FrequencyFrame,
    ModulationScheme,
    TimeFrame,
    papr,
    random_frame,
    synthesize,
)


def trig_interpolation_oracle(symbols, oversample):
    """Direct trigonometric sum at the oversampled instants.

    Subcarrier k runs at k cycles per frame for k < N/2 and at k - N cycles
    (the aliased negative frequency) for k >= N/2, which is the unique
    minimal-bandwidth interpolant of the Nyquist-rate samples.
    """
    symbols = np.asarray(symbols, dtype=complex)
    n = symbols.size
    total = oversample * n
    t = np.arange(total) / total
    out = np.zeros(total, dtype=complex)
    for k in range(n):
        cycles = k if k < n // 2 else k - n
        out += symbols[k] * np.exp(2j * np.pi * cycles * t)
    return out / np.sqrt(n)


def test_reduces_to_plain_transform_at_l1():
    frame = synthesize(FrequencyFrame([1, 1, 1, 1]), 1)
    assert_allclose(frame.samples, [2, 0, 0, 0], atol=1e-15)
    assert frame.oversample == 1
    assert frame.n_subcarriers == 4


@pytest.mark.parametrize("tone", [0, 1, 2, 3])
def test_single_tone_stays_constant_envelope_when_oversampled(tone):
    symbols = np.zeros(4, dtype=complex)
    symbols[tone] = 1.0
    frame = synthesize(FrequencyFrame(symbols), 2)
    mags = np.abs(frame.samples)
    assert frame.samples.size == 8
    assert_allclose(mags, mags[0], rtol=1e-12)


def test_matches_direct_trigonometric_sum():
    rng = np.random.default_rng(2024)
    freq = random_frame(64, ModulationScheme.QPSK, rng)
    frame = synthesize(freq, 8)
    oracle = trig_interpolation_oracle(freq.symbols, 8)
    # unitary transform of the padded spectrum scales by 1/sqrt(L)
    assert np.abs(frame.samples * np.sqrt(8) - oracle).max() < 1e-9


def test_nyquist_instants_survive_oversampling():
    rng = np.random.default_rng(77)
    freq = random_frame(32, ModulationScheme.QPSK, rng)
    coarse = synthesize(freq, 1).samples
    fine = synthesize(freq, 4).samples
    assert np.abs(fine[::4] * 2 - coarse).max() < 1e-12


def test_papr_of_constant_envelope_is_exactly_one():
    frame = TimeFrame(np.full(16, 0.3 - 0.4j), 1)
    sample = papr(frame)
    assert sample.linear == 1.0
    assert sample.db == 0.0


def test_papr_of_impulse():
    sample = papr(TimeFrame([2, 0, 0, 0], 1))
    assert sample.linear == 4.0
    assert abs(sample.db - 6.0206) < 1e-4


def test_worst_case_all_ones_frame():
    sample = papr(synthesize(FrequencyFrame(np.ones(64)), 1))
    assert abs(sample.linear - 64.0) < 1e-9
    assert abs(sample.db - 18.062) < 1e-3


def test_scale_invariance():
    rng = np.random.default_rng(8)
    freq = random_frame(64, ModulationScheme.QPSK, rng)
    base = synthesize(freq, 2)
    reference = papr(base).linear
    for c in (1j, -1.0, -1j):  # alphabet factors: exact sign/swap arithmetic
        assert papr(TimeFrame(c * base.samples, 2)).linear == reference
    for c in (0.125, 3.7 - 1.2j, 1e6j):
        scaled = papr(TimeFrame(c * base.samples, 2)).linear
        assert np.isclose(scaled, reference, rtol=1e-12)


def test_global_phase_invariance_of_spectrum():
    rng = np.random.default_rng(21)
    freq = random_frame(32, ModulationScheme.QPSK, rng)
    rotated = FrequencyFrame(1j * freq.symbols)
    assert papr(synthesize(rotated, 4)).linear == papr(synthesize(freq, 4)).linear


def test_oversampling_reveals_higher_peaks():
    # papr(L=8) >= papr(L=1); equality (up to rounding) when the fine-grid
    # peak happens to land on a Nyquist instant, hence the 1e-12 slack.
    rng = np.random.default_rng(314159)
    for _ in range(1000):
        freq = random_frame(64, ModulationScheme.QPSK, rng)
        fine = papr(synthesize(freq, 8)).linear
        coarse = papr(synthesize(freq, 1)).linear
        assert fine >= coarse * (1 - 1e-12)


def test_worst_case_bound_over_random_frames():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        freq = random_frame(64, ModulationScheme.QPSK, rng)
        assert papr(synthesize(freq, 1)).linear <= 64 * (1 + 1e-12)


def test_all_zero_frame_rejected():
    with pytest.raises(ValueError, match="undefined PAPR"):
        TimeFrame(np.zeros(8), 1)
    with pytest.raises(ValueError, match="undefined PAPR"):
        synthesize(FrequencyFrame(np.zeros(4)), 2)


def test_oversample_product_must_be_power_of_two():
    freq = FrequencyFrame([1, -1, 1j, -1j])
    with pytest.raises(ValueError, match="power of two"):
        synthesize(freq, 3)
    with pytest.raises(ValueError, match=">= 1"):
        synthesize(freq, 0)


def test_time_frame_sample_count_consistency():
    frame = synthesize(FrequencyFrame([1, -1, 1j, -1j]), 4)
    assert frame.samples.size == 16
    assert frame.n_subcarriers == 4
    with pytest.raises(ValueError, match="multiple"):
        TimeFrame([1, 0, 0], 2)


def test_papr_needs_a_power_of_two_sample_count():
    # The pairwise power sum halves the frame level by level.
    with pytest.raises(ValueError, match="power-of-two sample count"):
        papr(TimeFrame(np.arange(1, 7), 1))
