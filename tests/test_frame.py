"""Frame synthesis (with oversampling), its transform and the PAPR metric.

Batch invariance of the transform is a hypothesis property in
``test_properties.py``.
"""

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
    time_samples,
)
from ofdm_papr.frame import pad_spectrum


def direct_synthesis(symbols, oversample=1):
    """Direct O(L*N^2) trigonometric sum at the L*N instants, over the last axis.

    Subcarrier k runs at k cycles per frame for k < N/2 and at k - N cycles
    (the aliased negative frequency) for k >= N/2, which is the unique
    minimal-bandwidth interpolant of the Nyquist-rate samples.  The scale
    1/sqrt(L*N) is the unitary transform's; at L=1 this is the inverse DFT
    sum, independent of the FFT factorisation.
    """
    symbols = np.asarray(symbols, dtype=complex)
    n = symbols.shape[-1]
    k = np.arange(n)
    cycles = np.where(k < n // 2, k, k - n)
    t = np.arange(oversample * n) / (oversample * n)
    return symbols @ np.exp(2j * np.pi * np.outer(cycles, t)) / np.sqrt(oversample * n)


def test_reduces_to_plain_transform_at_l1():
    # the all-ones spectrum gives an impulse
    frame = synthesize(FrequencyFrame([1, 1, 1, 1]), 1)
    assert_allclose(frame.samples, [2, 0, 0, 0], atol=1e-15)
    assert frame.oversample == 1
    assert frame.n_subcarriers == 4


def test_second_bin_gives_frozen_samples():
    symbols = np.array([0, 1, 0, 0], dtype=complex)
    expected = [0.5, 0.5j, -0.5, -0.5j]
    assert_allclose(direct_synthesis(symbols), expected, atol=1e-15)
    assert_allclose(time_samples(symbols), expected, atol=1e-15)


def test_length_one_is_identity():
    assert_allclose(time_samples(np.array([3 + 4j])), [3 + 4j])


@pytest.mark.parametrize("tone", [0, 1, 2, 3])
def test_single_tone_stays_constant_envelope_when_oversampled(tone):
    symbols = np.zeros(4, dtype=complex)
    symbols[tone] = 1.0
    for oversample in (1, 2, 8):
        samples = time_samples(symbols, oversample)
        assert samples.size == 4 * oversample
        assert_allclose(np.abs(samples), 1 / np.sqrt(4 * oversample), rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
@pytest.mark.parametrize("oversample", [1, 2, 8])
def test_matches_direct_trigonometric_sum(oversample, n):
    rng = np.random.default_rng(2024 + 100 * oversample + n)
    symbols = rng.normal(size=(20, n)) + 1j * rng.normal(size=(20, n))
    fast = time_samples(symbols, oversample)
    assert np.abs(fast - direct_synthesis(symbols, oversample)).max() < 1e-9


@pytest.mark.parametrize("oversample", [1, 2, 8])
def test_synthesize_matches_direct_trigonometric_sum(oversample):
    rng = np.random.default_rng(2024 + oversample)
    freq = random_frame(64, ModulationScheme.QPSK, rng)
    frame = synthesize(freq, oversample)
    assert np.abs(frame.samples - direct_synthesis(freq.symbols, oversample)).max() < 1e-9


@pytest.mark.parametrize("p", [1, 2, 16, 256, 4096])
def test_round_trip_up_to_4096(p):
    # The transform is unitary: the forward FFT of the samples gives back
    # the padded spectrum, at the Nyquist rate and oversampled.
    rng = np.random.default_rng(p)
    x = rng.normal(size=p) + 1j * rng.normal(size=p)
    for oversample in (1, 2):
        padded = pad_spectrum(x, oversample, np.empty(oversample * p, dtype=complex))
        forward = np.fft.fft(time_samples(x, oversample), norm="ortho")
        assert np.abs(forward - padded).max() < 1e-10


@pytest.mark.parametrize("p", [2, 8, 64, 1024])
def test_parseval(p):
    rng = np.random.default_rng(p + 1)
    x = rng.normal(size=p) + 1j * rng.normal(size=p)
    e_freq = np.sum(np.abs(x) ** 2)
    for oversample in (1, 4):
        e_time = np.sum(np.abs(time_samples(x, oversample)) ** 2)
        assert abs(e_time - e_freq) / e_freq < 1e-10


def test_linearity():
    rng = np.random.default_rng(5)
    x = rng.normal(size=128) + 1j * rng.normal(size=128)
    y = rng.normal(size=128) + 1j * rng.normal(size=128)
    a, b = 1.3 - 0.4j, -0.2 + 2.1j
    lhs = time_samples(a * x + b * y)
    rhs = a * time_samples(x) + b * time_samples(y)
    assert np.abs(lhs - rhs).max() < 1e-10


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


def test_oversample_must_be_positive():
    with pytest.raises(ValueError, match=">= 1"):
        synthesize(FrequencyFrame([1, -1, 1j, -1j]), 0)


@pytest.mark.parametrize("bad", [[np.nan, 0], [np.inf, 0], [0, complex(0, np.inf)]])
def test_non_finite_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        synthesize(FrequencyFrame(bad), 2)


def test_time_frame_sample_count_consistency():
    frame = synthesize(FrequencyFrame([1, -1, 1j, -1j]), 4)
    assert frame.samples.size == 16
    assert frame.n_subcarriers == 4
    with pytest.raises(ValueError, match="multiple"):
        TimeFrame([1, 0, 0], 2)


def test_papr_takes_any_sample_count_a_time_frame_takes():
    # Powers 1, 4, ..., 36: peak 36 over mean 91/6.
    assert papr(TimeFrame(np.arange(1, 7), 1)).linear == 36 / (91 / 6)
