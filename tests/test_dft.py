"""Transform kernel: frozen examples, direct-summation oracle, unitarity.

Batch invariance is a hypothesis property in ``test_properties.py``.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ofdm_papr import forward_dft, inverse_dft, is_power_of_two


def direct_inverse(x):
    """O(P^2) summation oracle, independent of the FFT factorisation."""
    x = np.asarray(x, dtype=complex)
    p = x.size
    n = np.arange(p)
    kernel = np.exp(2j * np.pi * np.outer(n, n) / p)
    return kernel @ x / np.sqrt(p)


def test_single_tone_gives_constant_envelope():
    assert_allclose(inverse_dft([1, 0, 0, 0]), [0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_all_ones_spectrum_gives_impulse():
    assert_allclose(inverse_dft([1, 1, 1, 1]), [2, 0, 0, 0], atol=1e-15)


def test_second_bin_matches_direct_summation():
    # explicit four-term sums, frozen expected values
    expected = []
    x = [0, 1, 0, 0]
    for n in range(4):
        acc = 0j
        for k in range(4):
            acc += x[k] * np.exp(2j * np.pi * n * k / 4)
        expected.append(acc / 2)
    assert_allclose(expected, [0.5, 0.5j, -0.5, -0.5j], atol=1e-15)
    assert_allclose(inverse_dft(x), expected, atol=1e-14)


def test_forward_of_constant_envelope():
    assert_allclose(forward_dft([0.5, 0.5, 0.5, 0.5]), [1, 0, 0, 0], atol=1e-15)


def test_forward_of_constant_is_scaled_impulse():
    c = 0.7 - 0.2j
    out = forward_dft(np.full(8, c))
    expected = np.zeros(8, dtype=complex)
    expected[0] = c * np.sqrt(8)
    assert_allclose(out, expected, atol=1e-14)


def test_round_trip_64():
    rng = np.random.default_rng(1)
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    assert np.abs(forward_dft(inverse_dft(x)) - x).max() < 1e-12


@pytest.mark.parametrize("p", [1, 2, 16, 256, 4096])
def test_round_trip_up_to_4096(p):
    rng = np.random.default_rng(p)
    x = rng.normal(size=p) + 1j * rng.normal(size=p)
    assert np.abs(forward_dft(inverse_dft(x)) - x).max() < 1e-10
    assert np.abs(inverse_dft(forward_dft(x)) - x).max() < 1e-10


@pytest.mark.parametrize("p", [2, 8, 64, 1024])
def test_parseval(p):
    rng = np.random.default_rng(p + 1)
    x = rng.normal(size=p) + 1j * rng.normal(size=p)
    e_freq = np.sum(np.abs(x) ** 2)
    e_time = np.sum(np.abs(inverse_dft(x)) ** 2)
    assert abs(e_time - e_freq) / e_freq < 1e-10


@pytest.mark.parametrize("p", [2, 4, 8, 16, 32, 64, 128, 256])
def test_matches_direct_summation(p):
    rng = np.random.default_rng(p)
    frames = rng.normal(size=(100, p)) + 1j * rng.normal(size=(100, p))
    fast = inverse_dft(frames)
    for frame, out in zip(frames, fast):
        assert np.abs(out - direct_inverse(frame)).max() < 1e-9


def test_linearity():
    rng = np.random.default_rng(5)
    x = rng.normal(size=128) + 1j * rng.normal(size=128)
    y = rng.normal(size=128) + 1j * rng.normal(size=128)
    a, b = 1.3 - 0.4j, -0.2 + 2.1j
    lhs = inverse_dft(a * x + b * y)
    rhs = a * inverse_dft(x) + b * inverse_dft(y)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_length_one_is_identity():
    assert_allclose(inverse_dft([3 + 4j]), [3 + 4j])


@pytest.mark.parametrize("bad", [[1, 2, 3], [1] * 5, [1] * 12])
def test_non_power_of_two_rejected(bad):
    with pytest.raises(ValueError, match="power of two"):
        inverse_dft(bad)
    with pytest.raises(ValueError, match="power of two"):
        forward_dft(bad)


@pytest.mark.parametrize("bad", [[np.nan, 0], [np.inf, 0], [0, complex(0, np.inf)]])
def test_non_finite_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        inverse_dft(bad)


def test_is_power_of_two():
    assert [n for n in range(-2, 17) if is_power_of_two(n)] == [1, 2, 4, 8, 16]
