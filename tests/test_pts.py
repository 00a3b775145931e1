"""Partial transmit sequence: partitions, enumeration, and the search."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from ofdm_papr import (
    FrequencyFrame,
    ModulationScheme,
    PartitionScheme,
    PhaseVector,
    SubBlockPartition,
    enumerate_phase_vectors,
    make_partition,
    papr,
    pts_reduce,
    random_frame,
    synthesize,
    time_samples,
)

QPSK = ModulationScheme.QPSK


def block_spectra(freq, partition):
    """Per-block spectra: block v keeps its subcarriers, zeros elsewhere."""
    out = []
    for v in range(partition.v_count):
        spectrum = np.where(partition.block_of == v, freq.symbols, 0)
        out.append(spectrum)
    return out


def brute_force_oracle(freq, partition, w, oversample):
    """Rebuild and transform every weighted spectrum; no linearity shortcut.

    Selection follows the documented contract: lowest combination index
    among the values within a 1e-12 relative window of the minimum.
    """
    spectra = block_spectra(freq, partition)
    values = []
    for vec in enumerate_phase_vectors(w, partition.v_count):
        weighted = np.zeros(freq.n_subcarriers, dtype=complex)
        for b, spectrum in zip(vec.factors, spectra):
            weighted = weighted + b * spectrum
        values.append(papr(synthesize(FrequencyFrame(weighted), oversample)).linear)
    values = np.array(values)
    index = int(np.flatnonzero(values <= values.min() * (1 + 1e-12))[0])
    return index, values[index]


def test_adjacent_partition():
    part = make_partition(8, 2, PartitionScheme.ADJACENT)
    assert_array_equal(part.block_of, [0, 0, 0, 0, 1, 1, 1, 1])


def test_interleaved_partition():
    part = make_partition(8, 2, PartitionScheme.INTERLEAVED)
    assert_array_equal(part.block_of, [0, 1, 0, 1, 0, 1, 0, 1])


def test_pseudo_random_partition():
    a = make_partition(64, 4, PartitionScheme.PSEUDO_RANDOM, np.random.default_rng(3))
    b = make_partition(64, 4, PartitionScheme.PSEUDO_RANDOM, np.random.default_rng(3))
    assert_array_equal(a.block_of, b.block_of)
    assert_array_equal(np.bincount(a.block_of), [16, 16, 16, 16])
    assert not np.array_equal(a.block_of, make_partition(64, 4, PartitionScheme.ADJACENT).block_of)


def test_partition_divisibility():
    with pytest.raises(ValueError, match="divide"):
        make_partition(8, 3, PartitionScheme.ADJACENT)
    with pytest.raises(ValueError, match="rng"):
        make_partition(8, 2, PartitionScheme.PSEUDO_RANDOM)


def test_partition_type_validation():
    with pytest.raises(ValueError, match="disjoint"):
        SubBlockPartition([0, 0, 0, 1], 2, PartitionScheme.ADJACENT)
    # A scheme's value is not a scheme: with an rng, "adjacent" would build
    # a shuffled partition labelled adjacent.
    for rng in (None, np.random.default_rng(1)):
        with pytest.raises(ValueError, match="must be a PartitionScheme"):
            make_partition(8, 2, "adjacent", rng)


def test_enumeration_counts():
    assert len(enumerate_phase_vectors(2, 4)) == 16
    assert len(enumerate_phase_vectors(4, 4)) == 256


def test_enumeration_order_and_alphabet():
    vectors = enumerate_phase_vectors(2, 4)
    assert_array_equal(vectors[0].factors, [1, 1, 1, 1])
    assert_array_equal(vectors[1].factors, [1, 1, 1, -1])
    assert_array_equal(vectors[15].factors, [-1, -1, -1, -1])
    assert all(v.combination_index == i for i, v in enumerate(vectors))

    four = enumerate_phase_vectors(4, 2)
    assert_array_equal(four[0].factors, [1, 1])
    assert_array_equal(four[1].factors, [1, -1])
    assert_array_equal(four[2].factors, [1, 1j])
    assert_array_equal(four[3].factors, [1, -1j])
    assert_array_equal(four[4].factors, [-1, 1])
    for v in four:
        assert all(f in (1, -1, 1j, -1j) for f in v.factors)


def test_unsupported_phase_order_rejected():
    with pytest.raises(ValueError, match="W="):
        enumerate_phase_vectors(3, 4)


def test_phase_vector_validation():
    with pytest.raises(ValueError, match="unit magnitude"):
        PhaseVector([1, 2], 0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="unit magnitude"):
            PhaseVector([1, bad], 0)


def test_single_block_reduces_to_global_rotation():
    freq = random_frame(16, QPSK, np.random.default_rng(5))
    part = make_partition(16, 1, PartitionScheme.ADJACENT)
    result = pts_reduce(freq, part, 4, 2)
    original = synthesize(freq, 2)
    assert result.papr.linear == papr(original).linear
    assert result.chosen.combination_index == 0
    assert result.combinations_searched == 1
    assert_array_equal(result.frame.samples, original.samples)


def test_never_worse_than_original():
    rng = np.random.default_rng(6)
    part = make_partition(64, 4, PartitionScheme.PSEUDO_RANDOM, np.random.default_rng(60))
    for _ in range(200):
        freq = random_frame(64, QPSK, rng)
        result = pts_reduce(freq, part, 2, 1)
        assert result.papr.linear <= papr(synthesize(freq, 1)).linear


def test_the_returned_frame_scores_the_reported_papr():
    # Candidate 0 is the unmodified frame, synthesized directly, not the
    # all-ones sum of the block signals, whose rounding can lift it a few
    # ulps (seeds 24, 49, 59 and 84 here); the frame the search returns must
    # be the one it scored, bit for bit, the unmodified frame or not.
    part = make_partition(16, 2, PartitionScheme.ADJACENT)
    unmodified = 0
    for seed in range(100):
        freq = random_frame(16, QPSK, np.random.default_rng(seed))
        result = pts_reduce(freq, part, 2, 1)
        assert papr(result.frame).linear == result.papr.linear
        original = synthesize(freq, 1)
        unmodified += result.frame.samples.tobytes() == original.samples.tobytes()
    assert unmodified >= 4


def test_matches_direct_reconstruction_oracle():
    freq = random_frame(8, QPSK, np.random.default_rng(7))
    part = make_partition(8, 2, PartitionScheme.ADJACENT)
    result = pts_reduce(freq, part, 2, 1)
    index, best = brute_force_oracle(freq, part, 2, 1)
    assert result.combinations_searched == 2
    assert result.chosen.combination_index == index
    assert abs(result.papr.linear - best) < 1e-9


@pytest.mark.parametrize("n,v", [(8, 2), (16, 4)])
def test_exhaustive_optimality_small_instances(n, v):
    rng = np.random.default_rng(n * v)
    part = make_partition(n, v, PartitionScheme.PSEUDO_RANDOM, np.random.default_rng(1))
    for _ in range(25):
        freq = random_frame(n, QPSK, rng)
        result = pts_reduce(freq, part, 2, 1)
        index, best = brute_force_oracle(freq, part, 2, 1)
        assert result.chosen.combination_index == index
        assert abs(result.papr.linear - best) < 1e-9


def test_block_sum_equals_transform_of_weighted_spectrum():
    # linearity: weighted sum of block signals == transform of weighted spectrum
    freq = random_frame(64, QPSK, np.random.default_rng(8))
    part = make_partition(64, 4, PartitionScheme.PSEUDO_RANDOM, np.random.default_rng(9))
    spectra = block_spectra(freq, part)
    block_times = [time_samples(s, 2) for s in spectra]
    for vec in enumerate_phase_vectors(4, 4):
        lhs = sum(b * t for b, t in zip(vec.factors, block_times))
        rhs = time_samples(sum(b * s for b, s in zip(vec.factors, spectra)), 2)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_global_phase_orbits_collapse_papr_values():
    freq = random_frame(8, QPSK, np.random.default_rng(10))
    part = make_partition(8, 2, PartitionScheme.ADJACENT)
    values = []
    for vec in enumerate_phase_vectors(4, 2):
        weighted = sum(b * s for b, s in zip(vec.factors, block_spectra(freq, part)))
        values.append(papr(synthesize(FrequencyFrame(weighted), 1)).linear)
    # candidates come in orbits of size W under a common factor: <= W^V / W values
    assert np.unique(values).size <= 4


def test_more_blocks_reduce_mean_papr():
    rng = np.random.default_rng(11)
    part2 = make_partition(64, 2, PartitionScheme.ADJACENT)
    part4 = make_partition(64, 4, PartitionScheme.ADJACENT)
    v2, v4 = [], []
    for _ in range(1000):
        freq = random_frame(64, QPSK, rng)
        v2.append(pts_reduce(freq, part2, 2, 1).papr.db)
        v4.append(pts_reduce(freq, part4, 2, 1).papr.db)
    assert np.mean(v4) < np.mean(v2)


def test_fixed_first_factor_search():
    freq = random_frame(32, QPSK, np.random.default_rng(12))
    part = make_partition(32, 4, PartitionScheme.PSEUDO_RANDOM, np.random.default_rng(13))
    result = pts_reduce(freq, part, 4, 1)
    index, best = brute_force_oracle(freq, part, 4, 1)
    assert result.combinations_searched == 64
    assert result.chosen.factors[0] == 1
    # every orbit has a representative with leading +1, so the optima agree
    assert result.chosen.combination_index == index
    assert np.isclose(result.papr.linear, best, rtol=1e-12)
    assert result.papr.linear <= papr(synthesize(freq, 1)).linear


def test_partition_frame_mismatch_rejected():
    freq = random_frame(16, QPSK, np.random.default_rng(14))
    part = make_partition(8, 2, PartitionScheme.ADJACENT)
    with pytest.raises(ValueError, match="does not match"):
        pts_reduce(freq, part, 2, 1)
