"""Properties of the run path over random small configs (hypothesis).

``run_experiment`` calls only the array cores; the public functions wrap
the same cores in validated objects.  These properties keep the two from
drifting apart, and hold the run path to its guarantees:

* each trial's side information equals the index the public functions
  return from the trial's streams, in any trial order, and its sample
  equals, bit for bit, 10 log10(L max|x|^2) of the frame they return;
* any chunk size, one trial per chunk and a ragged last chunk included,
  gives the bytes of the default chunks, though the run reuses one
  candidate block across its chunks, which PTS spends as scratch;
* SLM and PTS samples are never above the unmodified frame's, exactly;
* no sample is below 0 dB, though a constant envelope's score can round
  below 1;
* a run without reduction gives the bytes of SLM with the identity
  candidate alone (M=1);
* a K-trial run is the first K trials of a longer run;
* none and SLM configs searched together, with a PTS config and a config
  of another seed among them, give each config, in input order, the
  samples, side information and CSV bytes of its own run;
* every row of a batched transform equals, bit for bit, that row
  transformed alone, whatever the batch shape, memory layout and sample
  count, powers of two or not (the never-worse guarantees compare a
  batched candidate with a lone frame), and a batch padded into a given
  block and transformed in place equals the fresh transform;
* the spent peak power of a batch equals, row by row, that row's alone and
  max(re^2 + im^2) of an unspent copy, and the PAPR of a batch of any
  layout equals, row by row, that row's alone;
* candidates that tie in exact arithmetic resolve to the lowest index;
* the row-wise pick of a (..., C) score batch equals, row by row, the pick
  of that row alone, ties inside the 1e-12 window included;
* row 0 of every candidate block, none, SLM or PTS, is bit for bit the
  unmodified frame, for a lone frame and for a chunk (the never-worse
  guarantees rest on it);
* the PTS search over the W^(V-1) orbit representatives picks, bit for
  bit, what the exhaustive W^V search picks;
* the run's PTS search, which bounds each candidate on a subsample and
  scores in full only those that can still win, picks the index and the
  score bytes of the search that scores every candidate, ties included,
  and each candidate it scores has that search's bytes, at every L (at
  L <= 3 it scores every candidate);
* a product of any two factor rows or more with the block signals equals,
  byte for byte, those rows of the product of every factor row (the
  PTS search builds its rows so; a one-row product may differ);
* SLM's one (M-1, N) draw of phase indices gives the rotations that M-1
  draws of N, one row at a time, give from the same stream (the per-trial
  stream contract rests on it);
* the frame symbols and SLM rotations the run derives a block of trials at
  a time are, byte for byte, those drawn from each trial's
  ``trial_stream``, for one- and two-word seeds, any trial index, BPSK and
  QPSK, and odd draw counts, across chunk and key-block boundaries.

The random run configs take N and L that are not powers of two too (odd
L among them), V among N's divisors, and limit V to W^V <= 256 to keep
each example fast; the orbit property alone goes up to W^V = 4^8.
"""

import io
import math
from dataclasses import replace
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdm_papr import (
    ExperimentConfig,
    FrequencyFrame,
    Method,
    ModulationScheme,
    PartitionScheme,
    PhaseSequence,
    TimeFrame,
    enumerate_phase_vectors,
    generate_phase_sequences,
    make_partition,
    papr,
    papr_linear,
    pts_reduce,
    random_frame,
    run_experiment,
    run_experiments,
    slm_reduce,
    synthesize,
    threshold_grid,
    time_samples,
    trial_stream,
    write_result,
)
from ofdm_papr import harness
from ofdm_papr.frame import pick_min, spend_power
from ofdm_papr.pts import _factor_matrix, pts_candidates, pts_scores, pts_width
from ofdm_papr.slm import PHASE_ALPHABET, slm_candidates

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def configs(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 32, 64]))
    w = draw(st.sampled_from([2, 4]))
    v = draw(st.sampled_from([v for v in range(1, 9) if n % v == 0 and w ** v <= 256]))
    return ExperimentConfig(
        n_subcarriers=n,
        modulation=draw(st.sampled_from(ModulationScheme)),
        oversample=draw(st.sampled_from([1, 2, 3, 4, 5, 8])),
        method=draw(st.sampled_from(Method)),
        slm_branches=draw(st.integers(1, 8)),
        pts_blocks=v,
        pts_phase_order=w,
        partition_scheme=draw(st.sampled_from(PartitionScheme)),
        trials=draw(st.integers(1, 6)),
        master_seed=draw(st.integers(0, 2 ** 64 - 1)),
        thresholds_db=threshold_grid(0.0, 13.0, 0.5),
    )


def peak_db(frame):
    """10 log10(L max|x|^2) of a time frame, the run's PAPR: its mean power is 1/L.

    Floored at 0 dB as the run floors it: a constant envelope can round below 1.
    """
    power = np.square(frame.samples.real) + np.square(frame.samples.imag)
    return 10.0 * math.log10(max(frame.oversample * power.max(), 1.0))


def rebuilt_trial(config, t):
    """(PAPR dB, side information) of trial t through the public functions."""
    seed, n, oversample = config.master_seed, config.n_subcarriers, config.oversample
    frame = random_frame(n, config.modulation, trial_stream(seed, 0, t))
    if config.method is Method.NONE:
        return peak_db(synthesize(frame, oversample)), 0
    if config.method is Method.SLM:
        sequences = generate_phase_sequences(config.slm_branches, n, trial_stream(seed, 1, t))
        result = slm_reduce(frame, sequences, oversample)
        return peak_db(result.frame), result.selected_index
    partition = make_partition(n, config.pts_blocks, config.partition_scheme,
                               trial_stream(seed, 2))
    result = pts_reduce(frame, partition, config.pts_phase_order, oversample)
    return peak_db(result.frame), result.chosen.combination_index


@st.composite
def configs_and_orders(draw):
    config = draw(configs())
    return config, draw(st.permutations(range(config.trials)))


def assert_each_trial_matches_the_public_functions(config, order):
    result = run_experiment(config)
    samples = np.empty(config.trials)
    side_info = np.empty(config.trials, dtype=np.int64)
    for t in order:
        samples[t], side_info[t] = rebuilt_trial(config, t)
    assert samples.tobytes() == result.samples_db.tobytes()
    assert side_info.tobytes() == result.side_info.tobytes()


@pytest.mark.single_thread
@pytest.mark.numpy_release
@SETTINGS
@given(configs_and_orders())
def test_each_trial_matches_the_public_functions(config_and_order):
    assert_each_trial_matches_the_public_functions(*config_and_order)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("n, v", [(12, 4), (15, 3)])
def test_a_run_at_odd_l_and_any_n_matches_the_public_functions(n, v, method):
    # At N=15, L=5 the PTS bound stride s=2 does not divide L*N = 75.
    # pts_reduce scores every candidate.
    config = ExperimentConfig(n_subcarriers=n, oversample=5, method=method, pts_blocks=v,
                              trials=20, master_seed=11,
                              thresholds_db=threshold_grid(0.0, 13.0, 0.5))
    assert_each_trial_matches_the_public_functions(config, range(config.trials))


def chunk_width(config):
    """Samples of the run's block per trial of the chunk: what its budget counts."""
    c, n, oversample = harness._candidates(config), config.n_subcarriers, config.oversample
    return pts_width(c, n, oversample) if config.method is Method.PTS else c * oversample * n


@pytest.mark.single_thread
@pytest.mark.parametrize("modulation", list(ModulationScheme))
@pytest.mark.parametrize("oversample", [1, 2, 8])
@pytest.mark.parametrize("method", list(Method))
@SETTINGS
@given(configs(), st.integers(2, 6))
def test_the_chunk_size_changes_no_byte(method, oversample, modulation, config, drawn):
    # run_experiment searches its trials in chunks of T, sized from a private
    # budget of samples per method (C*L*N per trial for none and SLM,
    # pts_width for PTS), and reuses one candidate block across them.  T=1
    # and a drawn T must give the bytes of the default T; more
    # trials than the drawn T make two chunks or more, the last often ragged.
    # Stream keys are derived in blocks of their own size: blocks of T+1
    # trials end inside a chunk.  The run picks once per chunk, whichever
    # search scored it (PTS at L >= 4 scores in several calls).
    config = replace(config, method=method, oversample=oversample, modulation=modulation,
                     trials=config.trials + drawn)
    chunks = []

    def counted(scores, pick=harness.pick_min):
        chunks.append(len(scores))
        return pick(scores)

    with mock.patch.object(harness, "pick_min", counted):
        default = run_experiment(config)
        assert sum(chunks) == config.trials
        for rows in (1, drawn):
            budget = rows * chunk_width(config)
            chunks.clear()
            with (mock.patch.object(harness, "_CHUNK_SAMPLES", budget),
                  mock.patch.object(harness, "_PTS_CHUNK_SAMPLES", budget),
                  mock.patch.object(harness, "_KEY_BLOCK", rows + 1)):
                result = run_experiment(config)
            full, ragged = divmod(config.trials, rows)
            assert chunks == [rows] * full + [ragged] * (ragged > 0)
            assert result.samples_db.tobytes() == default.samples_db.tobytes()
            assert result.side_info.tobytes() == default.side_info.tobytes()


@SETTINGS
@given(configs())
def test_never_worse_than_the_unmodified_frame(config):
    result = run_experiment(config)
    unmodified = run_experiment(replace(config, method=Method.NONE))
    assert np.all(result.samples_db <= unmodified.samples_db)


@SETTINGS
@given(configs())
# At N=8, L=1, seed 3, the constant-envelope winners of PTS trial 23 and SLM
# trial 782 score L*max|x|^2 an ulp below 1: -9.6e-16 dB unfloored.
@example(ExperimentConfig(n_subcarriers=8, oversample=1, method=Method.PTS, trials=24,
                          master_seed=3))
@example(ExperimentConfig(n_subcarriers=8, oversample=1, method=Method.SLM, trials=783,
                          master_seed=3))
def test_no_sample_is_below_0_db(config):
    assert np.all(run_experiment(config).samples_db >= 0.0)


@SETTINGS
@given(configs())
def test_no_reduction_is_slm_with_the_identity_alone(config):
    none = run_experiment(replace(config, method=Method.NONE))
    slm = run_experiment(replace(config, method=Method.SLM, slm_branches=1))
    assert none.samples_db.tobytes() == slm.samples_db.tobytes()
    assert none.side_info.tobytes() == slm.side_info.tobytes()


@SETTINGS
@given(configs(), st.integers(1, 6))
def test_a_shorter_run_is_a_prefix(config, k):
    k = min(k, config.trials)
    full = run_experiment(config)
    short = run_experiment(replace(config, trials=k))
    assert short.samples_db.tobytes() == full.samples_db[:k].tobytes()
    assert short.side_info.tobytes() == full.side_info[:k].tobytes()


@st.composite
def shared_searches(draw):
    """(configs, chunk rows): none and SLM at several M, a PTS config and another seed.

    Trials leave a ragged last chunk of the shared search; one member
    carries its own threshold grid.
    """
    rows = draw(st.integers(2, 4))
    base = replace(draw(configs()), modulation=draw(st.sampled_from(ModulationScheme)),
                   oversample=draw(st.sampled_from([1, 2, 8])),
                   trials=rows * draw(st.integers(1, 3)) + draw(st.integers(1, rows - 1)))
    ms = draw(st.lists(st.integers(1, 8), min_size=2, max_size=4))
    members = [replace(base, method=Method.NONE),
               replace(base, method=Method.PTS),
               replace(base, method=Method.SLM, slm_branches=ms[0],
                       master_seed=(base.master_seed + 1) % 2 ** 64),
               replace(base, method=Method.SLM, slm_branches=ms[0],
                       thresholds_db=threshold_grid(1.0, 9.0, 0.25))]
    members += [replace(base, method=Method.SLM, slm_branches=m) for m in ms[1:]]
    return draw(st.permutations(members)), rows


def csv_bytes(result):
    sink = io.StringIO()
    write_result(result, "csv", sink)
    return sink.getvalue()


@SETTINGS
@given(shared_searches(), st.booleans())
def test_a_shared_search_gives_each_config_its_own_run(configs_and_rows, analytic):
    configs, rows = configs_and_rows
    widest = max(c.slm_branches for c in configs if c.method is Method.SLM)
    budget = rows * widest * configs[0].oversample * configs[0].n_subcarriers
    with mock.patch.object(harness, "_CHUNK_SAMPLES", budget):
        results = run_experiments(configs, analytic)
    assert [result.config for result in results] == configs
    for config, result in zip(configs, results):
        alone = run_experiment(config, analytic)
        assert result.samples_db.tobytes() == alone.samples_db.tobytes()
        assert result.side_info.tobytes() == alone.side_info.tobytes()
        assert csv_bytes(result) == csv_bytes(alone)
        curves = [r.analytic.probabilities.tobytes() for r in (result, alone)
                  if r.analytic is not None]
        assert len(curves) in (0, 2) and curves[:1] == curves[1:]


@st.composite
def batches(draw):
    """A (..., P) complex batch: C order, F order, a strided view or a reversed slice."""
    p = draw(st.sampled_from([2 ** k for k in range(13)] + [3, 6, 100]))
    shape = (3,) + tuple(draw(st.lists(st.integers(1, 3), max_size=3))) + (2 * p,)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    layout = draw(st.sampled_from(["C", "F", "strided", "sliced"]))
    if layout == "C":
        return np.ascontiguousarray(base[0, ..., :p])
    if layout == "F":
        return np.asfortranarray(base[0, ..., :p])
    if layout == "strided":
        return base[0, ..., ::2]
    return base[:0:-1, ..., p:]


@pytest.mark.numpy_release
@SETTINGS
@given(batches(), st.sampled_from([1, 2, 4, 8]))
def test_a_batched_transform_equals_each_row_alone(batch, oversample):
    symbols = batch[..., :max(1, batch.shape[-1] // oversample)]
    synthesized = time_samples(symbols, oversample)
    # The run pads into its candidate block and transforms it in place.
    in_place = np.empty(symbols.shape[:-1] + (oversample * symbols.shape[-1],), dtype=complex)
    assert time_samples(symbols, oversample, in_place).tobytes() == synthesized.tobytes()
    for idx in np.ndindex(symbols.shape[:-1]):
        alone = time_samples(symbols[idx].copy(), oversample)
        assert synthesized[idx].tobytes() == alone.tobytes()


@pytest.mark.numpy_release
@SETTINGS
@given(batches())
def test_the_power_and_the_papr_of_a_batch_equal_each_row_alone(batch):
    # spend_power needs contiguous rows.  It spends a C-order copy of the
    # batch, and copies seen through flipped or permuted leading axes, whose
    # rows stay contiguous; papr_linear takes the batch in its own layout.
    square = np.square(batch.real) + np.square(batch.imag)
    paprs = papr_linear(batch)
    leading = tuple(range(batch.ndim - 1))
    swapped = leading[::-1] + (batch.ndim - 1,)
    for spent in (np.array(batch, order="C"),
                  np.flip(np.flip(batch, leading).copy(), leading),
                  np.transpose(np.transpose(batch, swapped).copy(), swapped)):
        power = spend_power(spent)
        assert power.flags.c_contiguous
        assert power.tobytes() == np.ascontiguousarray(square).tobytes()
    for idx in np.ndindex(batch.shape[:-1]):
        assert power[idx].tobytes() == spend_power(batch[idx].copy()).tobytes()
        assert paprs[idx].tobytes() == papr_linear(batch[idx].copy()).tobytes()


@pytest.mark.numpy_release
@SETTINGS
@given(st.sampled_from([1, 3, 8, 16, 64]), st.sampled_from([1, 2, 3, 8]), st.integers(1, 8),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_each_reported_slm_papr_is_that_candidates_papr_alone(n, oversample, m, gaussian, seed):
    # slm_reduce picks and reports from one power pass over its candidates.
    # Gaussian symbols have any energy, so there the mean, not 1/L, counts.
    rng = np.random.default_rng(seed)
    symbols = (rng.normal(size=n) + 1j * rng.normal(size=n) if gaussian
               else random_frame(n, ModulationScheme.QPSK, rng).symbols)
    freq = FrequencyFrame(symbols)
    sequences = generate_phase_sequences(m, n, rng)
    result = slm_reduce(freq, sequences, oversample)
    block = np.empty((m, oversample * n), dtype=np.complex128)
    slm_candidates(freq.symbols, np.stack([s.rotations for s in sequences]), oversample, block)

    def sample_bytes(sample):
        return np.array([sample.linear, sample.db]).tobytes()

    for i, reported in enumerate(result.all_paprs):
        assert sample_bytes(reported) == sample_bytes(papr(TimeFrame(block[i], oversample)))
    assert sample_bytes(result.papr) == sample_bytes(papr(result.frame))


@SETTINGS
@given(st.lists(st.integers(1, 4), min_size=1, max_size=2), st.integers(1, 8),
       st.integers(0, 2 ** 32 - 1))
def test_the_row_wise_pick_equals_each_row_picked_alone(lead, columns, seed):
    # Offsets inside, at the edge of and beyond the tie window, on a scale
    # that differs from row to row: most rows hold ties only the window breaks.
    rng = np.random.default_rng(seed)
    offsets = np.array([0.0, 1e-13, 9e-13, 1e-12, 2e-12, 1e-6, 0.5])
    scores = (rng.uniform(1.0, 100.0, (*lead, 1))
              * (1.0 + rng.choice(offsets, (*lead, columns))))
    picked = pick_min(scores)
    assert picked.shape == tuple(lead)
    alone = np.array([pick_min(scores[idx].copy()) for idx in np.ndindex(*lead)])
    assert picked.ravel().tobytes() == alone.tobytes()


@SETTINGS
@given(st.sampled_from([8, 16, 32, 64]), st.sampled_from(ModulationScheme),
       st.sampled_from([1, 2, 8]), st.integers(0, 2 ** 32 - 1))
def test_slm_cyclic_shift_tie_selects_index_0(n, modulation, oversample, seed):
    # Rotating subcarrier k by j^(m*k) shifts the time frame cyclically by
    # m*N/4, so all four candidates have the same PAPR in exact arithmetic.
    rng = np.random.default_rng(seed)
    sequences = [PhaseSequence(1j ** (m * np.arange(n)), m) for m in range(4)]
    for _ in range(10):
        frame = random_frame(n, modulation, rng)
        assert slm_reduce(frame, sequences, oversample).selected_index == 0


@SETTINGS
@given(st.sampled_from([(w, v) for w in (2, 4) for v in (1, 2, 4)]), st.sampled_from([8, 16, 32]),
       st.sampled_from(ModulationScheme), st.sampled_from(PartitionScheme),
       st.sampled_from([1, 4]), st.integers(0, 2 ** 32 - 1))
def test_pts_pick_is_the_lowest_index_of_its_tie_set(w_v, n, modulation, scheme, oversample,
                                                      seed):
    # A common alphabet factor maps a combination to one with the same PAPR.
    # With the interleaved partition, weighting block v by s^v (s a V-th root
    # of unity in the alphabet) shifts the frame cyclically: the same PAPR
    # again.  Ties like these are exact only in exact arithmetic.
    w, v = w_v
    rng = np.random.default_rng(seed)
    frame = random_frame(n, modulation, rng)
    partition = make_partition(n, v, scheme, rng)
    result = pts_reduce(frame, partition, w, oversample)
    alphabet = [vec.factors[-1] for vec in enumerate_phase_vectors(w, v)[:w]]
    roots = {1: [1], 2: [1, -1], 4: [1, 1j, -1, -1j]}[v]
    shifts = [np.array([roots[b * m % v] for b in range(v)])
              for m in range(v if scheme is PartitionScheme.INTERLEAVED and v <= w else 1)]
    tie_set = []
    for factor in alphabet:
        for shift in shifts:
            factors = factor * shift * result.chosen.factors
            # the combination index reads the factors' alphabet digits in base W
            tie_set.append(int("".join(str(alphabet.index(f)) for f in factors), w))
            weighted = FrequencyFrame(frame.symbols * factors[partition.block_of])
            value = papr(synthesize(weighted, oversample)).linear
            assert np.isclose(value, result.papr.linear, rtol=1e-12, atol=0.0)
    assert result.chosen.combination_index == min(tie_set)
    assert result.chosen.factors[0] == 1


@cache
def all_factors(w, v):
    """(W^V, V) factors of every combination, row i the combination index i."""
    return np.array([vec.factors for vec in enumerate_phase_vectors(w, v)])


@SETTINGS
@given(st.sampled_from([(w, v) for w in (2, 4) for v in (1, 2, 4, 8)]), st.sampled_from([8, 16]),
       st.sampled_from(ModulationScheme), st.sampled_from(PartitionScheme),
       st.sampled_from([1, 4]), st.integers(0, 2 ** 32 - 1))
def test_pts_orbit_search_equals_the_exhaustive_search(w_v, n, modulation, scheme, oversample,
                                                       seed):
    w, v = w_v
    rng = np.random.default_rng(seed)
    symbols = random_frame(n, modulation, rng).symbols
    partition = make_partition(n, v, scheme, rng)
    blocks = np.where(partition.block_of == np.arange(v)[:, None], symbols, 0.0)
    scores = spend_power(all_factors(w, v) @ time_samples(blocks, oversample)).max(axis=-1)
    # Row 0 of the exhaustive sums is the directly synthesized frame.
    scores[0] = spend_power(time_samples(symbols, oversample)).max(axis=-1)
    index = pick_min(scores)
    block = np.empty((w ** (v - 1), oversample * n), dtype=np.complex128)
    found = spend_power(pts_candidates(symbols, partition, w, oversample, block)).max(axis=-1)
    assert pick_min(found) == index
    assert found[index].tobytes() == scores[index].tobytes()


@pytest.mark.single_thread
@pytest.mark.numpy_release
@SETTINGS
@given(st.sampled_from([(n, w, v) for n in (6, 8, 12, 15, 16) for w in (2, 4)
                        for v in (1, 2, 3, 4, 5, 8) if n % v == 0]),
       st.sampled_from(ModulationScheme), st.sampled_from(PartitionScheme),
       st.sampled_from([1, 2, 3, 4, 5, 7, 8]), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
@example((15, 2, 3), ModulationScheme.QPSK, PartitionScheme.PSEUDO_RANDOM, 5, 1, 0)
def test_the_pruned_pts_search_picks_what_full_scoring_picks(n_w_v, modulation, scheme,
                                                             oversample, trials, seed):
    # BPSK at N=8 and N=16 ties often in exact arithmetic, and the tie
    # window, not the bound, then decides the pick.  At L <= 3 the bound is
    # the score, and every candidate is scored.  At odd L the stride
    # s = L // 2 need not divide L*N: the subsample has ceil(L*N/s) points.
    n, w, v = n_w_v
    c = w ** (v - 1)
    rng = np.random.default_rng(seed)
    table = modulation.symbol_table
    symbols = table[rng.integers(0, table.size, (trials, n))]
    partition = make_partition(n, v, scheme, rng)
    block = np.empty((trials, c, oversample * n), dtype=np.complex128)
    full = oversample * spend_power(
        pts_candidates(symbols, partition, w, oversample, block)).max(axis=-1)
    # The spent block is the search's scratch: what it holds must not matter.
    pruned = pts_scores(symbols, partition, w, oversample, block)
    index = pick_min(full)
    assert pick_min(pruned).tobytes() == index.tobytes()
    winners = np.arange(trials), index
    assert pruned[winners].tobytes() == full[winners].tobytes()
    scored = np.isfinite(pruned)
    assert scored[:, 0].all()
    assert scored.all() or oversample >= 4
    assert pruned[scored].tobytes() == full[scored].tobytes()


@pytest.mark.single_thread
@pytest.mark.numpy_release
@SETTINGS
@given(st.sampled_from([(w, v) for w in (2, 4) for v in range(2, 9) if w ** (v - 1) > 2]),
       st.sampled_from([16, 64, 1024]), st.data())
def test_a_gather_of_factor_rows_equals_those_rows_of_the_whole_product(w_v, samples, data):
    # The PTS search at L >= 4 builds the rows it scores two at a time, in one
    # stacked product over the trials of a chunk, and each must have the
    # bytes of pts_candidates' product of every factor row.  Both rest on
    # BLAS's choice of kernel, which a numpy wheel (or OPENBLAS_NUM_THREADS)
    # may change.
    w, v = w_v
    factors = _factor_matrix(w, v)
    size = data.draw(st.integers(2, min(7, len(factors) - 1)))
    rows = np.array(data.draw(st.lists(
        st.lists(st.integers(1, len(factors) - 1), min_size=size, max_size=size, unique=True),
        min_size=1, max_size=3)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    shape = len(rows), v, samples
    signals = time_samples(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    whole = np.matmul(factors[1:], signals)
    gathered = np.matmul(factors[rows], signals)
    assert gathered.tobytes() == np.take_along_axis(whole, rows[..., None] - 1, axis=1).tobytes()


@SETTINGS
@given(st.sampled_from(Method), st.sampled_from([1, 2, 8]), st.sampled_from(ModulationScheme),
       st.sampled_from(PartitionScheme),
       st.sampled_from([(n, w, v) for n in (1, 2, 4, 16) for w in (2, 4) for v in (1, 2, 4)
                        if n % v == 0]),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_row_0_of_every_candidate_block_is_the_unmodified_frame(method, oversample, modulation,
                                                                  scheme, n_w_v, trials, seed):
    # Small N at L=1 makes exact zeros among the samples, whose sign bits
    # the comparison sees too.
    n, w, v = n_w_v
    m = 1 if method is Method.NONE else 4   # none searches the identity alone
    rng = np.random.default_rng(seed)
    table = modulation.symbol_table
    symbols = table[rng.integers(0, table.size, (trials, n))]
    partition = make_partition(n, v, scheme, rng)
    rotations = np.ones((trials, m, n), dtype=np.complex128)
    rotations[:, 1:] = PHASE_ALPHABET[rng.integers(0, PHASE_ALPHABET.size, (trials, m - 1, n))]

    candidates = {Method.NONE: 1, Method.SLM: m, Method.PTS: w ** (v - 1)}[method]

    def block(rows):
        out = np.empty(symbols[rows].shape[:-1] + (candidates, oversample * n),
                       dtype=np.complex128)
        if method is Method.PTS:
            return pts_candidates(symbols[rows], partition, w, oversample, out)
        return slm_candidates(symbols[rows], rotations[rows], oversample, out)

    chunk = block(slice(None))
    for t in range(trials):
        unmodified = time_samples(symbols[t], oversample).tobytes()
        assert block(t)[0].tobytes() == unmodified
        assert chunk[t, 0].tobytes() == unmodified


def rotations_of(sequences):
    """The (M, N) rotations of a list of phase sequences."""
    return np.stack([s.rotations for s in sequences])


def per_row_rotations(m_count, n, rng):
    """The identity row, then one draw of N alphabet indices per row."""
    rows = np.ones((m_count, n), dtype=np.complex128)
    for row in rows[1:]:
        row[:] = PHASE_ALPHABET[rng.integers(0, PHASE_ALPHABET.size, n)]
    return rows


@SETTINGS
@given(st.sampled_from([2 ** k for k in range(11)]), st.integers(1, 16),
       st.integers(0, 2 ** 64 - 1))
def test_one_rotation_draw_equals_the_per_row_draws(n, m_count, seed):
    drawn = rotations_of(generate_phase_sequences(m_count, n, trial_stream(seed, 1, 0)))
    assert drawn.tobytes() == per_row_rotations(m_count, n, trial_stream(seed, 1, 0)).tobytes()


SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]   # one 32-bit word, then two
TRIALS = [0, 2 ** 31, 10 ** 8 - 1]


@pytest.mark.numpy_release
@SETTINGS
@given(st.one_of(st.sampled_from(SEEDS), st.integers(0, 2 ** 64 - 1)),
       st.one_of(st.sampled_from(TRIALS), st.integers(0, 10 ** 8 - 1)),
       st.sampled_from(ModulationScheme), st.sampled_from([1, 2, 3, 64]),
       st.sampled_from([1, 2, 16]))
@example(SEEDS[0], TRIALS[0], ModulationScheme.BPSK, 1, 2)
@example(SEEDS[1], TRIALS[1], ModulationScheme.QPSK, 2, 16)
@example(SEEDS[2], TRIALS[2], ModulationScheme.BPSK, 64, 1)
@example(SEEDS[3], TRIALS[1], ModulationScheme.QPSK, 1, 16)
def test_the_block_draws_equal_trial_stream(seed, t, modulation, n, m_count):
    # The run does not call trial_stream per trial: it mirrors numpy's
    # SeedSequence pool hash over a block of trials and the 32-bit Lemire
    # draw of Generator.integers, and hands each trial's key to PCG64
    # through ISeedSequence.  Each trial's symbols and rotations must be
    # trial_stream's, byte for byte.  Four trials in chunks of three, with
    # keys derived two trials at a time, cross both boundaries.
    trials = range(t, t + 4)
    with mock.patch.object(harness, "_KEY_BLOCK", 2):
        symbols = np.concatenate(list(harness._trial_draws(
            seed, 0, trials, 3, modulation.symbol_table, n)))
        rotations = np.concatenate(list(harness._trial_draws(
            seed, 1, trials, 3, PHASE_ALPHABET, (m_count - 1) * n)))
    for i, u in enumerate(trials):
        drawn = random_frame(n, modulation, trial_stream(seed, 0, u)).symbols
        assert symbols[i].tobytes() == drawn.tobytes()
        drawn = rotations_of(generate_phase_sequences(m_count, n, trial_stream(seed, 1, u)))[1:]
        assert rotations[i].tobytes() == drawn.tobytes()
