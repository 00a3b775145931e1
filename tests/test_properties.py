"""Properties of the run path over random small configs (hypothesis).

``run_experiment`` calls only the array cores; the public functions wrap
the same cores in validated objects.  These properties keep the two from
drifting apart, and hold the run path to its guarantees:

* each trial's sample and side information equal, bit for bit, the values
  rebuilt from the trial's streams through the public functions;
* SLM and PTS samples are never above the unmodified frame's, exactly;
* a K-trial run is the first K trials of a longer run.

V is limited to W^V <= 256 so the exhaustive PTS search stays small.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdm_papr import (
    ExperimentConfig,
    Method,
    ModulationScheme,
    PartitionScheme,
    generate_phase_sequences,
    make_partition,
    papr,
    pts_reduce,
    random_frame,
    run_experiment,
    slm_reduce,
    synthesize,
    threshold_grid,
    trial_stream,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def configs(draw):
    n = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    w = draw(st.sampled_from([2, 4]))
    v = draw(st.sampled_from([v for v in (1, 2, 4, 8) if n % v == 0 and w ** v <= 256]))
    return ExperimentConfig(
        n_subcarriers=n,
        modulation=draw(st.sampled_from(ModulationScheme)),
        oversample=draw(st.sampled_from([1, 2, 4, 8])),
        method=draw(st.sampled_from(Method)),
        slm_branches=draw(st.integers(1, 8)),
        pts_blocks=v,
        pts_phase_order=w,
        partition_scheme=draw(st.sampled_from(PartitionScheme)),
        trials=draw(st.integers(1, 6)),
        master_seed=draw(st.integers(0, 2 ** 64 - 1)),
        thresholds_db=threshold_grid(0.0, 13.0, 0.5),
    )


def rebuilt_trial(config, t):
    """(PAPR dB, side information) of trial t through the public functions."""
    seed, n, oversample = config.master_seed, config.n_subcarriers, config.oversample
    frame = random_frame(n, config.modulation, trial_stream(seed, 0, t))
    if config.method is Method.NONE:
        return papr(synthesize(frame, oversample)).db, 0
    if config.method is Method.SLM:
        sequences = generate_phase_sequences(config.slm_branches, n, trial_stream(seed, 1, t))
        result = slm_reduce(frame, sequences, oversample)
        return result.papr.db, result.selected_index
    partition = make_partition(n, config.pts_blocks, config.partition_scheme,
                               trial_stream(seed, 2))
    result = pts_reduce(frame, partition, config.pts_phase_order, oversample)
    return result.papr.db, result.chosen.combination_index


@SETTINGS
@given(configs())
def test_each_trial_matches_the_public_functions(config):
    result = run_experiment(config)
    samples, side_info = zip(*(rebuilt_trial(config, t) for t in range(config.trials)))
    assert np.array(samples).tobytes() == result.samples_db.tobytes()
    assert np.array(side_info, dtype=np.int64).tobytes() == result.side_info.tobytes()


@SETTINGS
@given(configs())
def test_never_worse_than_the_unmodified_frame(config):
    result = run_experiment(config)
    unmodified = run_experiment(replace(config, method=Method.NONE))
    assert np.all(result.samples_db <= unmodified.samples_db)


@SETTINGS
@given(configs(), st.integers(1, 6))
def test_a_shorter_run_is_a_prefix(config, k):
    k = min(k, config.trials)
    full = run_experiment(config)
    short = run_experiment(replace(config, trials=k))
    assert short.samples_db.tobytes() == full.samples_db[:k].tobytes()
    assert short.side_info.tobytes() == full.side_info[:k].tobytes()
