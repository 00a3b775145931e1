"""Experiment runner: determinism, stream derivation, serialization."""

import io
import json
import os
import subprocess
import sys
import typing
from dataclasses import is_dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import ofdm_papr
from ofdm_papr import (
    CcdfCurve,
    ExperimentConfig,
    ExperimentResult,
    FrequencyFrame,
    Method,
    ModulationScheme,
    PartitionScheme,
    default_threshold_grid,
    generate_phase_sequences,
    make_partition,
    pts_reduce,
    run_experiment,
    slm_reduce,
    synthesize,
    theoretical_ccdf_slm,
    threshold_grid,
    trial_stream,
    write_result,
)
from ofdm_papr import harness
from ofdm_papr.frame import pick_min, spend_peak_power
from ofdm_papr.pts import pts_candidates
from ofdm_papr.slm import PHASE_ALPHABET, slm_candidates

FAST_GRID = threshold_grid(0.0, 13.0, 0.5)


def quick_config(**kw):
    base = dict(n_subcarriers=16, oversample=1, trials=50,
                master_seed=99, thresholds_db=FAST_GRID)
    base.update(kw)
    return ExperimentConfig(**base)


def test_impulse_frame_has_worst_case_papr():
    # master seed 13 makes trial 0 draw four identical symbols (seed search)
    config = quick_config(n_subcarriers=4, trials=1, master_seed=13)
    result = run_experiment(config)
    assert round(result.samples_db[0], 2) == 6.02


def test_identical_configs_give_identical_samples():
    for method in (Method.NONE, Method.SLM, Method.PTS):
        a = run_experiment(quick_config(method=method))
        b = run_experiment(quick_config(method=method))
        assert_array_equal(a.samples_db, b.samples_db)
        assert_array_equal(a.side_info, b.side_info)


def test_methods_share_per_trial_frames():
    # the identity candidate ties each method to the baseline frame, so a
    # shared master seed forces per-trial never-worse behaviour
    base = run_experiment(quick_config(n_subcarriers=64, trials=200))
    slm = run_experiment(quick_config(n_subcarriers=64, trials=200, method=Method.SLM))
    pts = run_experiment(quick_config(n_subcarriers=64, trials=200, method=Method.PTS,
                                      pts_phase_order=2))
    assert np.all(slm.samples_db <= base.samples_db)
    assert np.all(pts.samples_db <= base.samples_db)


def test_side_info_ranges():
    slm = run_experiment(quick_config(method=Method.SLM, slm_branches=4))
    assert slm.side_info.min() >= 0 and slm.side_info.max() < 4
    assert slm.side_info.max() > 0  # the search does pick non-identity candidates
    pts = run_experiment(quick_config(method=Method.PTS, pts_blocks=4, pts_phase_order=2))
    assert pts.side_info.min() >= 0 and pts.side_info.max() < 16


def test_analytic_curve_attachment():
    none = run_experiment(quick_config(), analytic=True)
    assert none.analytic is not None
    expected = theoretical_ccdf_slm(16, 1, 10 ** (FAST_GRID / 10))
    assert_array_equal(none.analytic.probabilities, expected)

    slm = run_experiment(quick_config(method=Method.SLM, slm_branches=4), analytic=True)
    assert_array_equal(slm.analytic.probabilities,
                       theoretical_ccdf_slm(16, 4, 10 ** (FAST_GRID / 10)))

    pts = run_experiment(quick_config(method=Method.PTS), analytic=True)
    assert pts.analytic is None

    plain = run_experiment(quick_config())
    assert plain.analytic is None


def test_empirical_curve_derives_from_samples():
    result = run_experiment(quick_config(trials=123))
    assert result.empirical.sample_count == 123
    assert result.samples_db.size == 123
    z = FAST_GRID[10]
    assert result.empirical.probabilities[10] == np.mean(result.samples_db > z)


@pytest.mark.parametrize("bad", [
    dict(n_subcarriers=0),
    dict(oversample=0),
    dict(trials=0),
    dict(master_seed=-1),
    dict(master_seed=2 ** 64),
    dict(slm_branches=0),
    dict(method=Method.PTS, pts_blocks=5),
    dict(pts_blocks=0),
    dict(pts_phase_order=3),
    dict(thresholds_db=np.array([2.0, 1.0])),
    dict(method="slm"),
    dict(modulation="qpsk"),
    dict(partition_scheme="adjacent"),
    dict(trials=2.5),
    dict(trials=True),
    dict(n_subcarriers=16.0),
    dict(master_seed=False),
    dict(thresholds_db=np.array([0.0, np.inf])),
    dict(n_subcarriers=2 ** 21),
    dict(n_subcarriers=2 ** 18, oversample=8),
    dict(trials=10 ** 8 + 1),
    dict(method=Method.SLM, slm_branches=2 ** 20 + 1),
    dict(method=Method.PTS, pts_blocks=16),
    dict(method=Method.PTS, n_subcarriers=256, oversample=8, pts_blocks=8),
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(ValueError):
        run_experiment(quick_config(**bad))


@pytest.mark.parametrize("edge", [
    dict(n_subcarriers=2 ** 20),
    dict(n_subcarriers=2 ** 17, oversample=8),
    dict(trials=10 ** 8),
    dict(method=Method.SLM, slm_branches=2 ** 20),
    dict(method=Method.PTS, pts_blocks=16, pts_phase_order=2),
    dict(method=Method.PTS, n_subcarriers=128, oversample=8, pts_blocks=8),
    dict(method=Method.NONE, pts_blocks=16),
])
def test_work_bounds_admit_their_edge(edge):
    quick_config(**edge).validate()     # validated only: these runs are large


@pytest.mark.parametrize("call", [
    lambda: synthesize(FrequencyFrame(np.ones(2 ** 18)), 8),           # L*N = 2**21
    lambda: slm_reduce(FrequencyFrame(np.ones(16)),                    # M*L*N = 17 * 2**20
                       generate_phase_sequences(17, 16, np.random.default_rng(0)), 2 ** 16),
    lambda: pts_reduce(FrequencyFrame(np.ones(256)),                   # W^(V-1)*L*N = 4**7 * 2**11
                       make_partition(256, 8, PartitionScheme.ADJACENT), 4, 8),
], ids=["synthesize", "slm_reduce", "pts_reduce"])
def test_public_shells_bound_their_work(call):
    # The bounds of a run hold for a lone call too: L*N <= 2**20 and at most
    # 2**24 candidate samples.  Each call is one step past a bound and must
    # fail before it allocates the frame or the candidate block.
    with pytest.raises(ValueError, match="exceed"):
        call()


def test_trial_streams_are_purpose_separated():
    a = trial_stream(5, 0, 7).integers(0, 1 << 30, 4)
    b = trial_stream(5, 1, 7).integers(0, 1 << 30, 4)
    c = trial_stream(5, 0, 8).integers(0, 1 << 30, 4)
    again = trial_stream(5, 0, 7).integers(0, 1 << 30, 4)
    assert_array_equal(a, again)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("method", list(Method))
def test_a_run_hashes_stream_keys_once_per_key_block(method):
    # A run derives its per-trial streams a block of trials at a time: it
    # calls trial_stream once, for the PTS partition alone, and hashes the
    # keys of each stream it draws, frame and (for SLM) method, in one
    # _seed_words pass per key block: one for 1 trial, three for 600.
    streams_drawn = 1 + (method is Method.SLM)
    for trials, blocks in ((1, 1), (600, 3)):
        config = ExperimentConfig(n_subcarriers=16, oversample=1, method=method, trials=trials)
        with (mock.patch.object(harness, "trial_stream", wraps=trial_stream) as streams,
              mock.patch.object(harness, "_seed_words", wraps=harness._seed_words) as passes,
              mock.patch.object(harness, "_KEY_BLOCK", 256)):
            run_experiment(config)
        assert streams.call_count == (method is Method.PTS)
        assert passes.call_count == blocks * streams_drawn


@pytest.mark.parametrize("n, trials, chunks", [(128, 9, [4, 4, 1]), (16, 40, [32, 8])])
def test_a_pts_chunk_holds_what_its_pruned_search_spends(n, trials, chunks):
    # At L=8 the PTS search spends C bounds of 2N points per trial, not C
    # rows of L*N, so a chunk of 2^16 scratch samples holds 4 trials at
    # N=128, V=4, W=4: the 1 MiB that one trial's 64 rows of 1024 samples
    # take.  At N=16 it holds 32.
    config = ExperimentConfig(n_subcarriers=n, oversample=8, method=Method.PTS, pts_blocks=4,
                              pts_phase_order=4, trials=trials)
    seen = []

    def spy(symbols, partition, w, oversample, block, search=harness.pts_scores):
        seen.append((len(symbols), block.size))
        return search(symbols, partition, w, oversample, block)

    with mock.patch.object(harness, "pts_scores", spy):
        run_experiment(config)
    assert seen == [(k, k * 2 ** 16 // chunks[0]) for k in chunks]


def test_default_threshold_grid_shape():
    grid = default_threshold_grid()
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(13.0)
    assert grid.size == 261
    assert np.allclose(np.diff(grid), 0.05)


def test_threshold_grid_size_is_bounded():
    assert threshold_grid(0.0, 2.0 ** 20 - 1, 1.0).size == 2 ** 20
    with pytest.raises(ValueError, match="2\\*\\*20"):
        threshold_grid(0.0, 2.0 ** 20, 1.0)


def _dummy_result(analytic=None):
    curve = CcdfCurve(np.array([6.0, 9.0]), np.array([0.5, 0.01]), sample_count=2)
    config = quick_config(trials=2, thresholds_db=np.array([6.0, 9.0]))
    return ExperimentResult(
        config=config, empirical=curve, analytic=analytic,
        samples_db=np.array([9.5, 7.0]), side_info=np.zeros(2, dtype=np.int64),
        elapsed_seconds=0.25)


def test_array_holding_results_compare_and_hash_as_objects():
    # Field-wise == would ask an array for its truth value and raise; like
    # the frozen wrappers, these compare and hash by identity.
    one, other = _dummy_result(), _dummy_result()
    for a, b in ((one, other), (one.config, other.config), (one.empirical, other.empirical),
                 (ExperimentConfig(), ExperimentConfig())):
        assert a == a and a != b
        assert hash(a) == hash(a)


def test_csv_format_is_pinned():
    sink = io.StringIO()
    write_result(_dummy_result(), "csv", sink)
    assert sink.getvalue() == "papr_db,ccdf\n6.000000,0.500000\n9.000000,0.010000\n"


def test_json_schema():
    sink = io.StringIO()
    write_result(_dummy_result(), "json", sink)
    payload = json.loads(sink.getvalue())
    assert set(payload) == {"config", "thresholds_db", "ccdf", "samples_db",
                            "seed", "trials", "elapsed_seconds", "min_reliable_ccdf"}
    assert payload["thresholds_db"] == [6.0, 9.0]
    assert payload["ccdf"] == [0.5, 0.01]
    assert payload["seed"] == 99
    assert payload["trials"] == 2
    assert payload["config"]["modulation"] == "qpsk"
    assert payload["config"]["method"] == "none"
    assert payload["min_reliable_ccdf"] == 5.0

    with_analytic = _dummy_result(
        analytic=CcdfCurve(np.array([6.0, 9.0]), np.array([0.4, 0.02])))
    sink = io.StringIO()
    write_result(with_analytic, "json", sink)
    assert json.loads(sink.getvalue())["analytic_ccdf"] == [0.4, 0.02]


def test_json_round_trip_is_exact():
    result = run_experiment(quick_config(trials=40), analytic=True)
    sink = io.StringIO()
    write_result(result, "json", sink)
    payload = json.loads(sink.getvalue())
    assert payload["thresholds_db"] == result.empirical.thresholds_db.tolist()
    assert payload["ccdf"] == result.empirical.probabilities.tolist()
    assert payload["samples_db"] == result.samples_db.tolist()


def test_write_result_to_path(tmp_path):
    result = run_experiment(quick_config(trials=5))
    out = tmp_path / "curve.csv"
    write_result(result, "csv", out)
    assert out.read_text().startswith("papr_db,ccdf\n")
    with pytest.raises(ValueError, match="format"):
        write_result(result, "xml", out)


def test_write_failure_reports_path(tmp_path):
    result = run_experiment(quick_config(trials=5))
    missing = tmp_path / "no_such_dir" / "curve.csv"
    with pytest.raises(OSError, match="no_such_dir"):
        write_result(result, "csv", missing)


def test_bpsk_runs_too():
    result = run_experiment(quick_config(modulation=ModulationScheme.BPSK, trials=20))
    assert result.samples_db.size == 20


def test_config_replace_keeps_validation():
    config = quick_config(method=Method.PTS)
    with pytest.raises(ValueError, match="divide"):
        run_experiment(replace(config, pts_blocks=7))


@pytest.mark.parametrize("modulation", list(ModulationScheme))
@pytest.mark.parametrize("oversample", [1, 2, 8])
@pytest.mark.parametrize("method", list(Method))
def test_a_chunk_row_gets_what_it_gets_searched_alone(method, oversample, modulation):
    # The cores search a chunk of trials in one call.  Each row must get, bit
    # for bit, what a chunk of that row alone gives: index, PAPR and samples.
    n, m, v, w, trials = 16, 4, 4, 2, 128
    rng = np.random.default_rng(8)
    partition = make_partition(n, v, PartitionScheme.PSEUDO_RANDOM, rng)
    table = modulation.symbol_table
    symbols = table[rng.integers(0, table.size, (trials, n))]
    if method is Method.NONE:
        m = 1   # the identity alone
    rotations = np.ones((trials, m, n), dtype=np.complex128)
    rotations[:, 1:] = PHASE_ALPHABET[rng.integers(0, PHASE_ALPHABET.size, (trials, m - 1, n))]

    candidates = {Method.NONE: 1, Method.SLM: m, Method.PTS: w ** (v - 1)}[method]

    def search(rows):
        block = np.empty((len(symbols[rows]), candidates, oversample * n), dtype=np.complex128)
        if method is Method.PTS:
            pts_candidates(symbols[rows], partition, w, oversample, block)
        else:
            slm_candidates(symbols[rows], rotations[rows], oversample, block)
        scores = spend_peak_power(block.copy())
        return pick_min(scores), scores, block

    chunk = search(slice(None))
    for row in range(trials):
        alone = search(slice(row, row + 1))
        for together, by_itself in zip(chunk, alone):
            assert together[row].tobytes() == by_itself[0].tobytes()
    if method is not Method.NONE:
        # The chunk mixes rows whose winner is row 0, the unmodified frame,
        # with rows whose winner is not.
        assert 0 < np.count_nonzero(chunk[0] == 0) < trials


def fresh_interpreter(code, *args):
    """stdout of `code` run by a fresh interpreter that imports this package."""
    src = str(Path(ofdm_papr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, check=True).stdout


def test_importing_the_package_does_not_load_numpy_random():
    # A run registers its key type with numpy.random on first use, not at
    # import: loading numpy.random at import raised the import-only peak
    # RSS from 28.6 to 34.3 MiB (numpy 2.4.6).
    probe = "import sys, {}; print('numpy.random' in sys.modules)"
    if fresh_interpreter(probe.format("numpy")).strip() == "True":
        pytest.skip("a bare import numpy loads numpy.random")
    assert fresh_interpreter(probe.format("ofdm_papr, ofdm_papr.cli")).strip() == "False"


@pytest.mark.parametrize("name", [name for name in ofdm_papr.__all__
                                  if is_dataclass(getattr(ofdm_papr, name))])
def test_every_public_dataclass_resolves_its_type_hints(name):
    # The modules postpone their annotations, so a name a field's annotation
    # uses but its module never imports fails only when someone resolves it.
    assert typing.get_type_hints(getattr(ofdm_papr, name))


# Runs one config in a fresh interpreter, after a 20-trial warm-up, and
# prints its minor page faults per trial.
FAULT_PROBE = """
import json, resource, sys
from dataclasses import replace
from ofdm_papr import ExperimentConfig, Method, run_experiment
fields = json.loads(sys.argv[1])
config = ExperimentConfig(**{**fields, "method": Method(fields["method"])})
run_experiment(replace(config, trials=20))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / config.trials)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
@pytest.mark.parametrize("fields", [
    dict(method="slm", n_subcarriers=128, oversample=8, slm_branches=16, trials=400),
    dict(method="slm", n_subcarriers=256, oversample=8, slm_branches=8, trials=200),
    dict(method="pts", n_subcarriers=128, oversample=8, pts_blocks=4, pts_phase_order=4,
         trials=300),
], ids=["slm-N128-M16", "slm-N256-M8", "pts-N128-V4-W4"])
def test_a_run_does_not_page_fault_every_trial(fields):
    # A run that frees and re-allocates candidate-sized arrays every trial
    # can have the allocator hand them back to the OS and fault them in
    # again: hundreds of faults per trial, and several times the time.
    assert float(fresh_interpreter(FAULT_PROBE, json.dumps(fields))) < 5


# Runs N=16, L=1 none in a fresh interpreter and prints its peak RSS above
# the import-only peak, in bytes per trial (Linux reports ru_maxrss in KiB).
RSS_PROBE = """
import resource, sys
from ofdm_papr import ExperimentConfig, Method, run_experiment
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
config = ExperimentConfig(n_subcarriers=16, oversample=1, method=Method.NONE,
                          trials=int(sys.argv[1]))
run_experiment(config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024 / config.trials)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads ru_maxrss in KiB")
def test_a_run_holds_a_bounded_number_of_bytes_per_trial():
    # A run keeps samples_db and side_info, 16 B per trial, and empirical_ccdf
    # adds a sorted copy and a finiteness mask, 9 B; the first run's fixed
    # cost, about 7 MiB, adds 23 B per trial at 3e5 trials.  That was 49 B in
    # all (numpy 2.4.6).  Stream keys derived for every trial at once, not in
    # blocks, read 186 B.
    assert float(fresh_interpreter(RSS_PROBE, "300000")) < 64
