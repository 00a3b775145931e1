"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion.  The master seed is fixed so the whole suite is deterministic.
The criteria that share the 1e5- and 1e4-trial session fixtures are marked
``slow``; ``pytest -m "not slow"`` skips them for a quick inner loop.

Criterion 2 is an expected failure (xfail, strict).  The closed-form curve
1 - (1 - e^{-z})^N models the frame peak as the maximum of N independent
unit-mean exponential power samples.  A real frame is self-normalised: with
unit-magnitude constellations the frame energy is pinned exactly to N, so
the measured per-frame PAPR distribution is steeper than the independent-
samples model - the empirical CCDF sits ~4-5 percentage points above the
formula around its knee (5-6 dB) and below it in the tail, a systematic
deviation of roughly 50 binomial standard errors at 1e5 trials for every
seed (a control run with truly independent exponential samples passes the
same machinery).  The closed form is a good ~0.1 dB approximation for
plotting, but it is not compatible with a 3-standard-error band at this
sample size, so the check is implemented exactly as stated and left red.
"""

from dataclasses import replace
from functools import cache
from itertools import product

import numpy as np
import pytest
from scipy.stats import chi2

from ofdm_papr import (
    ExperimentConfig,
    Method,
    ModulationScheme,
    PartitionScheme,
    default_threshold_grid,
    enumerate_phase_vectors,
    FrequencyFrame,
    gaussianity_stats,
    generate_phase_sequences,
    make_partition,
    papr,
    pts_reduce,
    random_frame,
    run_experiment,
    run_experiments,
    slm_reduce,
    synthesize,
    theoretical_ccdf_original,
    time_samples,
    trial_stream,
)
from ofdm_papr import harness
from ofdm_papr.cli import cli_main
from ofdm_papr.slm import PHASE_ALPHABET
from test_frame import direct_synthesis

ACCEPT_SEED = 2025
GRID = default_threshold_grid()
QPSK = ModulationScheme.QPSK


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {state}{detail}", flush=True)


def _papr0_at(samples_db: np.ndarray, ccdf: float = 1e-2) -> float:
    """Empirical threshold with the given exceedance probability."""
    ordered = np.sort(samples_db)[::-1]
    return float(ordered[int(ccdf * ordered.size)])


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def nyquist_runs():
    """Unmodified OFDM and SLM at M=2 and M=4, N=64, QPSK, L=1, 1e5 frames: one search."""
    base = ExperimentConfig(n_subcarriers=64, oversample=1, method=Method.NONE,
                            trials=100_000, master_seed=ACCEPT_SEED, thresholds_db=GRID)
    return run_experiments([base] + [replace(base, method=Method.SLM, slm_branches=m)
                                     for m in (2, 4)])


@pytest.fixture(scope="session")
def baseline_nyquist(nyquist_runs):
    """Unmodified OFDM, N=64, QPSK, L=1, 1e5 frames."""
    return nyquist_runs[0]


@pytest.fixture(scope="session")
def slm_nyquist(nyquist_runs):
    """SLM at M=2 and M=4 on the same seeds as the baseline."""
    return dict(zip((2, 4), nyquist_runs[1:]))


@pytest.fixture(scope="session")
def slm_sweep():
    """SLM candidate-count sweep, L=8, 1e4 trials, N in {64, 128}: one search per N."""
    out = {}
    ms = (1, 2, 4, 8, 16)
    for n in (64, 128):
        results = run_experiments([ExperimentConfig(
            n_subcarriers=n, oversample=8, method=Method.SLM, slm_branches=m,
            trials=10_000, master_seed=ACCEPT_SEED, thresholds_db=GRID) for m in ms])
        out.update({(n, m): result.samples_db for m, result in zip(ms, results)})
    return out


@pytest.fixture(scope="session")
def pts_runs():
    """PTS V=4, W=4, pseudo-random partition, L=8, 1e4 trials."""
    out = {}
    for n in (64, 128):
        result = run_experiment(ExperimentConfig(
            n_subcarriers=n, oversample=8, method=Method.PTS,
            pts_blocks=4, pts_phase_order=4,
            partition_scheme=PartitionScheme.PSEUDO_RANDOM,
            trials=10_000, master_seed=ACCEPT_SEED, thresholds_db=GRID))
        out[n] = result.samples_db
    return out


# --------------------------------------------------------------- criteria

def test_criterion_1_transform_oracle():
    """Fast transform vs direct O(P^2) summation, P in {2..256}, n=100 each."""
    worst = 0.0
    for p in (2, 4, 8, 16, 32, 64, 128, 256):
        rng = np.random.default_rng(1000 + p)
        frames = rng.normal(size=(100, p)) + 1j * rng.normal(size=(100, p))
        worst = max(worst, np.abs(time_samples(frames) - direct_synthesis(frames)).max())
    ok = worst < 1e-9
    _report(1, "transform matches direct summation", ok, f" (max err {worst:.2e})")
    assert ok


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason="closed-form curve is an independent-samples approximation; the "
    "self-normalised finite-N PAPR deviates by ~50 binomial standard errors "
    "at 1e5 trials (see module docstring)")
def test_criterion_2_closed_form_agreement(baseline_nyquist):
    """Empirical baseline CCDF within 3 binomial SE of the closed form."""
    # landmark of the closed form itself: the 1e-2 crossing sits at 9.42 dB
    z_star = 8.759110827357588  # numeric inversion, frozen in test_stats
    assert abs(theoretical_ccdf_original(64, z_star) - 0.01) < 1e-12
    assert abs(10 * np.log10(z_star) - 9.42) < 5e-3

    emp = baseline_nyquist.empirical.probabilities
    trials = baseline_nyquist.config.trials
    pred = theoretical_ccdf_original(64, 10 ** (GRID / 10))
    mask = pred >= 1e-3
    se = np.sqrt(pred * (1 - pred) / trials)
    dev = np.abs(emp - pred)[mask] / se[mask]
    ok = dev.max() <= 3.0
    worst = GRID[mask][np.argmax(dev)]
    _report(2, "closed-form CCDF agreement at 3 SE", ok,
            f" (max deviation {dev.max():.1f} SE at {worst:.2f} dB; "
            f"empirical 1e-2 threshold {_papr0_at(baseline_nyquist.samples_db):.2f} dB "
            f"vs closed form 9.42 dB)")
    assert ok, (
        f"empirical CCDF deviates from the closed form by {dev.max():.1f} "
        f"binomial standard errors at {worst:.2f} dB")


@pytest.mark.slow
def test_criterion_3_candidate_product_law(baseline_nyquist, slm_nyquist):
    """SLM CCDF equals (empirical baseline CCDF)^M within 3 standard errors.

    Both sides are estimates, so the yardstick is the exact sampling error
    of their difference: with p the baseline exceedance, q = p^M,

        Var(emp_slm)       = q(1-q)/n
        Var(emp_base^M)    = (M p^{M-1})^2 p(1-p)/n      (delta method)
        Cov(both)          = M p^{2M-1} (1-p)/n

    where the covariance uses {slm > z} being a subset of {base > z}: the
    runs share per-trial frames and the identity candidate.  Grid points
    where the baseline estimate saturates at exactly 1 carry a zero-width
    band and no information, and are skipped.
    """
    p = baseline_nyquist.empirical.probabilities
    trials = baseline_nyquist.config.trials
    all_ok = True
    details = []
    for m, run in slm_nyquist.items():
        emp = run.empirical.probabilities
        q = p ** m
        v_slm = q * (1 - q) / trials
        v_base = (m * p ** (m - 1)) ** 2 * p * (1 - p) / trials
        cov = m * p ** (2 * m - 1) * (1 - p) / trials
        var = v_slm + v_base - 2 * cov
        mask = (q >= 1e-3) & (var > 0)
        dev = np.abs(emp - q)[mask] / np.sqrt(var[mask])
        all_ok &= dev.max() <= 3.0
        details.append(f"M={m} max {dev.max():.2f} SE")
    _report(3, "SLM candidate product law", all_ok, " (" + ", ".join(details) + ")")
    assert all_ok


def test_criterion_4_never_worse():
    """SLM and PTS PAPR <= baseline PAPR on every one of 1e4 frames, exactly."""
    n, trials = 64, 10_000
    partition = make_partition(n, 4, PartitionScheme.PSEUDO_RANDOM,
                               trial_stream(ACCEPT_SEED, 2))
    slm_bad = pts_bad = 0
    for t in range(trials):
        freq = random_frame(n, QPSK, trial_stream(ACCEPT_SEED, 0, t))
        base = papr(synthesize(freq, 1)).linear
        sequences = generate_phase_sequences(4, n, trial_stream(ACCEPT_SEED, 1, t))
        if slm_reduce(freq, sequences, 1).papr.linear > base:
            slm_bad += 1
        if pts_reduce(freq, partition, 2, 1).papr.linear > base:
            pts_bad += 1
    ok = slm_bad == 0 and pts_bad == 0
    _report(4, "never worse than baseline, frame by frame", ok,
            f" (violations: slm {slm_bad}, pts {pts_bad} of {trials})")
    assert ok


def test_criterion_5_exhaustive_optimality():
    """PTS equals a brute-force scan of all explicitly rebuilt spectra."""
    n, v, w, frames = 16, 4, 2, 200
    partition = make_partition(n, v, PartitionScheme.PSEUDO_RANDOM,
                               trial_stream(ACCEPT_SEED, 2))
    vectors = enumerate_phase_vectors(w, v)
    index_mismatch = papr_mismatch = 0
    for t in range(frames):
        freq = random_frame(n, QPSK, trial_stream(ACCEPT_SEED, 0, t))
        result = pts_reduce(freq, partition, w, 1)
        values = []
        for vec in vectors:
            weighted = np.zeros(n, dtype=complex)
            for block, factor in enumerate(vec.factors):
                weighted = weighted + factor * np.where(
                    partition.block_of == block, freq.symbols, 0)
            values.append(papr(synthesize(FrequencyFrame(weighted), 1)).linear)
        values = np.array(values)
        oracle = int(np.flatnonzero(values <= values.min() * (1 + 1e-12))[0])
        if result.chosen.combination_index != oracle:
            index_mismatch += 1
        if abs(result.papr.linear - values[oracle]) > 1e-9:
            papr_mismatch += 1
        assert result.combinations_searched == w ** (v - 1)
    ok = index_mismatch == 0 and papr_mismatch == 0
    _report(5, "PTS exhaustive-search optimality", ok,
            f" (index mismatches {index_mismatch}, papr mismatches {papr_mismatch} "
            f"of {frames})")
    assert ok


@pytest.mark.slow
def test_criterion_6_candidate_count_ordering(slm_sweep):
    """The 1e-2 CCDF threshold strictly decreases as M grows, N in {64,128}."""
    ok = True
    details = []
    for n in (64, 128):
        papr0 = [_papr0_at(slm_sweep[(n, m)]) for m in (1, 2, 4, 8, 16)]
        ok &= all(b < a for a, b in zip(papr0, papr0[1:]))
        details.append(f"N={n}: " + " > ".join(f"{v:.2f}" for v in papr0))
    _report(6, "more candidates keep lowering the 1e-2 threshold", ok,
            " (" + "; ".join(details) + " dB)")
    assert ok


@pytest.mark.slow
def test_criterion_7_pts_beats_slm(slm_sweep, pts_runs):
    """PTS (V=4, W=4) beats SLM (M=4) at the 1e-2 threshold, N in {64,128}."""
    ok = True
    details = []
    for n in (64, 128):
        slm = _papr0_at(slm_sweep[(n, 4)])
        pts = _papr0_at(pts_runs[n])
        ok &= pts < slm
        details.append(f"N={n}: pts {pts:.2f} vs slm {slm:.2f}")
    _report(7, "PTS outperforms SLM at the 1e-2 threshold", ok,
            " (" + "; ".join(details) + " dB)")
    assert ok


def test_criterion_8_gaussian_moments():
    """1e4 N=128 frames: |mean| < 0.01, variance 0.5 +/- 0.02, |kurt| < 0.1."""
    frames = [synthesize(random_frame(128, QPSK, trial_stream(ACCEPT_SEED, 0, t)), 1)
              for t in range(10_000)]
    stats = gaussianity_stats(frames)
    ok = (abs(stats.mean_re) < 0.01 and abs(stats.mean_im) < 0.01
          and abs(stats.variance - 0.5) < 0.02
          and abs(stats.excess_kurtosis_re) < 0.1
          and abs(stats.excess_kurtosis_im) < 0.1)
    _report(8, "synthesized samples approach Gaussian moments", ok,
            f" (mean {stats.mean_re:+.4f}/{stats.mean_im:+.4f}, "
            f"variance {stats.variance:.4f}, "
            f"kurtosis {stats.excess_kurtosis_re:+.4f}/{stats.excess_kurtosis_im:+.4f})")
    assert ok


def test_criterion_9_reproducible_csv(tmp_path):
    """Same config and seed emit byte-identical CSV."""
    argv = ["--n", "64", "--oversample", "8", "--method", "slm", "--slm-m", "4",
            "--trials", "500", "--seed", str(ACCEPT_SEED), "--format", "csv"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes()
    _report(9, "byte-identical CSV on repeated runs", ok)
    assert ok


def _exact_min_ccdf(n: int, oversample: int, modulation, weights: np.ndarray) -> np.ndarray:
    """P(min PAPR > z) on GRID over all equally likely frames of N symbols, by np.fft.ifft.

    Each frame's minimum is over its C candidates, the frame's spectrum
    weighted by each row of the (C, N) `weights`, each transformed whole.
    """
    table, bits, half = modulation.symbol_table, modulation.bits_per_symbol, n // 2
    count = table.size ** n
    chunks = max(1, count * weights.size * oversample >> 19)   # 2^19 candidate samples each
    exceed = np.zeros(GRID.size)
    for frames in np.array_split(np.arange(count), chunks):
        digits = frames[:, None] >> bits * np.arange(n) & table.size - 1
        weighted = table[digits][:, None, :] * weights
        spectra = np.zeros(weighted.shape[:2] + (oversample * n,), dtype=complex)
        spectra[..., :half] = weighted[..., :half]
        spectra[..., oversample * n - (n - half):] = weighted[..., half:]
        power = np.abs(np.fft.ifft(spectra)) ** 2
        least = (power.max(axis=-1) / power.mean(axis=-1)).min(axis=-1)
        # A constant envelope has PAPR 1 exactly.  Rounding can put it a few
        # ulps either side; the run reads 0 or -ulp dB, never above 0 dB.
        least[np.abs(least - 1) <= 1e-12] = 1
        exceed += (10 * np.log10(least)[:, None] > GRID).sum(axis=0)
    return exceed / count


@cache
def _exact_ccdf(n: int, oversample: int, modulation=QPSK) -> np.ndarray:
    """P(PAPR > z) on GRID over all equally likely frames of N symbols."""
    return _exact_min_ccdf(n, oversample, modulation, np.ones((1, n)))


def _worst_deviation(configs, exact_of) -> float:
    """Largest |empirical - exact| / SE of one shared run over the grid points whose
    SE is not zero; where the exact CCDF is 0 or 1 the run must match it exactly."""
    worst = 0.0
    for config, run in zip(configs, run_experiments(configs)):
        q = exact_of(config)
        emp = run.empirical.probabilities
        se = np.sqrt(q * (1 - q) / config.trials)
        informative = se > 0
        assert (emp[~informative] == q[~informative]).all()
        worst = max(worst, (np.abs(emp - q)[informative] / se[informative]).max())
    return worst


def _exact_configs(n, oversample, modulation, slm_branches):
    """none, then SLM at each M, on shared frames: 1e5 trials at ACCEPT_SEED."""
    base = ExperimentConfig(n_subcarriers=n, modulation=modulation, oversample=oversample,
                            trials=100_000, master_seed=ACCEPT_SEED)
    return [base] + [replace(base, method=Method.SLM, slm_branches=m) for m in slm_branches]


@pytest.mark.slow
@pytest.mark.parametrize("n, oversample", [(4, 1), (4, 8), (8, 1), (8, 8), (6, 1), (6, 3)])
def test_the_run_ccdf_matches_the_exact_ccdf(n, oversample):
    """none and QPSK SLM runs against their exact CCDFs, p and p^M, within 4 SE.

    All 4^N QPSK frames are equally likely, so enumerating them gives the
    exact CCDF p of the unmodified frame.  A QPSK symbol times a uniform
    rotation from {+-1, +-j} is a uniform QPSK symbol independent of the
    first, so SLM's M candidates are i.i.d. frames and its exact CCDF is
    p^M.  This checks the run's draws without the golden digests: a biased
    bit field would shift the CCDF.  The bound is the largest
    |empirical - exact| / SE over the grid points whose SE is not zero;
    where the exact CCDF is 0 or 1 the run must match it exactly.
    """
    exact = _exact_ccdf(n, oversample)
    worst = _worst_deviation(
        _exact_configs(n, oversample, QPSK, (2, 4)),
        lambda config: exact ** (config.slm_branches if config.method is Method.SLM else 1))
    _report(10, f"run CCDF vs exact enumeration, N={n} L={oversample}", worst <= 4.0,
            f" (max deviation {worst:.2f} SE)")
    assert worst <= 4.0


@pytest.mark.slow
@pytest.mark.parametrize("n, oversample", [(8, 1), (8, 8), (16, 1), (16, 8), (12, 1),
                                            (12, 5)])
def test_the_bpsk_run_ccdf_matches_the_exact_ccdf(n, oversample):
    """none and BPSK SLM runs against p_BPSK and p_BPSK * p_QPSK^(M-1), within 4 SE.

    A BPSK symbol times a uniform rotation from {+-1, +-j} is a uniform QPSK
    symbol independent of the BPSK one, so SLM's candidates 1 ... M-1 are
    i.i.d. uniform QPSK frames, independent of candidate 0 (p_BPSK^M would
    be wrong).  p_QPSK enumerates 4^N frames, so SLM runs at N=8 only.  The
    bounds are those of the QPSK test.  This is the oracle of the run's
    1-bit BPSK draws.
    """
    bpsk = _exact_ccdf(n, oversample, ModulationScheme.BPSK)
    worst = _worst_deviation(
        _exact_configs(n, oversample, ModulationScheme.BPSK, (2, 4) if n == 8 else ()),
        lambda config: bpsk * (_exact_ccdf(n, oversample) ** (config.slm_branches - 1)
                               if config.method is Method.SLM else 1))
    _report(10, f"BPSK run CCDF vs exact enumeration, N={n} L={oversample}", worst <= 4.0,
            f" (max deviation {worst:.2f} SE)")
    assert worst <= 4.0


def _exact_pts_ccdf(n: int, oversample: int, modulation, w: int, scheme) -> np.ndarray:
    """P(min PAPR > z) on GRID for PTS at V=4: each frame's minimum over the
    W^3 orbit representatives (block 1 at +1) of the run's partition."""
    block_of = make_partition(n, 4, scheme, trial_stream(ACCEPT_SEED, 2)).block_of
    heads = np.array(list(product([1, -1, 1j, -1j][:w], repeat=3)))
    weights = np.hstack([np.ones((heads.shape[0], 1)), heads])[:, block_of]   # (C, N)
    return _exact_min_ccdf(n, oversample, modulation, weights)


@pytest.mark.slow
@pytest.mark.parametrize("n, modulation, w, scheme, oversample", [
    (8, QPSK, 2, PartitionScheme.ADJACENT, 1),
    (8, QPSK, 2, PartitionScheme.INTERLEAVED, 8),
    (8, QPSK, 4, PartitionScheme.PSEUDO_RANDOM, 1),
    (16, ModulationScheme.BPSK, 4, PartitionScheme.PSEUDO_RANDOM, 1),
    (12, ModulationScheme.BPSK, 2, PartitionScheme.PSEUDO_RANDOM, 5),
])
def test_the_pts_run_ccdf_matches_the_exact_ccdf(n, modulation, w, scheme, oversample):
    """PTS runs (V=4) against the exact CCDF of the per-frame minimum, within 4 SE.

    The exact CCDF enumerates every frame and takes its minimum PAPR over
    the orbit representatives, so it checks the search as well as the
    draws.  The bounds are those of the none and SLM oracles.  At QPSK
    N=8, W=4, L=1 one frame in 8 reaches a constant envelope, an atom at
    0 dB that the grid's first point checks.
    """
    exact = _exact_pts_ccdf(n, oversample, modulation, w, scheme)
    config = ExperimentConfig(
        n_subcarriers=n, modulation=modulation, oversample=oversample, method=Method.PTS,
        pts_blocks=4, pts_phase_order=w, partition_scheme=scheme, trials=100_000,
        master_seed=ACCEPT_SEED)
    worst = _worst_deviation([config], lambda config: exact)
    _report(10, f"PTS run CCDF vs exact enumeration, {modulation.name} N={n} W={w} "
            f"{scheme.value} L={oversample}", worst <= 4.0, f" (max deviation {worst:.2f} SE)")
    assert worst <= 4.0


@pytest.mark.parametrize("purpose, table, count", [
    (0, ModulationScheme.BPSK.symbol_table, 16),
    (0, QPSK.symbol_table, 16),
    (1, PHASE_ALPHABET, 3 * 16),   # the rotations of SLM candidates 1 ... 3 at M=4
], ids=["bpsk", "qpsk", "rotations"])
def test_each_drawn_symbol_is_uniform_on_its_alphabet(purpose, table, count):
    """A chi-square per cell (one subcarrier, or one rotation entry) of 2e4
    trials' draws against the uniform alphabet, Bonferroni over the cells.

    The run's draws keep the top bits of each 32-bit word; a biased bit
    field shows in the cell frequencies even where a CCDF hides it.
    """
    draws = np.concatenate(list(harness._trial_draws(7, purpose, range(20_000), 4096, table,
                                                     count)))
    counts = (draws[..., None] == table).sum(axis=0)                 # (cells, alphabet)
    expected = draws.shape[0] / table.size
    p = chi2.sf(((counts - expected) ** 2 / expected).sum(axis=1), table.size - 1)
    adjusted = p.min() * count
    _report(10, f"symbol frequencies, {table.size} points x {count} cells", adjusted >= 1e-6,
            f" (smallest p x cells {adjusted:.2g})")
    assert adjusted >= 1e-6
