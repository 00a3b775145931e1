"""Untimed correctness checks on the benchmark's CLI outputs.

Each timed call writes one JSON file per method.  After the timed loop
the first ``CSV_CALLS`` calls are rerun untimed with ``--format csv`` for
their CSV bytes (a rerun costs as much as the call, so not every call
gets one), and the checks below mark failed trials;
``failed_trial_frac`` is their share of all trials run.

* Output shape: exit status 0, every file present, the config echo and
  sample count as requested, the CCDF equal, bit for bit, to the
  exceedance fractions recomputed here from ``samples_db``, and any CSV
  equal to the README's ``%.6f,%.6f`` rows of that CCDF.  A failure fails
  every trial of the call.
* Reference (a): on a seeded subset of trials every candidate is rebuilt
  independently of the package from the documented stream rule
  (``numpy.random.default_rng([seed, purpose, trial])``; purpose 0 frame,
  1 SLM sequences, 2 PTS partition) and ``np.fft.ifft(norm="ortho")``.
  The best candidate's PAPR must match the reported sample within
  ``REFERENCE_TOL_DB``.  The package's radix-2 transform and pocketfft
  differ by a few ulps (<= 4e-15 relative), i.e. ~1e-13 dB, so the
  tolerance is loose for rounding and tight for any real defect.
* Never-worse (b): every SLM/PTS sample is <= the ``none`` sample of the
  same seed and trial, exactly.
* Order independence (c): a K-trial run's samples equal the first K of
  the full run, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np
from ofdm_papr import (ExperimentConfig, Method, ModulationScheme, PartitionScheme,
                       run_experiment)
from ofdm_papr.cli import cli_main

from workloads import Workload

REFERENCE_TOL_DB = 1e-9
REFERENCE_TRIALS = 4      # per call and method
PREFIX_TRIALS = 4         # K of the order-independence check
CSV_CALLS = 3             # calls per run rerun for their CSV bytes

# Constellation and phase alphabets as documented by the package:
# QPSK Gray map indexed by the bit pair's binary value (00 +1, 01 +j,
# 10 -j, 11 -1); SLM rotations and PTS W=4 factors {+1, -1, +j, -j}.
_QPSK = np.array([1.0, 1.0j, -1.0j, -1.0])
_ROTATIONS = np.array([1.0, -1.0, 1.0j, -1.0j])
_PTS_ALPHABET = {2: np.array([1.0, -1.0]), 4: _ROTATIONS}


def _stream(seed: int, purpose: int, trial: int | None = None) -> np.random.Generator:
    return np.random.default_rng([seed, purpose] if trial is None else [seed, purpose, trial])


def _papr_db(spectra: np.ndarray, oversample: int) -> np.ndarray:
    """PAPR in dB of each row's mid-spectrum zero-padded ortho IFFT."""
    n = spectra.shape[-1]
    padded = np.zeros(spectra.shape[:-1] + (oversample * n,), dtype=np.complex128)
    padded[..., :n // 2] = spectra[..., :n // 2]
    padded[..., oversample * n - n // 2:] = spectra[..., n // 2:]
    power = np.abs(np.fft.ifft(padded, norm="ortho")) ** 2
    return 10.0 * np.log10(power.max(axis=-1) / power.mean(axis=-1))


def reference_sample_db(w: Workload, method: str, seed: int, trial: int) -> float:
    """Best-candidate PAPR of one trial, rebuilt without the package."""
    frame = _QPSK[_stream(seed, 0, trial).integers(0, 4, w.n)]
    if method == "none":
        candidates = frame[None, :]
    elif method == "slm":
        rng = _stream(seed, 1, trial)
        rotations = np.ones((w.slm_m, w.n), dtype=np.complex128)
        for m in range(1, w.slm_m):
            rotations[m] = _ROTATIONS[rng.integers(0, 4, w.n)]
        candidates = frame * rotations
    else:
        block_of = np.empty(w.n, dtype=np.intp)
        block_of[_stream(seed, 2).permutation(w.n)] = np.repeat(
            np.arange(w.pts_v), w.n // w.pts_v)
        weights = np.array(list(product(_PTS_ALPHABET[w.pts_w], repeat=w.pts_v)))
        candidates = frame * weights[:, block_of]      # one full spectrum per combination
    return float(_papr_db(candidates, w.oversample).min())


def calibration_kernel(w: Workload) -> None:
    """Fixed work shaped like the workload, without the package.

    The reference rebuild of the workload's first ``calibration_trials``
    trials at seed 0: the same stream setup, draws, transforms and scoring,
    so contention slows it much as it slows a call.
    """
    for trial in range(w.calibration_trials):
        for method in w.methods:
            reference_sample_db(w, method, 0, trial)


def reference_picks(trials: int, subset_seed: int) -> list[int]:
    """The trials of a call whose candidates are rebuilt by the reference."""
    return random.Random(subset_seed).sample(range(trials), min(REFERENCE_TRIALS, trials))


@dataclass
class CallRecord:
    """One timed call: its seed, trial count, wall time and CLI exit status."""

    index: int
    seed: int
    trials: int
    out: Path
    status: int | None = None    # None when cli_main raised
    wall_s: float = 0.0
    calibration_s: float = 0.0   # the calibration kernel run right after the call


@dataclass
class Outputs:
    """What one call wrote, per method: the parsed JSON and, if rerun, the CSV bytes."""

    json: dict[str, dict]
    csv: dict[str, bytes]


def load_outputs(w: Workload, call: CallRecord, with_csv: bool) -> Outputs | None:
    """Read the call's JSON and, if asked, rerun it untimed for CSV; None on failure."""
    if call.status != 0:
        return None
    csv_out = call.out.with_suffix(".csv")
    if with_csv and cli_main(w.argv(call.seed, call.trials, csv_out, fmt="csv")) != 0:
        return None
    try:
        return Outputs(
            json={m: json.loads(p.read_text()) for m, p in w.outputs(call.out).items()},
            csv={m: p.read_bytes() for m, p in w.outputs(csv_out).items()} if with_csv else {})
    except (OSError, ValueError):
        return None


def check_call(w: Workload, call: CallRecord, outputs: Outputs | None,
               subset_seed: int) -> tuple[np.ndarray, list[str]]:
    """Failed-trial mask of one call and a description of each failure."""
    failed = np.zeros(call.trials, dtype=bool)
    if outputs is None:
        failed[:] = True
        return failed, [f"call {call.index}: exit status {call.status} or missing output"]
    problems = []
    samples = {}
    for method, payload in outputs.json.items():
        bad = _shape_problem(w, method, call, payload, outputs.csv.get(method))
        if bad:
            failed[:] = True
            problems.append(f"call {call.index} {method}: {bad}")
        else:
            samples[method] = np.array(payload["samples_db"], dtype=np.float64)

    for t in reference_picks(call.trials, subset_seed):
        for method, s in samples.items():
            ref = reference_sample_db(w, method, call.seed, t)
            if not abs(s[t] - ref) <= REFERENCE_TOL_DB:
                failed[t] = True
                problems.append(f"call {call.index} {method} trial {t}: "
                                f"{float(s[t])!r} dB vs reference {ref!r} dB")

    base = samples.get("none")
    for method, s in samples.items():
        if method == "none":
            continue
        if base is None:
            base = _run(w, "none", call.seed, call.trials)
        worse = s > base
        if worse.any():
            failed |= worse
            problems.append(f"call {call.index} {method}: worse than none on "
                            f"{int(worse.sum())} trials")

    k = min(PREFIX_TRIALS, call.trials)
    for method, s in samples.items():
        if _run(w, method, call.seed, k).tobytes() != s[:k].tobytes():
            failed[:k] = True
            problems.append(f"call {call.index} {method}: {k}-trial run differs "
                            f"from the first {k} samples")
    return failed, problems


def _shape_problem(w: Workload, method: str, call: CallRecord, payload: dict,
                   csv: bytes | None) -> str:
    config = payload.get("config", {})
    expected = {"n_subcarriers": w.n, "oversample": w.oversample, "method": method,
                "modulation": "qpsk", "trials": call.trials, "master_seed": call.seed}
    for key, value in expected.items():
        if config.get(key) != value:
            return f"config echo {key}={config.get(key)!r}, expected {value!r}"
    samples = np.array(payload.get("samples_db", []), dtype=np.float64)
    if samples.shape != (call.trials,) or not np.isfinite(samples).all():
        return "samples_db missing, mis-sized or non-finite"
    grid = np.array(payload.get("thresholds_db", []), dtype=np.float64)
    ccdf = np.array(payload.get("ccdf", []), dtype=np.float64)
    exceed = (samples[:, None] > grid[None, :]).sum(axis=0)
    if grid.size == 0 or ccdf.shape != grid.shape or not np.array_equal(
            ccdf, exceed / samples.size):
        return "ccdf is not the exceedance fraction of samples_db"
    rows = "".join(f"{t:.6f},{p:.6f}\n" for t, p in zip(grid, ccdf))
    if csv is not None and csv != ("papr_db,ccdf\n" + rows).encode():
        return "CSV rows differ from the JSON curve"
    return ""


def _run(w: Workload, method: str, seed: int, trials: int) -> np.ndarray:
    """samples_db of a run through the package API (untimed check input)."""
    return run_experiment(ExperimentConfig(
        n_subcarriers=w.n, modulation=ModulationScheme.QPSK, oversample=w.oversample,
        method=Method(method), slm_branches=w.slm_m, pts_blocks=w.pts_v,
        pts_phase_order=w.pts_w, partition_scheme=PartitionScheme.PSEUDO_RANDOM,
        trials=trials, master_seed=seed)).samples_db


@dataclass
class CheckReport:
    attempted: int = 0
    failed: int = 0
    digests: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def check_calls(w: Workload, calls: list[CallRecord], seed: int) -> CheckReport:
    """Check every call; count attempted and failed trials; collect digests.

    The digests are SHA-256 of each call's samples_db bytes and, for the
    calls rerun for CSV, of its CSV bytes, keyed by workload and call seed,
    for comparing two sets of runs.
    """
    report = CheckReport()
    for call in calls:
        outputs = load_outputs(w, call, with_csv=call.index < CSV_CALLS)
        failed, problems = check_call(w, call, outputs, subset_seed(seed, call.index))
        report.attempted += call.trials
        report.failed += int(failed.sum())
        report.problems += problems
        for method, payload in (outputs.json.items() if outputs else ()):
            samples = np.array(payload.get("samples_db", []), dtype=np.float64)
            report.digests.append({
                "workload": w.name, "seed": call.seed, "trials": call.trials,
                "method": method,
                "csv_sha256": (hashlib.sha256(outputs.csv[method]).hexdigest()
                               if method in outputs.csv else None),
                "samples_sha256": hashlib.sha256(samples.tobytes()).hexdigest()})
    return report


def subset_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index
