"""Seeded Monte-Carlo CCDF experiments and result serialization.

Randomness management: every trial owns independent streams derived only
from (master_seed, purpose, trial_index), where purpose 0 feeds frame
symbols, purpose 1 feeds method randomness (the SLM scrambling sequences),
and purpose 2 (without a trial index) feeds the run-level pseudo-random
partition shuffle.  Streams are therefore order-independent: results do
not depend on how trials are scheduled, and different methods run under
the same master seed consume identical per-trial data frames.

Trials run in chunks: each trial draws from its own streams into one row
of the chunk, and the chunk is synthesized, scored and searched in one
batch.  Every row of a batch is computed exactly as it would be alone, so
results are also chunk-independent: the chunk size changes no byte.  The
methods differ only in the block that ``slm_candidates`` or ``pts_candidates``
builds, whose row 0 is the unmodified frame, and share one scoring and pick;
a run without reduction is SLM with that identity candidate alone.

SLM scrambling sequences are drawn fresh per trial so the M candidates of
a trial are statistically independent; the PTS partition is fixed per run,
as it is part of the system configuration rather than of the per-frame
search.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .dft import is_power_of_two
from .frame import check_work, papr_linear, pick_min
from .modulation import ModulationScheme, draw_symbols
# Unused here; perfbench/child.py reads the span of modulation.random_frame,
# which its tracer finds only through this module's bindings.
from .modulation import random_frame  # noqa: F401
from .pts import PartitionScheme, make_partition, pts_candidates
from .slm import phase_rotations, slm_candidates
from .stats import CcdfCurve, check_grid, empirical_ccdf, theoretical_curve

_STREAM_FRAME = 0
_STREAM_METHOD = 1
_STREAM_PARTITION = 2

# Candidate samples per chunk of trials.  A larger budget was no faster at
# L=1 and raised the peak RSS by several MiB (ROADMAP item 2).
_CHUNK_SAMPLES = 2 ** 12


class Method(Enum):
    NONE = "none"
    SLM = "slm"
    PTS = "pts"


def default_threshold_grid() -> np.ndarray:
    """0.0 to 13.0 dB in 0.05 dB steps."""
    return threshold_grid(0.0, 13.0, 0.05)


def threshold_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive ascending dB grid lo, lo+step, ..., up to hi."""
    if not np.isfinite([lo, hi, step]).all():
        raise ValueError("threshold bounds and step must be finite")
    if step <= 0:
        raise ValueError("threshold step must be positive")
    if hi < lo:
        raise ValueError("threshold range must be non-empty")
    steps = np.floor((hi - lo) / step + 1e-9)
    if not steps < 2 ** 20:
        raise ValueError("threshold grid has more than 2**20 points")
    return lo + step * np.arange(int(steps) + 1)


def trial_stream(master_seed: int, purpose: int, trial: int | None = None) -> np.random.Generator:
    """The documented mixing rule behind every random draw of a run."""
    key = [master_seed, purpose] if trial is None else [master_seed, purpose, trial]
    return np.random.default_rng(key)


@dataclass
class ExperimentConfig:
    """Full description of one Monte-Carlo CCDF experiment."""

    n_subcarriers: int = 64
    modulation: ModulationScheme = ModulationScheme.QPSK
    oversample: int = 8
    method: Method = Method.NONE
    slm_branches: int = 4
    pts_blocks: int = 4
    pts_phase_order: int = 4
    partition_scheme: PartitionScheme = PartitionScheme.PSEUDO_RANDOM
    trials: int = 1000
    master_seed: int = 0
    thresholds_db: np.ndarray = field(default_factory=default_threshold_grid)

    def validate(self) -> None:
        """Reject any config whose downstream preconditions fail; the cores trust it."""
        for name, kind in (("modulation", ModulationScheme), ("method", Method),
                           ("partition_scheme", PartitionScheme)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
        if not is_power_of_two(self.n_subcarriers):
            raise ValueError(f"n_subcarriers={self.n_subcarriers} is not a power of two")
        check_work(self.n_subcarriers, self.oversample)   # bounds N before W^(V-1) below
        if not 1 <= self.trials <= 10 ** 8:
            raise ValueError("trials must be in [1, 10**8]")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.slm_branches < 1:
            raise ValueError("slm_branches must be >= 1")
        if self.pts_blocks < 1:
            raise ValueError("pts_blocks must be >= 1")
        if self.n_subcarriers % self.pts_blocks != 0:
            raise ValueError(
                f"pts_blocks={self.pts_blocks} does not divide N={self.n_subcarriers}")
        if self.pts_phase_order not in (2, 4):
            raise ValueError(f"pts_phase_order={self.pts_phase_order} not in (2, 4)")
        check_work(self.n_subcarriers, self.oversample, _candidates(self))
        check_grid(self.thresholds_db)

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.value if isinstance(value, Enum) else value
        out["thresholds_db"] = np.asarray(self.thresholds_db, dtype=np.float64).tolist()
        return out


@dataclass
class ExperimentResult:
    """Per-trial PAPR samples with the curves derived from them."""

    config: ExperimentConfig
    empirical: CcdfCurve
    analytic: CcdfCurve | None
    samples_db: np.ndarray
    side_info: np.ndarray
    elapsed_seconds: float


def run_experiment(config: ExperimentConfig, analytic: bool = False) -> ExperimentResult:
    """Run the configured trials and collect the empirical CCDF.

    Identical configs produce identical samples regardless of execution
    order and chunk size because each trial's streams derive only from
    (master_seed, purpose, trial).  The analytic curve is attached for the
    methods with a closed form (none and slm); a PTS run never carries one.
    """
    config.validate()
    n, oversample, seed = config.n_subcarriers, config.oversample, config.master_seed
    m, v = config.slm_branches, config.pts_blocks
    started = time.perf_counter()

    partition = None
    if config.method is Method.PTS:
        partition = make_partition(n, v, config.partition_scheme,
                                   trial_stream(seed, _STREAM_PARTITION))
    rows = max(1, min(config.trials, _CHUNK_SAMPLES // (_candidates(config) * oversample * n)))

    # One set of chunk rows for the whole run: the chunks reuse them.  SLM's
    # candidate 0 is the unmodified frame, so none searches that one alone.
    symbols = np.empty((rows, n), dtype=np.complex128)
    rotations = (None if config.method is Method.PTS
                 else np.ones((rows, _candidates(config), n), dtype=np.complex128))
    linear = np.empty(config.trials, dtype=np.float64)
    side_info = np.zeros(config.trials, dtype=np.int64)
    for start in range(0, config.trials, rows):
        stop = min(start + rows, config.trials)
        for i, t in enumerate(range(start, stop)):
            symbols[i] = draw_symbols(n, config.modulation, trial_stream(seed, _STREAM_FRAME, t))
            if config.method is Method.SLM:
                rotations[i] = phase_rotations(m, n, trial_stream(seed, _STREAM_METHOD, t))
        # Nothing holds the candidate block past its scoring: held across the
        # next chunk's draws, it made every SLM trial page-fault.
        scores = papr_linear(
            pts_candidates(symbols[:stop - start], partition, config.pts_phase_order, oversample)
            if config.method is Method.PTS
            else slm_candidates(symbols[:stop - start], rotations[:stop - start], oversample))
        side_info[start:stop] = index = pick_min(scores)
        linear[start:stop] = scores[np.arange(stop - start), index]
    # PaprSample.db's expression: np.log10 can be an ulp away from it.
    samples_db = np.array([10.0 * math.log10(score) for score in linear.tolist()])

    empirical = empirical_ccdf(samples_db, config.thresholds_db)
    analytic_curve = None
    if analytic and config.method is not Method.PTS:
        analytic_curve = theoretical_curve(n, config.thresholds_db, _candidates(config))

    return ExperimentResult(
        config=config,
        empirical=empirical,
        analytic=analytic_curve,
        samples_db=samples_db,
        side_info=side_info,
        elapsed_seconds=time.perf_counter() - started,
    )


def _candidates(config: ExperimentConfig) -> int:
    """C, the candidates one trial scores: 1 for none, M for SLM, W^(V-1) for PTS."""
    if config.method is Method.SLM:
        return config.slm_branches
    if config.method is Method.PTS:
        return config.pts_phase_order ** (config.pts_blocks - 1)
    return 1


def write_result(result: ExperimentResult, format: str, destination) -> None:
    """Serialize a result as CSV (threshold/probability rows) or JSON.

    destination is a path or an open text sink.  CSV carries the header
    ``papr_db,ccdf`` and one 6-decimal row per threshold; JSON carries the
    config echo, curves, samples, and timing.
    """
    fmt = str(format).lower()
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {format!r}")
    if isinstance(destination, (str, Path)):
        with open(destination, "w") as sink:
            _write(result, fmt, sink)
    else:
        _write(result, fmt, destination)


def _write(result: ExperimentResult, fmt: str, sink) -> None:
    if fmt == "csv":
        sink.write("papr_db,ccdf\n")
        for t, p in zip(result.empirical.thresholds_db, result.empirical.probabilities):
            sink.write(f"{t:.6f},{p:.6f}\n")
        return
    payload = {
        "config": result.config.as_dict(),
        "thresholds_db": result.empirical.thresholds_db.tolist(),
        "ccdf": result.empirical.probabilities.tolist(),
    }
    if result.analytic is not None:
        payload["analytic_ccdf"] = result.analytic.probabilities.tolist()
    payload.update({
        "samples_db": result.samples_db.tolist(),
        "seed": result.config.master_seed,
        "trials": result.config.trials,
        "elapsed_seconds": result.elapsed_seconds,
        "min_reliable_ccdf": 10.0 / result.config.trials,
    })
    json.dump(payload, sink, indent=2)
    sink.write("\n")
