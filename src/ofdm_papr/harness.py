"""Seeded Monte-Carlo CCDF experiments and result serialization.

Randomness management: every trial owns independent streams derived only
from (master_seed, purpose, trial_index), where purpose 0 feeds frame
symbols, purpose 1 feeds method randomness (the SLM scrambling sequences),
and purpose 2 (without a trial index) feeds the run-level pseudo-random
partition shuffle.  Streams are therefore order-independent: results do
not depend on how trials are scheduled, and different methods run under
the same master seed consume identical per-trial data frames.

The rule is ``trial_stream``, ``np.random.default_rng([seed, purpose,
trial])``: a trial's symbols and rotations are what ``random_frame`` and
``generate_phase_sequences`` draw from its streams.  The run draws the
same bytes without building a SeedSequence or a Generator per trial, by
mirroring two numpy internals: the SeedSequence pool hash, on uint32
lanes for a block of trials at once (``_seed_words``), and the 32-bit
Lemire draw of ``Generator.integers``, which for a power-of-two alphabet
of 2^b symbols never rejects and keeps the top b bits of each 32-bit
output word (``_trial_draws``).  PCG64 seeds itself from each trial's
hashed key through ``ISeedSequence``, numpy's documented interface for
seed sources.  ``test_the_block_draws_equal_trial_stream`` in
tests/test_properties.py pins the two to numpy's own, byte for byte.

Trials run in chunks: each trial draws from its own streams into one row
of the chunk, and the chunk is synthesized, scored and searched in one
batch.  Every row of a batch is computed exactly as it would be alone, so
results are also chunk-independent: the chunk size changes no byte.  The
methods differ only in their candidate block, which the run allocates
once.  For none and SLM it is (T, C, L*N), T sized by `_CHUNK_SAMPLES`:
``slm_candidates`` writes SLM's candidates into it, row 0 the unmodified
frame, and each is scored L*max|x|^2 by ``spend_power``, which squares
the block's own lanes; a run without reduction is SLM with that identity
candidate alone.  For PTS it is (T, ``pts_width``),
T sized by `_PTS_CHUNK_SAMPLES`, and ``pts_scores`` spends it as scratch: it
bounds every candidate on a subsample, scores in full only those that can
still win, and gives the rest +inf, so the pick and the samples are those
of scoring them all.  One pick serves both, and its sample is floored at
0 dB.  A trial's SLM candidates at M are the first M of its
candidates at any larger M, so none and SLM runs on shared frames share one
search at their largest M, each picking from its own prefix of the scores
(``run_experiments``).

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

from .frame import pick_min, spend_power
from .modulation import ModulationScheme, check_work
# Unused here; perfbench/child.py reads the span of modulation.random_frame,
# which its tracer finds only through this module's bindings.
from .modulation import random_frame  # noqa: F401
from .pts import PartitionScheme, make_partition, pts_scores, pts_width
from .slm import PHASE_ALPHABET, slm_candidates
from .stats import CcdfCurve, check_grid, empirical_ccdf, theoretical_curve

_STREAM_FRAME = 0
_STREAM_METHOD = 1
_STREAM_PARTITION = 2

# Candidate samples per chunk of none or SLM trials, C*L*N per trial.
# Budgets of 2^18 and 2^20 were no faster at L=8 and raised the peak RSS
# from 35 to 40 and 55 MiB (ROADMAP, "Measured earlier, not worth retrying
# as they stand"); 2^16 slowed the N=64, L=1 runs and raised their peak RSS
# by 2.7 MiB.
_CHUNK_SAMPLES = 2 ** 12

# Scratch samples per chunk of PTS trials, `pts_width` per trial: 4 trials
# at N=128, L=8, V=4, W=4, in the 1 MiB that one trial's C*L*N samples take.
# Against 2^12 of C*L*N, one trial per chunk there, a trial took 178-181
# in place of 222-227 us, and 28 in place of 107-111 us at N=16 (2 vCPUs,
# numpy 2.4.6, single-threaded OpenBLAS).
_PTS_CHUNK_SAMPLES = 2 ** 16

# Trials whose stream keys one `_seed_words` pass derives.  Sized apart from
# the chunk, which holds one SLM trial at L=8 and four PTS trials at
# N=128: a pass over 1 or 16 trials costs 55-59 us, over 2^12 trials 280 us
# (2 vCPUs, numpy 2.4.6).
_KEY_BLOCK = 2 ** 12

# numpy's SeedSequence pool hash (numpy/random/bit_generator.pyx), which the
# run path mirrors (tests/test_properties.py,
# test_the_block_draws_equal_trial_stream, pins it to numpy's).
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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
    """The documented mixing rule behind every random draw of a run.

    Trial t's frame symbols are ``random_frame(N, modulation,
    trial_stream(seed, 0, t))``'s and its SLM rotations those of
    ``generate_phase_sequences(M, N, trial_stream(seed, 1, t))``; the PTS
    partition draws from ``trial_stream(seed, 2)``.  The run calls this
    only for the partition: it derives the per-trial streams a block of
    trials at a time, with the same bytes (see the module docstring).
    """
    key = [master_seed, purpose] if trial is None else [master_seed, purpose, trial]
    return np.random.default_rng(key)


def _hash_steps(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) columns of the first `count` hashmix steps: h_k, h_(k+1) = h_k*mult."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    column = np.array(h, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


_IN_XOR, _IN_MUL = _hash_steps(0x43B0D7E5, 0x931E8875, 16)   # INIT_A, MULT_A: entropy in
_OUT_XOR, _OUT_MUL = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)   # INIT_B, MULT_B: state out


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """One hash step per row: xor in h_k, multiply by h_(k+1), fold the top half down."""
    values = (values ^ xor) * mul
    return values ^ (values >> 16)


def _seed_words(master_seed: int, purpose: int, trials: np.ndarray) -> np.ndarray:
    """SeedSequence([master_seed, purpose, t]).generate_state(4, np.uint64) per t: (T, 4).

    The pool hash on uint32 lanes, one lane per trial.  The entropy words
    (the seed's one or two 32-bit words, the purpose, t; then zeros up to
    the pool size 4) are hashed in, each pool word is mixed into the other
    three, and the pool is hashed out twice over as 8 words, low word first.
    """
    entropy = [master_seed & 0xFFFFFFFF, master_seed >> 32][:1 + (master_seed >= 2 ** 32)]
    pool = np.zeros((4, trials.size), dtype=np.uint32)
    for i, word in enumerate(entropy + [purpose, trials]):
        pool[i] = word
    with np.errstate(over="ignore"):
        pool = _hashmix(pool, _IN_XOR[:4], _IN_MUL[:4])
        for src in range(4):
            dst = [d for d in range(4) if d != src]
            steps = slice(4 + 3 * src, 7 + 3 * src)
            mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _IN_XOR[steps],
                                                          _IN_MUL[steps])
            pool[dst] = mixed ^ (mixed >> 16)
        words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_XOR, _OUT_MUL)
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _TrialKey:
    """A trial's hashed key: the four uint64 words PCG64 asks ``generate_state`` for."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _trial_draws(master_seed: int, purpose: int, trials: range, rows: int, table: np.ndarray,
                 count: int):
    """Yield, per chunk of `rows` trials, a (k, count) array whose row for trial t is
    ``table[trial_stream(master_seed, purpose, t).integers(0, table.size, count)]``.

    Keys are derived `_KEY_BLOCK` trials at a time, and PCG64 takes each
    trial's key as its ``ISeedSequence``.  For a table of 2^b entries
    ``integers`` is the 32-bit Lemire draw, which never rejects: index i is
    the top b bits of 32-bit word i of the raw output, low half first.
    """
    # Registered here, not subclassed at import: ISeedSequence lives in
    # numpy.random, and loading that at import raised the import-only peak
    # RSS from 28.6 to 34.3 MiB (numpy 2.4.6).
    np.random.bit_generator.ISeedSequence.register(_TrialKey)
    keys = (key for first in range(trials.start, trials.stop, _KEY_BLOCK)
            for key in _seed_words(master_seed, purpose, np.arange(
                first, min(first + _KEY_BLOCK, trials.stop), dtype=np.uint32)))
    raw = np.empty((rows, (count + 1) // 2), dtype=np.uint64)
    bits = table.size.bit_length() - 1
    for start in range(trials.start, trials.stop, rows):
        k = min(rows, trials.stop - start)
        for i in range(k):
            raw[i] = np.random.PCG64(_TrialKey(next(keys))).random_raw(raw.shape[1])
        words = raw[:k].astype("<u8", copy=False).view("<u4")[:, :count]
        yield table[words >> (32 - bits)]


@dataclass(eq=False)
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
        check_work(self.n_subcarriers, self.oversample)   # bounds N before W^(V-1) below
        if not 1 <= self.trials <= 10 ** 8:
            raise ValueError("trials must be in [1, 10**8]")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.slm_branches < 1:
            raise ValueError("slm_branches must be >= 1")
        if self.pts_blocks < 1:
            raise ValueError("pts_blocks must be >= 1")
        if self.method is Method.PTS and self.n_subcarriers % self.pts_blocks != 0:
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


@dataclass(eq=False)
class ExperimentResult:
    """Per-trial PAPR samples with the curves derived from them."""

    config: ExperimentConfig
    empirical: CcdfCurve
    analytic: CcdfCurve | None
    samples_db: np.ndarray
    side_info: np.ndarray
    elapsed_seconds: float


def run_experiment(config: ExperimentConfig, analytic: bool = False) -> ExperimentResult:
    """Run the configured trials and collect the empirical CCDF: a search of its own."""
    return run_experiments([config], analytic)[0]


def run_experiments(configs: list[ExperimentConfig],
                    analytic: bool = False) -> list[ExperimentResult]:
    """Run every config and collect its empirical CCDF; results in input order.

    Identical configs produce identical samples regardless of execution
    order and chunk size because each trial's streams derive only from
    (master_seed, purpose, trial).  A trial's SLM candidates at M are the
    first M of its candidates at any M' >= M, and none is the M=1 prefix.
    So none and SLM configs that agree on N, modulation, L, trials and
    master_seed share one search at their largest M, and each picks from
    its own prefix of the candidate scores: the bytes of a run of its own.
    A PTS config searches alone.  The analytic curve is attached for the
    methods with a closed form (none and slm); a PTS run never carries one.
    """
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        config.validate()
        key = ((i,) if config.method is Method.PTS else
               (config.n_subcarriers, config.modulation, config.oversample, config.trials,
                config.master_seed))
        groups.setdefault(key, []).append(i)
    results = [None] * len(configs)
    for members in groups.values():
        for i, result in zip(members, _search([configs[i] for i in members], analytic)):
            results[i] = result
    return results


def _search(members: list[ExperimentConfig], analytic: bool) -> list[ExperimentResult]:
    """One chunk loop over the trials the members share, sized by their largest C."""
    lead = max(members, key=_candidates)
    n, oversample, seed = lead.n_subcarriers, lead.oversample, lead.master_seed
    trials, c = lead.trials, _candidates(lead)
    started = time.perf_counter()

    partition = None
    if lead.method is Method.PTS:
        partition = make_partition(n, lead.pts_blocks, lead.partition_scheme,
                                   trial_stream(seed, _STREAM_PARTITION))
        budget, shape = _PTS_CHUNK_SAMPLES, (pts_width(c, n, oversample),)
    else:
        budget, shape = _CHUNK_SAMPLES, (c, oversample * n)
    rows = max(1, min(trials, budget // math.prod(shape)))

    # One set of chunk rows and one candidate block for the whole search: the
    # chunks reuse them, so a trial allocates no candidate-sized array.  SLM
    # writes its candidates into the block, and PTS spends it as scratch.
    # SLM's candidate 0 is the unmodified frame, so none picks from that one alone.
    symbols = np.empty((rows, n), dtype=np.complex128)
    rotations = (None if lead.method is Method.PTS
                 else np.ones((rows, c, n), dtype=np.complex128))
    block = np.empty((rows,) + shape, dtype=np.complex128)
    picks = [(_candidates(config), np.empty(trials), np.empty(trials, dtype=np.int64))
             for config in members]
    frames = _trial_draws(seed, _STREAM_FRAME, range(trials), rows,
                          lead.modulation.symbol_table, n)
    phases = (_trial_draws(seed, _STREAM_METHOD, range(trials), rows, PHASE_ALPHABET, (c - 1) * n)
              if lead.method is Method.SLM and c > 1 else None)
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        k = stop - start
        symbols[:k] = next(frames)
        if phases is not None:
            rotations[:k, 1:] = next(phases).reshape(k, c - 1, n)
        # Every frame here has energy N (Parseval), so its PAPR is L*max|x|^2.
        if lead.method is Method.PTS:
            scores = pts_scores(symbols[:k], partition, lead.pts_phase_order, oversample,
                                block[:k])
        else:
            scores = oversample * spend_power(slm_candidates(
                symbols[:k], rotations[:k], oversample, block[:k])).max(axis=-1)
        for width, samples_db, side_info in picks:
            side_info[start:stop] = index = pick_min(scores[:, :width])
            # PaprSample.db's expression: np.log10 can be an ulp away from it.
            # A PAPR is at least 1, but a constant envelope's score can round
            # below it; the floor leaves the scores and the pick alone.
            samples_db[start:stop] = [10.0 * math.log10(max(score, 1.0))
                                      for score in scores[np.arange(k), index].tolist()]
    searched = time.perf_counter() - started

    results = []
    for config, (width, samples_db, side_info) in zip(members, picks):
        started = time.perf_counter()
        results.append(ExperimentResult(
            config=config,
            empirical=empirical_ccdf(samples_db, config.thresholds_db),
            analytic=(theoretical_curve(n, config.thresholds_db, width)
                      if analytic and config.method is not Method.PTS else None),
            samples_db=samples_db,
            side_info=side_info,
            elapsed_seconds=searched + time.perf_counter() - started,
        ))
    return results


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
    config echo, curves, samples, and timing: ``elapsed_seconds`` is the
    wall time of the search that produced the result, which every result
    of a shared search reports in full, plus the result's own CCDF.
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
