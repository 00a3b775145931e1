"""Seeded Monte-Carlo CCDF experiments and result serialization.

Randomness management: every trial owns independent streams derived only
from (master_seed, purpose, trial_index), where purpose 0 feeds frame
symbols, purpose 1 feeds method randomness (the SLM scrambling sequences),
and purpose 2 (without a trial index) feeds the run-level pseudo-random
partition shuffle.  Streams are therefore order-independent: results do
not depend on how trials are scheduled, and different methods run under
the same master seed consume identical per-trial data frames.

The rule is ``trial_stream``, ``np.random.default_rng([seed, purpose,
trial])``, and it is unchanged.  The run draws the same bytes without
building a generator per trial, by mirroring three numpy internals:
the SeedSequence pool hash, on uint32 lanes for a block of trials at once
(``_seed_words``); PCG64's seeding step, per trial on Python ints
(``_pcg64_states``); and the 32-bit Lemire draw of ``Generator.integers``,
which for a power-of-two alphabet of 2^b symbols never rejects and keeps
the top b bits of each 32-bit output word (``_trial_draws``).
``test_the_block_draws_equal_trial_stream`` in tests/test_properties.py
pins the three to numpy's own, byte for byte.

Trials run in chunks: each trial draws from its own streams into one row
of the chunk, and the chunk is synthesized, scored and searched in one
batch.  Every row of a batch is computed exactly as it would be alone, so
results are also chunk-independent: the chunk size changes no byte.  The
methods differ only in what ``slm_candidates`` or ``pts_candidates`` writes
into the run's one candidate block, whose row 0 is the unmodified frame, and
share one scoring, L*max|x|^2 in place, and one pick; a run without
reduction is SLM with that identity candidate alone.  A trial's SLM
candidates at M are the first M of its candidates at any larger M, so
none and SLM runs on shared frames share one search at their largest M,
each picking from its own prefix of the scores (``run_experiments``).

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

from .frame import check_work, pick_min, spend_peak_power
from .modulation import ModulationScheme, is_power_of_two
# Unused here; perfbench/child.py reads the span of modulation.random_frame,
# which its tracer finds only through this module's bindings.
from .modulation import random_frame  # noqa: F401
from .pts import PartitionScheme, make_partition, pts_candidates
from .slm import PHASE_ALPHABET, slm_candidates
from .stats import CcdfCurve, check_grid, empirical_ccdf, theoretical_curve

_STREAM_FRAME = 0
_STREAM_METHOD = 1
_STREAM_PARTITION = 2

# Candidate samples per chunk of trials.  Budgets of 2^18 and 2^20 were no
# faster at L=8 and raised the peak RSS from 35 to 40 and 55 MiB (ROADMAP,
# "Measured at this re-anchor").
_CHUNK_SAMPLES = 2 ** 12

# Trials whose stream keys one `_seed_words` pass derives.  Sized apart from
# the chunk, which holds one trial at L=8: a pass over one trial costs about
# 0.1 ms, over 2^12 trials about 0.3 ms (2 vCPUs, numpy 2.4.6).
_KEY_BLOCK = 2 ** 12

# numpy's SeedSequence pool hash (numpy/random/bit_generator.pyx) and PCG64's
# seeding step (pcg64.h), which the run path mirrors (tests/test_properties.py,
# test_the_block_draws_equal_trial_stream, pins them to numpy's).
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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

    Trial t's frame symbols are ``draw_symbols(N, modulation,
    trial_stream(seed, 0, t))`` and its SLM rotations ``phase_rotations(M,
    N, trial_stream(seed, 1, t))``; the PTS partition draws from
    ``trial_stream(seed, 2)``.  The run calls this only for the partition:
    it derives the per-trial streams a block of trials at a time, with the
    same bytes (see the module docstring).
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
    return np.ascontiguousarray(words.T).astype("<u4", copy=False).view("<u8")


def _pcg64_states(master_seed: int, purpose: int, trials: range):
    """Yield the PCG64 (state, inc) of ``trial_stream(master_seed, purpose, t)`` per t in trials.

    Keys are derived `_KEY_BLOCK` trials at a time; per trial, PCG64's seeding
    step takes initstate and initseq from the key's first and last 128 bits.
    """
    for first in range(trials.start, trials.stop, _KEY_BLOCK):
        block = np.arange(first, min(first + _KEY_BLOCK, trials.stop), dtype=np.uint32)
        for key in _seed_words(master_seed, purpose, block):
            state_hi, state_lo, seq_hi, seq_lo = key.tolist()
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            yield ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128, inc


def _trial_draws(master_seed: int, purpose: int, trials: range, rows: int, table: np.ndarray,
                 count: int):
    """Yield, per chunk of `rows` trials, a (k, count) array whose row for trial t is
    ``table[trial_stream(master_seed, purpose, t).integers(0, table.size, count)]``.

    One PCG64 takes each trial's state in turn.  For a table of 2^b entries
    ``integers`` is the 32-bit Lemire draw, which never rejects: index i is
    the top b bits of 32-bit word i of the raw output, low half first.
    """
    states, bitgen = _pcg64_states(master_seed, purpose, trials), np.random.PCG64(0)
    raw = np.empty((rows, (count + 1) // 2), dtype=np.uint64)
    bits = table.size.bit_length() - 1
    for start in range(trials.start, trials.stop, rows):
        k = min(rows, trials.stop - start)
        for i in range(k):
            state, inc = next(states)
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            raw[i] = bitgen.random_raw(raw.shape[1])
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
    rows = max(1, min(trials, _CHUNK_SAMPLES // (c * oversample * n)))

    # One set of chunk rows and one candidate block for the whole search: the
    # chunks reuse them, so a trial allocates no candidate-sized array.
    # SLM's candidate 0 is the unmodified frame, so none picks from that one alone.
    symbols = np.empty((rows, n), dtype=np.complex128)
    rotations = (None if lead.method is Method.PTS
                 else np.ones((rows, c, n), dtype=np.complex128))
    block = np.empty((rows, c, oversample * n), dtype=np.complex128)
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
        if lead.method is Method.PTS:
            pts_candidates(symbols[:k], partition, lead.pts_phase_order, oversample, block[:k])
        else:
            slm_candidates(symbols[:k], rotations[:k], oversample, block[:k])
        # Every frame here has energy N (Parseval), so its PAPR is L*max|x|^2.
        scores = oversample * spend_peak_power(block[:k])
        for width, samples_db, side_info in picks:
            side_info[start:stop] = index = pick_min(scores[:, :width])
            # PaprSample.db's expression: np.log10 can be an ulp away from it.
            samples_db[start:stop] = [10.0 * math.log10(score)
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
