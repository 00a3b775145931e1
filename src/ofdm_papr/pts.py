"""Partial transmit sequence: per-sub-block phase weighting with optimal search.

The subcarriers are split into V equal disjoint blocks.  Each block's time
signal is synthesized once; candidates are scored as weighted sums of the
block signals, which equals transforming the weighted spectrum because the
transform is linear.  The naive per-candidate transform exists only as an
independent test oracle.

Selection details:

* A common alphabet factor leaves the PAPR unchanged, so the W^V
  combinations fall into W^(V-1) orbits and one representative of each is
  scored: block 1 at +1, the first W^(V-1) rows of the lexicographic
  enumeration.  Each is its orbit's lowest-index member, so with ties
  broken toward the lowest index within the 1e-12 relative window of
  :func:`~ofdm_papr.frame.pick_min` the pick, index included, equals the
  exhaustive W^V search's.
* Candidate 0, the all-ones combination, is the unmodified frame
  synthesized directly rather than as a sum of block signals, whose
  rounding could lift it a few ulps: the result can never be worse than
  the unmodified frame, exactly.
* A run scores through :func:`pts_scores`, at every L.  The peak over
  every s-th sample, s = max(1, L // 2), ceil(L*N/s) points (2N at even
  L), lower-bounds a candidate's peak over all L*N samples (the classic
  oversampling result: Tellambura, IEEE Commun. Lett. 2001; Wunder &
  Boche, IEEE Trans. Inf. Theory 2003), so a candidate whose bound exceeds
  the best full score by more than a 1e-9 relative margin cannot reach the
  tie window, and is never built.  The pruning loop is the one SLM's
  search runs too, :func:`~ofdm_papr.frame._prune`.  It picks what
  scoring every candidate picks, bytes included.  At L <= 3 (s = 1) the
  subsample is the frame, the bounds are the scores, and nothing is
  pruned.  :func:`pts_reduce` scores every candidate and stays the run's
  reference: the properties hold each run trial to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .frame import (PaprSample, TimeFrame, _prune, is_unit_magnitude, papr, pick_min,
                    spend_power, time_samples)
from .modulation import FrequencyFrame, check_work, read_only_field
from .slm import PHASE_ALPHABET

# A PhaseVector costs its V factors plus 224-290 B of object and array
# overhead (tracemalloc: W=4, V=7 and W=2, V=12).  The work bound of
# `enumerate_phase_vectors` counts that overhead as 21 complex samples
# (336 B), so it bounds the objects the call builds, not only their factors.
_VECTOR_OVERHEAD = 21


class PartitionScheme(Enum):
    ADJACENT = "adjacent"
    INTERLEAVED = "interleaved"
    PSEUDO_RANDOM = "pseudorandom"


@dataclass(frozen=True, eq=False, slots=True)
class SubBlockPartition:
    """Assignment of each subcarrier to one of V equal-size disjoint blocks."""

    block_of: np.ndarray
    v_count: int
    scheme: PartitionScheme

    def __post_init__(self) -> None:
        arr = read_only_field(self, "block_of", np.intp)
        if self.v_count < 1:
            raise ValueError("v_count must be >= 1")
        if arr.size % self.v_count != 0:
            raise ValueError(f"V={self.v_count} does not divide N={arr.size}")
        counts = np.bincount(arr, minlength=self.v_count)
        if counts.size != self.v_count or not np.all(counts == arr.size // self.v_count):
            raise ValueError("blocks must be disjoint, covering, and equal-sized")

    @property
    def n(self) -> int:
        return self.block_of.size


@dataclass(frozen=True, eq=False, slots=True)
class PhaseVector:
    """Unit-magnitude weighting factor per sub-block plus its search index."""

    factors: np.ndarray
    combination_index: int

    def __post_init__(self) -> None:
        arr = read_only_field(self, "factors", np.complex128)
        if not is_unit_magnitude(arr):
            raise ValueError("factors must have unit magnitude")
        if self.combination_index < 0:
            raise ValueError("combination_index must be non-negative")


@dataclass(frozen=True, eq=False, slots=True)
class PtsResult:
    """Minimum-PAPR combination, the frame it produces, and the search size."""

    frame: TimeFrame
    chosen: PhaseVector
    papr: PaprSample
    combinations_searched: int


def make_partition(n: int, v_count: int, scheme: PartitionScheme,
                   rng: np.random.Generator | None = None) -> SubBlockPartition:
    """Build a partition of n subcarriers into v_count equal blocks.

    Adjacent: block v owns indices [v*n/V, (v+1)*n/V).  Interleaved:
    subcarrier k belongs to block k mod V.  PseudoRandom: a seeded uniform
    shuffle of 0..n-1 cut into V consecutive chunks (requires rng).
    """
    if not isinstance(scheme, PartitionScheme):
        raise ValueError(f"scheme must be a PartitionScheme, got {scheme!r}")
    if v_count < 1 or n % v_count != 0:
        raise ValueError(f"V={v_count} does not divide N={n}")
    size = n // v_count
    if scheme is PartitionScheme.ADJACENT:
        block_of = np.repeat(np.arange(v_count), size)
    elif scheme is PartitionScheme.INTERLEAVED:
        block_of = np.arange(n) % v_count
    else:
        if rng is None:
            raise ValueError("pseudo-random partition requires an rng stream")
        block_of = np.empty(n, dtype=np.intp)
        block_of[rng.permutation(n)] = np.repeat(np.arange(v_count), size)
    return SubBlockPartition(block_of, v_count, scheme)


@lru_cache(maxsize=None)
def _factor_matrix(w: int, v_count: int) -> np.ndarray:
    """(W^(V-1), V) orbit representatives, all-ones first: block 1 at +1.

    The first W^(V-1) rows of the lexicographic W^V enumeration, the only ones a search reads.
    """
    if w not in (2, 4):
        raise ValueError(f"unsupported phase order W={w}; choose 2 or 4")
    digits = np.indices((1,) + (w,) * (v_count - 1), dtype=np.uint8).reshape(v_count, -1)
    factors = PHASE_ALPHABET[digits.T]
    factors.flags.writeable = False
    return factors


@lru_cache(maxsize=16)
def _block_masks(partition: SubBlockPartition) -> np.ndarray:
    """(1 + V, N) subcarrier masks: row 0 selects all of them, row 1 + v those of block v."""
    masks = np.vstack([np.ones(partition.n, dtype=bool),
                       partition.block_of == np.arange(partition.v_count)[:, None]])
    masks.flags.writeable = False
    return masks


def enumerate_phase_vectors(w: int, v_count: int) -> list[PhaseVector]:
    """All W^V weighting vectors, lexicographic over per-position alphabet
    indices; the alphabet is {+1,-1} for W=2 and {+1,-1,+j,-j} for W=4.

    Vector i is orbit representative i mod W^(V-1) with block 1 weighted
    by alphabet entry i // W^(V-1).
    """
    if v_count < 1:
        raise ValueError("v_count must be >= 1")
    check_work(v_count + _VECTOR_OVERHEAD, 1, w ** v_count)
    orbits = _factor_matrix(w, v_count)
    factors = np.tile(orbits, (w, 1))
    factors[:, 0] = np.repeat(PHASE_ALPHABET[:w], len(orbits))
    return [PhaseVector(row, i) for i, row in enumerate(factors)]


def _signals(symbols: np.ndarray, partition: SubBlockPartition, oversample: int) -> np.ndarray:
    """(..., 1 + V, L*N): the unmodified frame, synthesized directly, then the V block signals."""
    return time_samples(np.where(_block_masks(partition), symbols[..., None, :], 0), oversample)


def pts_candidates(symbols: np.ndarray, partition: SubBlockPartition, w: int,
                   oversample: int, block: np.ndarray) -> np.ndarray:
    """Array core of :func:`pts_reduce`: write the (..., W^(V-1), L*N) candidate block.

    Takes (..., N) symbols, one trial per leading index, and the caller's
    complex128 block to write; returns that block.  Row 0 is the unmodified
    frame, synthesized directly; row i is the weighted sum of the block
    signals under orbit representative i.
    """
    signals = _signals(symbols, partition, oversample)
    block[..., 0, :] = signals[..., 0, :]
    np.matmul(_factor_matrix(w, partition.v_count)[1:], signals[..., 1:, :],
              out=block[..., 1:, :])
    return block


def pts_stride(oversample: int) -> int:
    """The bound's sample stride s = max(1, L // 2): a subsample of ceil(L*N/s) points."""
    return max(1, oversample // 2)


def pts_scores(symbols: np.ndarray, partition: SubBlockPartition, w: int, oversample: int,
               block: np.ndarray) -> np.ndarray:
    """Array core of a run's PTS search: the (k, W^(V-1)) scores of (k, N) symbols.

    A score is L*max|x|^2, or +inf where the candidate cannot win.  Each
    candidate is first bounded by L times its peak over every s-th sample,
    s = :func:`pts_stride`, ceil(L*N/s) points (2N at even L), which never
    exceeds its score.  At s = 1 the bound product is the one
    :func:`pts_candidates` forms, and the bounds are the scores.
    Otherwise row 0 is scored in full, and the search's one pruning loop
    (:func:`~ofdm_papr.frame._prune`, with the single width C) scores the
    others in ascending order of their bounds, two at a time in one
    stacked product for every trial still searching, until the next bound
    exceeds the best score so far by its relative margin.  Every peak is
    the max of a :func:`~ofdm_papr.frame.spend_power` row, and a scored row
    has the bytes :func:`pts_candidates` gives it, as a row of a product of
    two factor rows (or of the whole product, when there is one factor
    row): a product of one row of several (BLAS's vector kernel) can
    differ from that row of the whole product in its last ulp.  `block` is
    the caller's C-contiguous complex128 (k, :func:`~ofdm_papr.frame.search_width`)
    block, spent as scratch: the bounds fill its front, and the rows
    scored in full reuse it once the bounds are spent.
    """
    factors = _factor_matrix(w, partition.v_count)
    c = len(factors)
    stride = pts_stride(oversample)
    signals = _signals(symbols, partition, oversample)
    sub = signals[..., ::stride]
    scratch = block.reshape(-1)
    bounds = scratch[:len(symbols) * c * sub.shape[-1]].reshape(len(symbols), c, -1)
    bounds[:, 0] = sub[:, 0]
    np.matmul(factors[1:], sub[:, 1:], out=bounds[:, 1:])
    peaks = oversample * spend_power(bounds).max(axis=-1)
    if stride == 1:
        return peaks
    scores = np.full(peaks.shape, np.inf)
    scores[:, 0] = oversample * spend_power(signals[:, 0]).max(axis=-1)

    def score_rows(trials, rows):
        pair = scratch[:rows.size * signals.shape[-1]].reshape(*rows.shape, -1)
        np.matmul(factors[rows], signals[trials, 1:], out=pair)
        return oversample * spend_power(pair).max(axis=-1)

    return _prune(peaks, scores, (c,), score_rows, 2)


def pts_reduce(freq: FrequencyFrame, partition: SubBlockPartition, w: int,
               oversample: int) -> PtsResult:
    """Search the phase combinations for the minimum PAPR.

    Scores the W^(V-1) orbit representatives (block 1 weighted by +1) by
    peak power, as a run does: every combination has the frame's energy, so
    the lowest peak is the lowest PAPR.  Returns what the exhaustive W^V
    search returns: the same combination index, in the full enumeration,
    and the winner's PAPR by the public :func:`~ofdm_papr.frame.papr`.
    """
    if partition.n != freq.n_subcarriers:
        raise ValueError(
            f"partition over {partition.n} subcarriers does not match frame "
            f"of {freq.n_subcarriers}")
    c = w ** (partition.v_count - 1)
    check_work(partition.n, oversample, c)
    factors = _factor_matrix(w, partition.v_count)   # rejects W not in {2, 4}
    candidates = np.empty((c, oversample * partition.n), dtype=np.complex128)
    pts_candidates(freq.symbols, partition, w, oversample, candidates)
    best = int(pick_min(spend_power(candidates.copy()).max(axis=-1)))
    frame = TimeFrame(candidates[best], oversample)
    return PtsResult(
        frame=frame,
        chosen=PhaseVector(factors[best], best),
        papr=papr(frame),
        combinations_searched=c,
    )
