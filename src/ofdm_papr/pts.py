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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .frame import (PaprSample, TimeFrame, check_work, is_unit_magnitude, papr_linear, pick_min,
                    time_samples)
from .modulation import FrequencyFrame, read_only_field
from .slm import PHASE_ALPHABET


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
    """(W^V, V) candidate factors in lexicographic digit order, all-ones first."""
    if w not in (2, 4):
        raise ValueError(f"unsupported phase order W={w}; choose 2 or 4")
    if v_count < 1:
        raise ValueError("v_count must be >= 1")
    factors = PHASE_ALPHABET[np.indices((w,) * v_count).reshape(v_count, -1).T]
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
    indices; the alphabet is {+1,-1} for W=2 and {+1,-1,+j,-j} for W=4."""
    return [PhaseVector(row, i) for i, row in enumerate(_factor_matrix(w, v_count))]


def pts_candidates(symbols: np.ndarray, partition: SubBlockPartition, w: int,
                   oversample: int) -> np.ndarray:
    """Array core of :func:`pts_reduce`: the (..., W^(V-1), L*N) candidate block.

    Takes (..., N) symbols, one trial per leading index.  Row 0 is the
    unmodified frame, synthesized directly; row i is the weighted sum of
    the block signals under orbit representative i.  The block is fresh,
    allocated by this call.
    """
    v = partition.v_count
    c = w ** (v - 1)                                   # the orbit representatives
    # The unmodified frame, then the V block signals.
    signals = time_samples(np.where(_block_masks(partition), symbols[..., None, :], 0),
                           oversample)
    block = np.empty(signals.shape[:-2] + (c, signals.shape[-1]), dtype=np.complex128)
    block[..., 0, :] = signals[..., 0, :]
    np.matmul(_factor_matrix(w, v)[1:c], signals[..., 1:, :], out=block[..., 1:, :])
    return block


def pts_reduce(freq: FrequencyFrame, partition: SubBlockPartition, w: int,
               oversample: int) -> PtsResult:
    """Search the phase combinations for the minimum PAPR.

    Scores the W^(V-1) orbit representatives (block 1 weighted by +1) and
    returns what the exhaustive W^V search returns: the same combination
    index, in the full enumeration, and the same PAPR.
    """
    if partition.n != freq.n_subcarriers:
        raise ValueError(
            f"partition over {partition.n} subcarriers does not match frame "
            f"of {freq.n_subcarriers}")
    check_work(partition.n, oversample, w ** (partition.v_count - 1))
    candidates = pts_candidates(freq.symbols, partition, w, oversample)
    scores = papr_linear(candidates)
    best = int(pick_min(scores))
    return PtsResult(
        frame=TimeFrame(candidates[best], oversample),
        chosen=PhaseVector(_factor_matrix(w, partition.v_count)[best], best),
        papr=PaprSample.from_linear(scores[best]),
        combinations_searched=w ** (partition.v_count - 1),
    )
