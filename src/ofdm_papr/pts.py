"""Partial transmit sequence: per-sub-block phase weighting with exhaustive search.

The subcarriers are split into V equal disjoint blocks.  Each block's time
signal is synthesized once; every W^V phase-factor combination is then
scored as a weighted sum of the block signals, which is equivalent to
transforming the weighted spectrum because the transform is linear.  The
naive per-candidate transform exists only as an independent test oracle.

Selection details:

* Ties break toward the lowest combination index.  Because the candidate
  set is closed under multiplication by a common alphabet factor, whole
  orbits of candidates share one PAPR; a relative tie window of 1e-12
  makes the winning index independent of sub-ulp evaluation noise.
* The all-ones combination reproduces the original frame only up to
  floating-point rounding of the block sums, so the original frame is
  scored directly as a floor: the result can never be worse than the
  unmodified frame, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .frame import PaprSample, TimeFrame, papr_linear, time_samples
from .modulation import FrequencyFrame

_ALPHABETS = {
    2: np.array([1.0 + 0.0j, -1.0 + 0.0j]),
    4: np.array([1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j]),
}
_TIE_RTOL = 1e-12


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
        arr = np.array(self.block_of, dtype=np.intp)
        if arr.ndim != 1:
            raise ValueError("block_of must be one-dimensional")
        if self.v_count < 1:
            raise ValueError("v_count must be >= 1")
        if arr.size % self.v_count != 0:
            raise ValueError(f"V={self.v_count} does not divide N={arr.size}")
        counts = np.bincount(arr, minlength=self.v_count)
        if counts.size != self.v_count or not np.all(counts == arr.size // self.v_count):
            raise ValueError("blocks must be disjoint, covering, and equal-sized")
        arr.flags.writeable = False
        object.__setattr__(self, "block_of", arr)

    @property
    def n(self) -> int:
        return self.block_of.size


@dataclass(frozen=True, eq=False, slots=True)
class PhaseVector:
    """Unit-magnitude weighting factor per sub-block plus its search index."""

    factors: np.ndarray
    combination_index: int

    def __post_init__(self) -> None:
        arr = np.array(self.factors, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("factors must be one-dimensional")
        if not np.allclose(np.abs(arr), 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("factors must have unit magnitude")
        if self.combination_index < 0:
            raise ValueError("combination_index must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "factors", arr)


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
    if v_count < 1:
        raise ValueError("v_count must be >= 1")
    if n % v_count != 0:
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
def _factor_matrix(w: int, v_count: int, fix_first: bool) -> np.ndarray:
    """(C, V) candidate factors in lexicographic digit order, all-ones first."""
    if w not in _ALPHABETS:
        raise ValueError(f"unsupported phase order W={w}; choose 2 or 4")
    if v_count < 1:
        raise ValueError("v_count must be >= 1")
    free = v_count - 1 if fix_first else v_count
    grids = np.meshgrid(*([np.arange(w)] * free), indexing="ij") if free else []
    digits = (np.stack(grids, axis=-1).reshape(-1, free) if free
              else np.zeros((1, 0), dtype=np.intp))
    if fix_first:
        digits = np.hstack([np.zeros((digits.shape[0], 1), dtype=np.intp), digits])
    factors = _ALPHABETS[w][digits]
    factors.flags.writeable = False
    return factors


def enumerate_phase_vectors(w: int, v_count: int) -> list[PhaseVector]:
    """All W^V weighting vectors, lexicographic over per-position alphabet
    indices; the alphabet is {+1,-1} for W=2 and {+1,-1,+j,-j} for W=4."""
    factors = _factor_matrix(w, v_count, False)
    return [PhaseVector(row, i) for i, row in enumerate(factors)]


def _pick_min(scores: np.ndarray) -> int:
    """Lowest index among scores within the relative tie window of the minimum."""
    lo = scores.min()
    return int(np.flatnonzero(scores <= lo * (1.0 + _TIE_RTOL))[0])


def pts_search(symbols: np.ndarray, partition: SubBlockPartition, w: int,
               oversample: int, fix_first: bool = False) -> tuple[int, float, np.ndarray]:
    """Array core of :func:`pts_reduce`: (combination index, linear PAPR, samples)."""
    factors = _factor_matrix(w, partition.v_count, fix_first)
    blocks = np.where(partition.block_of == np.arange(partition.v_count)[:, None], symbols, 0.0)
    block_times = time_samples(blocks, oversample)       # (V, L*N), one transform each
    candidates = factors @ block_times                   # (C, L*N) weighted sums
    scores = papr_linear(candidates)
    best = _pick_min(scores)

    base_samples = time_samples(symbols, oversample)
    base_score = float(papr_linear(base_samples))
    if scores[best] > base_score:
        # Rounding in the block sums can lift the all-ones candidate a few
        # ulps above the directly synthesized frame; floor at the original.
        return 0, base_score, base_samples
    return best, scores[best], candidates[best].copy()   # a view would pin every candidate


def pts_reduce(freq: FrequencyFrame, partition: SubBlockPartition, w: int,
               oversample: int, fix_first: bool = False) -> PtsResult:
    """Exhaustively search the W^V phase combinations for the minimum PAPR.

    With fix_first=True the first block's factor is pinned to +1 and only
    W^(V-1) combinations are scored; the reported combination indices still
    refer to the full enumeration (they coincide for a pinned first digit).
    """
    if partition.n != freq.n_subcarriers:
        raise ValueError(
            f"partition over {partition.n} subcarriers does not match frame "
            f"of {freq.n_subcarriers}")
    factors = _factor_matrix(w, partition.v_count, fix_first)
    best, score, samples = pts_search(freq.symbols, partition, w, oversample, fix_first)
    return PtsResult(
        frame=TimeFrame(samples, oversample),
        chosen=PhaseVector(factors[best], best),
        papr=PaprSample.from_linear(score),
        combinations_searched=factors.shape[0],
    )
