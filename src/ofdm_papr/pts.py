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
* The all-ones combination reproduces the original frame only up to
  floating-point rounding of the block sums, so the original frame is
  scored directly as a floor: the result can never be worse than the
  unmodified frame, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .frame import PaprSample, TimeFrame, Workspace, papr_linear, pick_min, time_samples
from .modulation import FrequencyFrame

_ALPHABET = np.array([1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j])   # W=2 uses the first two


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
    factors = _ALPHABET[np.indices((w,) * v_count).reshape(v_count, -1).T]
    factors.flags.writeable = False
    return factors


def enumerate_phase_vectors(w: int, v_count: int) -> list[PhaseVector]:
    """All W^V weighting vectors, lexicographic over per-position alphabet
    indices; the alphabet is {+1,-1} for W=2 and {+1,-1,+j,-j} for W=4."""
    return [PhaseVector(row, i) for i, row in enumerate(_factor_matrix(w, v_count))]


@dataclass(frozen=True, eq=False, slots=True)
class PtsWorkspace:
    """:func:`pts_search`'s per-run state for one partition, W and L.

    ``masks`` row 0 selects every subcarrier (the unmodified frame) and row
    1 + v those of block v; ``frames.spectra`` holds the masked spectra,
    zero wherever the mask is off.  ``candidates`` holds the W^(V-1)
    weighted sums, then the unmodified frame, then the V block signals:
    ``frames`` transforms into its last V+1 rows and scores its first
    W^(V-1)+1; ``offsets`` holds where each trial's scores start in the
    flattened scores.  Every array but ``masks`` and ``factors`` carries
    the leading ``trials`` shape.
    """

    masks: np.ndarray
    factors: np.ndarray
    candidates: np.ndarray
    frames: Workspace
    offsets: np.ndarray

    @classmethod
    def sized(cls, partition: SubBlockPartition, w: int, oversample: int,
              trials: tuple[int, ...] = ()) -> "PtsWorkspace":
        v, n = partition.v_count, partition.n
        factors = _factor_matrix(w, v)[:w ** (v - 1)]     # the orbit representatives
        c, p = factors.shape[0], oversample * n
        masks = np.vstack([np.ones(n, dtype=bool), partition.block_of == np.arange(v)[:, None]])
        candidates = np.empty(trials + (c + 1 + v, p), dtype=np.complex128)
        frames = Workspace(np.zeros(trials + (v + 1, p), dtype=np.complex128),
                           candidates[..., c:, :], np.empty(trials + (c + 1, p)),
                           np.empty(trials + (c + 1, p)),
                           np.zeros(trials + (v + 1, n), dtype=np.complex128))
        offsets = np.arange(0, math.prod(trials) * (c + 1), c + 1).reshape(trials)
        return cls(masks, factors, candidates, frames, offsets)


def pts_search(symbols: np.ndarray, partition: SubBlockPartition, w: int, oversample: int,
               workspace: PtsWorkspace | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array core of :func:`pts_reduce`: (combination index, linear PAPR, candidates).

    Takes (..., N) symbols, one trial per leading index, and returns (...)
    indices and PAPRs and the (..., W^(V-1), L*N) candidate samples, the
    winner at the returned index.  ``workspace`` must be sized for the same
    partition, W, L and leading shape, and the candidates are its own,
    rewritten by the next search; without one, the call builds its own.
    """
    ws = (workspace if workspace is not None
          else PtsWorkspace.sized(partition, w, oversample, symbols.shape[:-1]))
    c = ws.factors.shape[0]
    # The unmodified frame and the V blocks, one transform each, into candidates[..., c:, :]
    np.copyto(ws.frames.spectra, symbols[..., None, :], where=ws.masks)
    signals = time_samples(ws.frames.spectra, oversample, ws.frames)
    np.matmul(ws.factors, signals[..., 1:, :], out=ws.candidates[..., :c, :])  # the weighted sums
    scores = papr_linear(ws.candidates[..., :c + 1, :], ws.frames)   # ... and the unmodified frame
    best = pick_min(scores[..., :c])
    score = scores.take(ws.offsets + best)
    # Rounding in the block sums can lift the all-ones candidate a few ulps
    # above the directly synthesized frame; floor at the original, row c,
    # which then takes the place of the all-ones candidate, row 0.
    floored = score > scores[..., c]
    if np.count_nonzero(floored):
        np.copyto(ws.candidates[..., 0, :], ws.candidates[..., c, :], where=floored[..., None])
        best, score = np.where(floored, 0, best), np.where(floored, scores[..., c], score)
    return best, score, ws.candidates[..., :c, :]


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
    best, score, candidates = pts_search(freq.symbols, partition, w, oversample)
    best = int(best)
    return PtsResult(
        frame=TimeFrame(candidates[best], oversample),
        chosen=PhaseVector(_factor_matrix(w, partition.v_count)[best], best),
        papr=PaprSample.from_linear(score),
        combinations_searched=w ** (partition.v_count - 1),
    )
