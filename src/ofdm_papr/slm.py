"""Selected mapping: score M phase-rotated candidates, keep the lowest PAPR.

Candidate 0 always carries the all-ones identity sequence, so the selected
frame can never be worse than the unmodified one.  The remaining sequences
draw i.i.d. rotations from the 4-ary alphabet {+1, -1, +j, -j}.  Ties break
toward the lowest index within a 1e-12 relative window, the same rule as PTS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import (PaprSample, TimeFrame, check_work, is_unit_magnitude, papr_linear, pick_min,
                    time_samples)
from .modulation import FrequencyFrame

PHASE_ALPHABET = np.array([1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j])


@dataclass(frozen=True, eq=False, slots=True)
class PhaseSequence:
    """Per-subcarrier unit-magnitude rotations plus the candidate index."""

    rotations: np.ndarray
    index: int

    def __post_init__(self) -> None:
        arr = np.array(self.rotations, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("rotations must be one-dimensional")
        if self.index < 0:
            raise ValueError("index must be non-negative")
        if not is_unit_magnitude(arr):
            raise ValueError("rotations must have unit magnitude")
        if self.index == 0 and not np.all(arr == 1.0):
            raise ValueError("sequence 0 must be the all-ones identity")
        arr.flags.writeable = False
        object.__setattr__(self, "rotations", arr)


@dataclass(frozen=True, eq=False, slots=True)
class SlmResult:
    """Winning candidate frame, its index (the side information), and all PAPRs."""

    frame: TimeFrame
    selected_index: int
    papr: PaprSample
    all_paprs: list[PaprSample]


def phase_rotations(m_count: int, n: int, rng: np.random.Generator,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Array core of :func:`generate_phase_sequences`: all-ones row 0, then drawn rows.

    One draw of (M-1, N) alphabet indices; it yields the same rotations as
    M-1 draws of N, one row at a time, from the same stream.  Written into
    ``out`` (an (M, N) complex128 array) when given.
    """
    rows = np.empty((m_count, n), dtype=np.complex128) if out is None else out
    rows[0] = 1.0
    # In-range indices: "clip" spares the copy of ``out`` that "raise" makes.
    PHASE_ALPHABET.take(rng.integers(0, PHASE_ALPHABET.size, (m_count - 1, n)),
                        out=rows[1:], mode="clip")
    return rows


def slm_search(symbols: np.ndarray, rotations: np.ndarray, oversample: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array core of :func:`slm_reduce`: (selected index, linear PAPRs, candidates).

    Takes (..., N) symbols and (..., M, N) rotations, one trial per leading
    index, and returns (...) indices, (..., M) PAPRs and the (..., M, L*N)
    candidate samples, the winner at the selected index.  Every returned
    array is fresh, allocated by this call.
    """
    candidates = time_samples(symbols[..., None, :] * rotations, oversample)
    scores = papr_linear(candidates)
    return pick_min(scores), scores, candidates


def generate_phase_sequences(m_count: int, n: int,
                             rng: np.random.Generator) -> list[PhaseSequence]:
    """Identity sequence first, then m_count-1 random 4-ary sequences."""
    if m_count < 1:
        raise ValueError("m_count must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return [PhaseSequence(row, m) for m, row in enumerate(phase_rotations(m_count, n, rng))]


def slm_reduce(freq: FrequencyFrame, sequences: list[PhaseSequence],
               oversample: int) -> SlmResult:
    """Synthesize every rotated candidate and return the minimum-PAPR one.

    Ties break toward the lowest index within a 1e-12 relative window, as in
    PTS.  Pure function of its inputs; the candidates are scored as one batch.
    """
    if not sequences:
        raise ValueError("at least one phase sequence is required")
    for s in sequences:
        if s.rotations.size != freq.n_subcarriers:
            raise ValueError(
                f"sequence length {s.rotations.size} != frame length {freq.n_subcarriers}")
    check_work(freq.n_subcarriers, oversample, len(sequences))
    best, scores, candidates = slm_search(
        freq.symbols, np.stack([s.rotations for s in sequences]), oversample)
    return SlmResult(
        frame=TimeFrame(candidates[best], oversample),
        selected_index=int(best),
        papr=PaprSample.from_linear(scores[best]),
        all_paprs=[PaprSample.from_linear(v) for v in scores],
    )
