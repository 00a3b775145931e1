"""Selected mapping: score M phase-rotated candidates, keep the lowest PAPR.

Candidate 0 always carries the all-ones identity sequence, so the selected
frame can never be worse than the unmodified one.  The remaining sequences
draw i.i.d. rotations from the 4-ary alphabet {+1, -1, +j, -j}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import PaprSample, TimeFrame, papr_linear, time_samples
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
        if not np.allclose(np.abs(arr), 1.0, rtol=0.0, atol=1e-12):
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


def phase_rotations(m_count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Array core of :func:`generate_phase_sequences`: all-ones row 0, then drawn rows."""
    rows = np.ones((m_count, n), dtype=np.complex128)
    for row in rows[1:]:
        row[:] = PHASE_ALPHABET[rng.integers(0, PHASE_ALPHABET.size, n)]
    return rows


def slm_search(symbols: np.ndarray, rotations: np.ndarray,
               oversample: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Array core of :func:`slm_reduce`: (lowest argmin, linear PAPRs, winner's samples)."""
    candidates = time_samples(symbols * rotations, oversample)
    scores = papr_linear(candidates)
    best = int(np.argmin(scores))
    return best, scores, candidates[best].copy()   # a view would pin every candidate


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

    Ties break toward the lowest candidate index.  Pure function of its
    inputs; the candidates are scored as one batch.
    """
    if not sequences:
        raise ValueError("at least one phase sequence is required")
    for s in sequences:
        if s.rotations.size != freq.n_subcarriers:
            raise ValueError(
                f"sequence length {s.rotations.size} != frame length {freq.n_subcarriers}")
    best, scores, samples = slm_search(
        freq.symbols, np.stack([s.rotations for s in sequences]), oversample)
    return SlmResult(
        frame=TimeFrame(samples, oversample),
        selected_index=best,
        papr=PaprSample.from_linear(scores[best]),
        all_paprs=[PaprSample.from_linear(v) for v in scores],
    )
