"""Selected mapping: score M phase-rotated candidates, keep the lowest PAPR.

Candidate 0 always carries the all-ones identity sequence, so the selected
frame can never be worse than the unmodified one.  The remaining sequences
draw i.i.d. rotations from the 4-ary alphabet {+1, -1, +j, -j}.  Ties break
toward the lowest index within a 1e-12 relative window, the same rule as PTS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import (PaprSample, TimeFrame, check_work, is_unit_magnitude, papr, papr_linear,
                    pick_min, spend_peak_power, time_samples)
from .modulation import FrequencyFrame, read_only_field

# PTS at W=2 uses the first two.  No part is -0.0 (as in -1.0j), so the run's
# drawn rotations are, bit for bit, those of the public PhaseSequence.
PHASE_ALPHABET = np.array([1.0 + 0.0j, -1.0 + 0.0j, 0.0 + 1.0j, 0.0 - 1.0j])


@dataclass(frozen=True, eq=False, slots=True)
class PhaseSequence:
    """Per-subcarrier unit-magnitude rotations plus the candidate index."""

    rotations: np.ndarray
    index: int

    def __post_init__(self) -> None:
        arr = read_only_field(self, "rotations", np.complex128)
        if self.index < 0:
            raise ValueError("index must be non-negative")
        if not is_unit_magnitude(arr):
            raise ValueError("rotations must have unit magnitude")
        if self.index == 0 and not np.all(arr == 1.0):
            raise ValueError("sequence 0 must be the all-ones identity")


@dataclass(frozen=True, eq=False, slots=True)
class SlmResult:
    """Winning candidate frame, its index (the side information), and all PAPRs."""

    frame: TimeFrame
    selected_index: int
    papr: PaprSample
    all_paprs: list[PaprSample]


def slm_candidates(symbols: np.ndarray, rotations: np.ndarray, oversample: int,
                   block: np.ndarray) -> np.ndarray:
    """Array core of :func:`slm_reduce`: write the (..., M, L*N) candidate block.

    Takes (..., N) symbols and (..., M, N) rotations, one trial per leading
    index, and the caller's complex128 block to write; returns that block.
    With the identity rotation first, row 0 is the unmodified frame.
    """
    return time_samples(symbols[..., None, :] * rotations, oversample, out=block)


def generate_phase_sequences(m_count: int, n: int,
                             rng: np.random.Generator) -> list[PhaseSequence]:
    """Identity sequence first, then m_count-1 random 4-ary sequences.

    One draw of (M-1, N) alphabet indices; it yields the same rotations as
    M-1 draws of N, one row at a time, from the same stream.
    """
    if m_count < 1:
        raise ValueError("m_count must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = np.ones((m_count, n), dtype=np.complex128)
    rows[1:] = PHASE_ALPHABET[rng.integers(0, PHASE_ALPHABET.size, (m_count - 1, n))]
    return [PhaseSequence(row, m) for m, row in enumerate(rows)]


def slm_reduce(freq: FrequencyFrame, sequences: list[PhaseSequence],
               oversample: int) -> SlmResult:
    """Synthesize every rotated candidate and return the one of lowest peak power.

    Picks as a run does, by max|x|^2 with ties toward the lowest index within
    a 1e-12 relative window, as in PTS; with unit-magnitude rotations every
    candidate has the frame's energy, so that is the minimum PAPR.  The
    reported PAPRs are the public :func:`~ofdm_papr.frame.papr`'s.  Pure
    function of its inputs; the candidates are scored as one batch.
    """
    if not sequences:
        raise ValueError("at least one phase sequence is required")
    if any(s.index != i for i, s in enumerate(sequences)):
        raise ValueError("sequence i must carry index i, the identity first")
    for s in sequences:
        if s.rotations.size != freq.n_subcarriers:
            raise ValueError(
                f"sequence length {s.rotations.size} != frame length {freq.n_subcarriers}")
    check_work(freq.n_subcarriers, oversample, len(sequences))
    candidates = np.empty((len(sequences), oversample * freq.n_subcarriers), dtype=np.complex128)
    slm_candidates(freq.symbols, np.stack([s.rotations for s in sequences]), oversample,
                   candidates)
    best = int(pick_min(spend_peak_power(candidates.copy())))
    frame = TimeFrame(candidates[best], oversample)
    return SlmResult(
        frame=frame,
        selected_index=best,
        papr=papr(frame),
        all_paprs=[PaprSample.from_linear(v) for v in papr_linear(candidates)],
    )
