"""Selected mapping: score M phase-rotated candidates, keep the lowest PAPR.

Candidate 0 always carries the all-ones identity sequence, so the selected
frame can never be worse than the unmodified one.  The remaining sequences
draw i.i.d. rotations from the 4-ary alphabet {+1, -1, +j, -j}.  Ties break
toward the lowest index within a 1e-12 relative window, the same rule as PTS.

A run scores through :func:`slm_scores`: it bounds each candidate on a
shorter transform and, through the pruning loop PTS runs too, scores in
full only those that can still win.  :func:`slm_reduce` scores every
candidate and stays its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frame import (PaprSample, TimeFrame, _prune, is_unit_magnitude, pick_min, spend_power,
                    time_samples)
from .modulation import FrequencyFrame, check_work, read_only_field

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


def slm_stride(c: int, oversample: int) -> int:
    """The bound's stride s, the largest divisor of L with s <= L/2, or 1.

    It is L over L's smallest prime factor.  s divides L, so the
    (L/s)*N-point transform samples the L*N-point one.  One candidate
    (C = 1) has nothing to prune: s = 1.
    """
    if c == 1:
        return 1
    factor = next((d for d in range(2, math.isqrt(oversample) + 1) if oversample % d == 0),
                  oversample)
    return oversample // factor


def slm_scores(symbols: np.ndarray, rotations: np.ndarray, oversample: int, block: np.ndarray,
               widths) -> np.ndarray:
    """Array core of a run's SLM search: the (k, M) scores of (k, N) symbols.

    Takes (k, M, N) rotations, the identity first, and the sorted member
    widths, the last M.  A score is L*max|x|^2, or +inf where the candidate
    cannot win.  Sample s*q of a candidate's L*N-point transform is sample
    q of its (L/s)*N-point transform over sqrt(s), s = :func:`slm_stride`,
    so (L/s) times that transform's peak power bounds the score
    (Tellambura, IEEE Commun. Lett. 2001; Wunder & Boche, IEEE Trans. Inf.
    Theory 2003).  At s = 1 the bounds are the scores.  Otherwise row 0 is
    scored in full, and :func:`~ofdm_papr.frame._prune` scores the rest
    that can still win, one row per trial at a time: unlike a PTS product,
    a transform row has the bytes :func:`slm_candidates` gives it in any
    batch, so it needs no partner.  `block` is the caller's C-contiguous
    complex128 (k, :func:`~ofdm_papr.frame.search_width`) block, spent as
    scratch: the bounds fill its front, then the rows scored in full.
    """
    spectra = symbols[:, None, :] * rotations
    k, c, n = spectra.shape
    stride = slm_stride(c, oversample)
    size = oversample * n
    scratch = block.reshape(-1)
    bounds = scratch[:k * c * size // stride].reshape(k, c, -1)
    peaks = oversample // stride * spend_power(
        time_samples(spectra, oversample // stride, out=bounds)).max(axis=-1)
    if stride == 1:
        return peaks
    scores = np.full(peaks.shape, np.inf)

    def score_rows(trials, rows):
        full = scratch[:rows.size * size].reshape(*rows.shape, size)
        return oversample * spend_power(
            time_samples(spectra[trials[:, None], rows], oversample, out=full)).max(axis=-1)

    scores[:, :1] = score_rows(np.arange(k), np.zeros((k, 1), dtype=np.intp))
    return _prune(peaks, scores, widths, score_rows, 1)


def generate_phase_sequences(m_count: int, n: int,
                             rng: np.random.Generator) -> list[PhaseSequence]:
    """Identity sequence first, then m_count-1 random 4-ary sequences.

    One draw of (M-1, N) alphabet indices; it yields the same rotations as
    M-1 draws of N, one row at a time, from the same stream.
    """
    if m_count < 1:
        raise ValueError("m_count must be >= 1")
    check_work(n, 1, m_count)
    rows = np.ones((m_count, n), dtype=np.complex128)
    rows[1:] = PHASE_ALPHABET[rng.integers(0, PHASE_ALPHABET.size, (m_count - 1, n))]
    return [PhaseSequence(row, m) for m, row in enumerate(rows)]


def slm_reduce(freq: FrequencyFrame, sequences: list[PhaseSequence],
               oversample: int) -> SlmResult:
    """Synthesize every rotated candidate and return the one of lowest peak power.

    Picks as a run does, by max|x|^2 with ties toward the lowest index within
    a 1e-12 relative window, as in PTS; with unit-magnitude rotations every
    candidate has the frame's energy, so that is the minimum PAPR.  One
    power pass over the batch of candidates gives the pick and every
    reported PAPR, each the public :func:`~ofdm_papr.frame.papr`'s.  Pure
    function of its inputs.
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
    power = spend_power(candidates.copy())
    peaks = power.max(axis=-1)
    best = int(pick_min(peaks))
    paprs = [PaprSample.from_linear(v) for v in peaks / power.mean(axis=-1)]
    return SlmResult(
        frame=TimeFrame(candidates[best], oversample),
        selected_index=best,
        papr=paprs[best],
        all_paprs=paprs,
    )
