"""The benchmark's workloads: each mirrors a fixture of tests/test_acceptance.py.

A workload is a fixed ofdm-papr configuration.  Every timed call runs it
through the CLI on a fresh call seed derived from the benchmark seed, so
the program receives only the generated configuration.  Trials per call
are sized so that one call takes 0.1-0.15 s on a 2-vCPU x86-64 machine at
the commit that added the benchmark: long enough that the per-call fixed
cost (argument parsing, CCDF, JSON) stays a few percent, short enough that
the calibration kernel run after each call sees the same machine state.
``calibration_trials`` sizes that kernel, a package-independent rebuild of
the workload's first trials, to about 10-15 ms.

Importing this module imports no numpy: the set-up probe times
``import ofdm_papr`` (and with it numpy) from a fresh interpreter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    oversample: int
    methods: tuple[str, ...]
    trials_per_call: int
    calibration_trials: int
    slm_m: int = 4
    pts_v: int = 4
    pts_w: int = 4
    why: str = ""

    def argv(self, seed: int, trials: int, out: Path, fmt: str = "json") -> list[str]:
        """ofdm-papr arguments for one call writing ``fmt`` to ``out``."""
        method = (["--method", self.methods[0]] if len(self.methods) == 1
                  else [a for m in self.methods for a in ("--compare", m)])
        return [
            "--n", str(self.n), "--mod", "qpsk", "--oversample", str(self.oversample),
            *method,
            "--slm-m", str(self.slm_m), "--pts-v", str(self.pts_v),
            "--pts-w", str(self.pts_w), "--partition", "pseudorandom",
            "--trials", str(trials), "--seed", str(seed),
            "--format", fmt, "--out", str(out),
        ]

    def outputs(self, out: Path) -> dict[str, Path]:
        """Method -> file the CLI writes for ``--out out`` (``--compare`` adds a suffix)."""
        if len(self.methods) == 1:
            return {self.methods[0]: out}
        return {m: out.with_name(f"{out.stem}_{m}{out.suffix}") for m in self.methods}


WORKLOADS = {w.name: w for w in (
    Workload(
        "nyquist", n=64, oversample=1, methods=("none", "slm"), slm_m=4,
        trials_per_call=250, calibration_trials=64,
        why="N=64 QPSK L=1, none+SLM M=4 on shared seeds: per-trial fixed cost "
            "(stream derivation, frame draw, wrapper validation) dominates; "
            "no PTS code runs"),
    Workload(
        "slm_oversampled", n=128, oversample=8, methods=("slm",), slm_m=16,
        trials_per_call=64, calibration_trials=16,
        why="N=128 QPSK L=8, SLM M=16: 16x1024-point transforms and phase-sequence "
            "generation dominate; the largest candidate tensor per trial"),
    Workload(
        "pts_exhaustive", n=128, oversample=8, methods=("pts",), pts_v=4, pts_w=4,
        trials_per_call=24, calibration_trials=2,
        why="N=128 QPSK L=8, PTS V=4 W=4 pseudo-random partition: scoring 256 "
            "candidates and their weighted sums dominate; the transform is ~10%"),
)}


def call_seed(seed: int, workload: str, index: int) -> int:
    """Master seed of the index-th call of a run; a pure function of its inputs."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
