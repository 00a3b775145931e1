"""Command-line surface for the Monte-Carlo CCDF experiments.

Exit status: 0 on success, 1 on any usage or validation error (nothing is
written in that case), 2 on an I/O failure while writing results.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ExperimentConfig,
    Method,
    run_experiments,
    threshold_grid,
    write_result,
)
from .modulation import ModulationScheme
from .pts import PartitionScheme


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports bad flags as validation errors (exit 1)."""

    def error(self, message):
        raise _UsageError(message)


# argparse keeps no state between parse_args calls, so one parser serves every call.
_PARSER = _Parser(prog="ofdm-papr",
                  description="Seeded OFDM PAPR CCDF experiments (SLM / PTS)")
_PARSER.add_argument("--n", type=int, default=64, help="subcarrier count N")
_PARSER.add_argument("--mod", choices=["bpsk", "qpsk"], default="qpsk")
_PARSER.add_argument("--oversample", type=int, default=8, metavar="L")
_METHODS = _PARSER.add_mutually_exclusive_group()
_METHODS.add_argument("--method", choices=["none", "slm", "pts"], default=None)
_PARSER.add_argument("--slm-m", type=int, default=4, help="SLM candidate count M")
_PARSER.add_argument("--pts-v", type=int, default=4, help="PTS sub-block count V")
_PARSER.add_argument("--pts-w", type=int, default=4, help="PTS phase order W (2 or 4)")
_PARSER.add_argument("--partition", choices=["adjacent", "interleaved", "pseudorandom"],
                     default="pseudorandom")
_PARSER.add_argument("--trials", type=int, default=1000)
_PARSER.add_argument("--seed", type=int, default=0, help="64-bit master seed")
_PARSER.add_argument("--thresholds", default="0:13:0.05", metavar="LO:HI:STEP",
                     help="dB threshold grid (default 0:13:0.05)")
_PARSER.add_argument("--format", choices=["csv", "json"], default="csv")
_PARSER.add_argument("--out", type=Path, default=None,
                     help="output path (stdout when omitted)")
_PARSER.add_argument("--analytic", action="store_true",
                     help="attach the closed-form curve (methods none and slm)")
_METHODS.add_argument("--compare", action="append", choices=["none", "slm", "pts"],
                     metavar="METHOD",
                     help="repeatable: run several methods on shared seeds, "
                          "one output per method; none and slm share one search")


def _parse_thresholds(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--thresholds expects LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(x) for x in parts)
    except ValueError:
        raise _UsageError(f"--thresholds expects numeric LO:HI:STEP, got {text!r}")
    return threshold_grid(lo, hi, step)


def cli_main(argv=None) -> int:
    """Parse flags, run the experiment(s), write the output(s)."""
    try:
        args = _PARSER.parse_args(argv)
        if args.compare and len(set(args.compare)) != len(args.compare):
            raise _UsageError("--compare methods must be distinct")
        if args.compare and args.out is None:
            raise _UsageError("--compare writes one file per method and requires --out")
        methods = ([Method(m) for m in args.compare] if args.compare
                   else [Method(args.method or "none")])
        base = ExperimentConfig(
            n_subcarriers=args.n,
            modulation=ModulationScheme(args.mod),
            oversample=args.oversample,
            method=methods[0],
            slm_branches=args.slm_m,
            pts_blocks=args.pts_v,
            pts_phase_order=args.pts_w,
            partition_scheme=PartitionScheme(args.partition),
            trials=args.trials,
            master_seed=args.seed,
            thresholds_db=_parse_thresholds(args.thresholds),
        )
        configs = [replace(base, method=m) for m in methods]
        # Validates every config before it searches; nothing is written yet.
        results = run_experiments(configs, analytic=args.analytic)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_PARSER.format_usage(), end="", file=sys.stderr)
        return 1

    out = args.out
    try:
        for config, result in zip(configs, results):
            # --compare requires --out, and names each file after its method.
            destination = (out.with_name(f"{out.stem}_{config.method.value}{out.suffix}")
                           if args.compare else out or sys.stdout)
            write_result(result, args.format, destination)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
