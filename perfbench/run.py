"""ofdm-papr benchmark: end-to-end and per-layer metrics of the CLI path.

    python3 perfbench/run.py --workload {nyquist,slm_oversampled,pts_exhaustive,all}
                             --seed N --seconds T --trace {0,1}

Run from a checkout's root; the package is imported from its ``src``.
Each workload runs in its own child interpreter (perfbench/child.py),
one after another, with OpenBLAS/OpenMP pinned to one thread in the
child's environment only.  ``--trace 0`` also starts SETUP_PROBES fresh
interpreters (perfbench/setup_probe.py), half before the child and half
after it, and reports their median set-up time.  Human-readable lines come first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
A run whose child fails to report exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8
# setup_s is scaled to a machine on which the calibration kernel takes this long.
NOMINAL_CALIBRATION_S = 0.010
WORKLOAD_TIMEOUT_S = 170   # children of one workload are killed after this long
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    return {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(ROOT / "src")}


def run_child(argv: list[str], deadline: float) -> str:
    """Stdout of a pinned child interpreter; raises when it fails or runs past ``deadline``."""
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(argv[0]).name} exited with status {proc.returncode}")
    return proc.stdout


def probe_seconds(out: str) -> tuple[float, float]:
    """(raw set-up seconds, set-up seconds scaled by the probe's calibration kernel)."""
    setup, calibration = (float(x) for x in out.split())
    return setup, setup * NOMINAL_CALIBRATION_S / calibration


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's child result; with ``trace`` off, set-up probes around it.

    Half the probes run before the child and half after it, so a slow spell
    of the machine at one moment does not set the median alone.
    """
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    work_dir = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    probe = [str(HERE / "setup_probe.py"), name, str(seed), str(work_dir / "setup.json")]
    setup = []
    try:
        if not trace:
            run_child(probe, deadline)     # compiles bytecode once, as an install would
            setup += [probe_seconds(run_child(probe, deadline))
                      for _ in range(SETUP_PROBES // 2)]
        out = run_child([str(HERE / "child.py"), "trace" if trace else "measure",
                         "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                         "--work-dir", str(work_dir)], deadline)
        if not trace:
            setup += [probe_seconds(run_child(probe, deadline))
                      for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup
    return result


def metrics(result: dict, trace: bool) -> dict:
    if trace:
        return result["per_layer"]
    attempted = result["attempted"]
    return {
        "trial_cost": {"value": result["trial_cost"]["median"], "unit": "us/ms"},
        "setup_s": {"value": statistics.median(s for _, s in result["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        "passed_trial_frac": {"value": (attempted - result["failed"]) / attempted,
                              "unit": "frac"},
    }


def report(name: str, result: dict, trace: bool) -> None:
    """Print one workload's human-readable block."""
    env = result["environment"]
    print(f"== {name}  python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"ofdm_papr {env['ofdm_papr']}  nproc {env['nproc']} (affinity {env['affinity']})  "
          f"threads {env['threads']}")
    prefix = "untraced " if trace else ""
    for key, unit in (("trial_us", "us"), ("calibration_ms", "ms"), ("trial_cost", "us/ms")):
        t = result[key]
        print(f"{prefix}{key}: median {t['median']:.4g} {unit}  q1 {t['q1']:.4g}  "
              f"q3 {t['q3']:.4g}  min {t['min']:.4g}  n={t['n']} calls")
    if trace:
        t = result["traced_trial_us"]
        print(f"traced trial_us: median {t['median']:.4g} us  q1 {t['q1']:.4g}  "
              f"q3 {t['q3']:.4g}  min {t['min']:.4g}  n={t['n']} calls  "
              f"(spans: {result['spans_file']})")
        print("top self time: " + ", ".join(
            f"{k} {v:.2f}s" for v, k in result["top_layers"]))
    else:
        for label, values in zip(("raw setup", "setup_s"), zip(*result["setup_s"])):
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"{label}: median {median:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"n={len(values)} interpreters")
        print(f"peak_rss_mb: {result['peak_rss_mb']:.1f} MiB  "
              f"cpu_per_wall: {result['cpu_per_wall']:.3f}")
    print(f"failed_trial_frac: {result['failed'] / result['attempted']:.6g}  "
          f"({result['failed']} of {result['attempted']} trials)")
    for d in result["digests"]:
        print(f"digest {d['workload']} seed={d['seed']} trials={d['trials']} {d['method']} "
              f"csv={d['csv_sha256']} samples={d['samples_sha256']}")
    for p in result["problems"]:
        print(f"PROBLEM {name}: {p}")
    for k, m in metrics(result, trace).items():
        print(f"{name} {k} = {m['value']!r} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "ofdm_papr" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'ofdm_papr'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        report(name, result, trace)
        totals["correct"] &= result["failed"] == 0 and not result["problems"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        totals["metrics"].update({prefix + k: m for k, m in metrics(result, trace).items()})
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
