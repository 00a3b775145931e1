"""One workload's run in its own pinned, single-threaded interpreter.

    python3 perfbench/child.py {measure,trace} --workload W --seed S --seconds T --work-dir D

``measure`` times a closed loop of ``ofdm_papr.cli.cli_main`` calls, each
on a fresh call seed with ``--format json --out <file>``, for ``--seconds``
seconds, after one untimed warm-up call.  ``trace`` runs the same loop with
spans installed on every second call, so traced and untraced calls sample
the same spells of machine speed.  Both then check
every call's output untimed and run the self-tests.  The last stdout line
is one JSON object for perfbench/run.py.

Right after each call the loop also times a fixed calibration kernel that
does not touch the package.  On a machine shared with other tenants the
speed of both drifts by tens of percent over seconds to minutes; the
ratio of a call's time per trial to the kernel's time next to it cancels
most of that drift (see README.md).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import ofdm_papr
from ofdm_papr import cli, frame

from checks import (CallRecord, calibration_kernel, check_call, check_calls, load_outputs,
                    reference_picks, subset_seed)
from tracer import Tracer
from workloads import WORKLOADS, Workload, call_seed

ROOT = Path(__file__).resolve().parent.parent
MIN_CALLS = 4
SELF_TEST_SLEEP_S = 0.02

# (name, unit) of each per-layer metric; times and counts are per trial.
_CLASSES = ("modulation.FrequencyFrame", "frame.TimeFrame", "slm.PhaseSequence",
            "pts.SubBlockPartition", "pts.PhaseVector", "slm.SlmResult", "pts.PtsResult")
PER_LAYER = [
    ("harness.trial_stream.self_us", "us/trial"), ("harness.trial_stream.calls", "1/trial"),
    ("modulation.random_frame.self_us", "us/trial"), ("modulation.random_frame.frames", "1/trial"),
    *[m for c in _CLASSES for m in ((f"{c}.self_us", "us/trial"), (f"{c}.constructed", "1/trial"))],
    ("slm.generate_phase_sequences.self_us", "us/trial"),
    ("slm.generate_phase_sequences.sequences", "1/trial"),
    ("slm.slm_reduce.self_us", "us/trial"),
    ("dft.inverse_dft.self_us", "us/trial"), ("dft.inverse_dft.rows", "1/trial"),
    ("dft.inverse_dft.points", "1/trial"), ("dft.inverse_dft.flops_computed", "1/trial"),
    ("dft.inverse_dft.bytes_computed", "B/trial"),
    ("frame.synthesize.self_us", "us/trial"), ("frame.papr.self_us", "us/trial"),
    ("frame.time_samples.self_us", "us/trial"),
    ("frame.papr_linear.self_us", "us/trial"), ("frame.papr_linear.rows", "1/trial"),
    ("frame.papr_linear.samples", "1/trial"),
    ("pts.pts_reduce.self_us", "us/trial"), ("pts.pts_reduce.candidates_scored", "1/trial"),
    ("pts.useful_ratio", "ratio"),
    ("harness.run_experiment.self_us", "us/trial"), ("stats.empirical_ccdf.self_us", "us/trial"),
    ("harness.write_result.self_us", "us/trial"), ("harness.write_result.bytes", "B/trial"),
    ("cli.cli_main.self_us", "us/trial"),
    ("process.cpu_per_wall", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
]


def timed_loop(w: Workload, seed: int, seconds: float, work_dir: Path,
               tracer: Tracer | None = None) -> list[CallRecord]:
    """Closed loop of CLI calls until ``seconds`` have passed (at least MIN_CALLS).

    With a tracer, the odd-numbered calls run with its spans installed.
    """
    calls = []
    deadline = time.perf_counter() + seconds
    while len(calls) < MIN_CALLS or time.perf_counter() < deadline:
        index = len(calls)
        record = CallRecord(index, call_seed(seed, w.name, index), w.trials_per_call,
                            work_dir / f"call{index}.json")
        argv = w.argv(record.seed, record.trials, record.out)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        main = cli.cli_main          # looked up per call: the tracer rebinds it
        t0 = time.perf_counter()
        try:
            record.status = main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        t2 = time.perf_counter()
        calibration_kernel(w)
        record.wall_s, record.calibration_s = t1 - t0, time.perf_counter() - t2
        calls.append(record)
    return calls


def trial_us(calls: list[CallRecord]) -> list[float]:
    return [c.wall_s / c.trials * 1e6 for c in calls]


def trial_cost(calls: list[CallRecord]) -> list[float]:
    """Per call: wall us per trial over calibration-kernel ms (us/ms)."""
    return [c.wall_s / c.trials * 1e6 / (c.calibration_s * 1e3) for c in calls]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "n": len(values)}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "ofdm_papr": ofdm_papr.__version__, "ofdm_papr_file": ofdm_papr.__file__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def fault_injection_self_test(w: Workload, call: CallRecord, seed: int) -> str:
    """A corrupted copy of one sample must fail its trial; '' when it does."""
    outputs = load_outputs(w, call, with_csv=False)
    if outputs is None:
        return "self-test: the first call has no output to corrupt"
    corrupted = copy.deepcopy(outputs)
    method = w.methods[-1]
    t = reference_picks(call.trials, subset_seed(seed, call.index))[0]
    corrupted.json[method]["samples_db"][t] += 1e-6
    failed, _ = check_call(w, call, corrupted, subset_seed(seed, call.index))
    return "" if failed[t] else f"self-test: corrupted {method} trial {t} was not detected"


def tracer_self_test(w: Workload, work_dir: Path) -> str:
    """A known sleep inside frame.time_samples must land in that span's self time."""
    original = frame.pad_spectrum

    def sleepy_pad(*args, **kwargs):
        time.sleep(SELF_TEST_SLEEP_S)
        return original(*args, **kwargs)

    tracer = Tracer()
    tracer.install()
    frame.pad_spectrum = sleepy_pad
    try:
        cli.cli_main(w.argv(call_seed(0, w.name, -2), 1, work_dir / "selftest.json"))
    finally:
        frame.pad_spectrum = original
        tracer.uninstall()
    own = tracer.self_times()
    slept = SELF_TEST_SLEEP_S * tracer.calls()["frame.time_samples"]
    if not slept <= own["frame.time_samples"] < slept + SELF_TEST_SLEEP_S / 2:
        return (f"tracer self-test: frame.time_samples self {own['frame.time_samples']:.4f} s, "
                f"expected {slept:.4f} s of sleep")
    leaked = {k: v for k, v in own.items() if k != "frame.time_samples"
              and v >= SELF_TEST_SLEEP_S / 2}
    return f"tracer self-test: sleep attributed to {sorted(leaked)}" if leaked else ""


def per_layer(tracer: Tracer, traced: list[CallRecord], untraced: list[CallRecord],
              cpu_per_wall: float) -> dict:
    trials = sum(c.trials for c in traced)
    own = tracer.self_times()
    calls = tracer.calls()
    values = {f"{k}.self_us": v / trials * 1e6 for k, v in own.items()}
    values.update({f"{k}.{unit}": calls[k] / trials for k, unit in (
        ("harness.trial_stream", "calls"), ("modulation.random_frame", "frames"),
        *((c, "constructed") for c in _CLASSES))})
    values.update({k: v / trials for k, v in tracer.counts.items()})
    scored = tracer.counts.get("pts.pts_reduce.candidates_scored", 0.0)
    values["pts.useful_ratio"] = (tracer.counts["pts.pts_reduce.orbits"] / scored
                                  if scored else 0.0)
    values["process.cpu_per_wall"] = cpu_per_wall
    values["trace.overhead_frac"] = (statistics.median(trial_cost(traced))
                                     / statistics.median(trial_cost(untraced)) - 1.0)
    values["trace.accounted_frac"] = sum(own.values()) / sum(c.wall_s for c in traced)
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["measure", "trace"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]

    env = environment()
    if not Path(env["ofdm_papr_file"]).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"ofdm_papr imported from {env['ofdm_papr_file']}, not from {ROOT / 'src'}")

    cli.cli_main(w.argv(call_seed(args.seed, w.name, -1), w.trials_per_call,
                       args.work_dir / "warmup.json"))
    # The high-water mark of the package alone: the calibration kernel and
    # the checks have not run yet, and every call has the same size.
    result = {"environment": env, "problems": [],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    tracer = Tracer() if args.mode == "trace" else None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    calls = timed_loop(w, args.seed, args.seconds, args.work_dir, tracer)
    result["cpu_per_wall"] = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    untraced = calls[0::2] if tracer else calls
    result["trial_us"] = summary(trial_us(untraced))
    result["trial_cost"] = summary(trial_cost(untraced))
    result["calibration_ms"] = summary([c.calibration_s * 1e3 for c in untraced])
    if tracer:
        traced = calls[1::2]
        result["per_layer"] = per_layer(tracer, traced, untraced, result["cpu_per_wall"])
        accounted = result["per_layer"]["trace.accounted_frac"]["value"]
        if not abs(accounted - 1.0) <= 0.01:
            result["problems"].append(
                f"trace: self times sum to {accounted:.4f} of the traced wall time")
        spans = ROOT / ".perfbench" / "spans" / f"{w.name}.npz"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["traced_trial_us"] = summary(trial_us(traced))
        result["top_layers"] = sorted(
            ((v, k) for k, v in tracer.self_times().items()), reverse=True)[:8]
        result["problems"].append(tracer_self_test(w, args.work_dir))

    report = check_calls(w, calls, args.seed)
    result.update(attempted=report.attempted, failed=report.failed, digests=report.digests)
    result["problems"] += report.problems[:20]
    result["problems"].append(fault_injection_self_test(w, calls[0], args.seed))
    result["problems"] = [p for p in result["problems"] if p]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
