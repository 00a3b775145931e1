"""Run the benchmark on several seeds and report each metric's run-to-run spread.

    python3 perfbench/stability.py --workload pts_exhaustive --seeds 1 2 3 4 5
    python3 perfbench/stability.py --workload all --seeds 1-10 --save .perfbench/set1.json
    python3 perfbench/stability.py --workload all --seeds 1-10 --against .perfbench/set1.json

For each workload and end-to-end metric it prints the ten (or so) values,
their median and the spread (q3 - q1) / median, with Python's
``statistics.quantiles(values, n=4)``, against the metric's bound in
BENCHMARK.json (steady when the spread is below a third of the bound).
With ``--against`` it also compares medians with an earlier set, and the
output digests of every (workload, call seed) that both sets ran.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def seeds(text: list[str]) -> list[int]:
    out = []
    for item in text:
        lo, _, hi = item.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digests"] = {}
    for line in lines:
        if line.startswith("digest "):
            _, _, call_seed, _, method, csv, samples = line.split()
            result["digests"][f"{workload}:{call_seed}:{method}"] = [csv, samples]
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seeds", nargs="+", default=["1-10"])
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    runs = {}
    for name in names:
        runs[name] = []
        for seed in seeds(args.seeds):
            result = run_once(name, seed, bench["run_seconds"])
            runs[name].append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + "  ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                  flush=True)
    previous = json.loads(args.against.read_text()) if args.against else {}

    steady = True
    for name, results in runs.items():
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            median, rel = spread(values)
            ok = metric == "setup_s" or rel < bound / 3
            steady &= ok
            line = (f"{name:16s} {metric:18s} median {median:<12.6g} spread {rel:7.4f} "
                    f"bound {bound} {'ok' if ok else 'WIDE'}")
            if name in previous:
                old = statistics.median(r["metrics"][metric]["value"] for r in previous[name])
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == metric)
                change = (median - old) / old * (1 if better == "lower" else -1)
                ok = change <= bound
                steady &= ok
                line += f"  vs earlier {old:.6g}: worse by {change:+.4f} {'ok' if ok else 'REGRESSED'}"
            print(line)
        if name in previous:
            new = {k: v for r in results for k, v in r["digests"].items()}
            old = {k: v for r in previous[name] for k, v in r["digests"].items()}
            shared = new.keys() & old.keys()
            differ = [k for k in shared if new[k] != old[k]]
            steady &= not differ
            print(f"{name:16s} digests: {len(shared)} shared calls, {len(differ)} differ "
                  + " ".join(differ[:5]))
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(runs))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
