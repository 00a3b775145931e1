"""Set-up probe: seconds from ``import ofdm_papr`` through the first completed trial.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUT

Runs in a fresh interpreter, so the numpy import, module imports and the
lazy caches filled by the first trial (twiddles, bit reversal, PTS factor
matrix, partition) are all inside the window.  Then it times the
workload's calibration kernel (after one untimed run) to tell how fast the
machine was just then.  Prints both durations in seconds.
"""

import sys
import time

t0 = time.perf_counter()
from ofdm_papr.cli import cli_main  # noqa: E402  (timed import)

from workloads import WORKLOADS, call_seed  # noqa: E402

workload, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
status = cli_main(WORKLOADS[workload].argv(call_seed(seed, workload, -3), 1, out))
elapsed = time.perf_counter() - t0
if status != 0:
    sys.exit(f"set-up call exited with status {status}")

from checks import calibration_kernel  # noqa: E402

calibration_kernel(WORKLOADS[workload])
t1 = time.perf_counter()
calibration_kernel(WORKLOADS[workload])
print(repr(elapsed), repr(time.perf_counter() - t1))
