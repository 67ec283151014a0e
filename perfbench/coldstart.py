"""Time one cold start: a fresh import of perturba plus one workload's setup.

This is what a CLI user pays on every call.  run.py starts it several times,
one process after another, and reports the median as setup_s.

Usage: python3 perfbench/coldstart.py <workload>   (prints seconds taken)
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy and perturba)

workloads.WORKLOADS[sys.argv[1]].setup()
print(time.perf_counter() - T0)
