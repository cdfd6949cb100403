"""Time one fresh process's set-up for a workload and print the seconds.

    python3 bench/setup_probe.py WORKLOAD SEED

The clock starts before any import, so the figure covers importing numpy
and fdmlab and then building the workload's operators and stability
polynomials (``workloads.setup``).  run.py starts this several times per
run and reports the median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fdmlab  # noqa: E402,F401
import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - T0)
