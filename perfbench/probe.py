"""Time one workload set-up in a fresh interpreter and print the seconds.

Usage: python3 perfbench/probe.py <workload> <work-dir>
Run with PYTHONPATH pointing at the package sources.
"""

import sys
import time
from pathlib import Path

from setups import SETUPS

if __name__ == "__main__":
    workload, work = sys.argv[1], Path(sys.argv[2])
    t0 = time.perf_counter()
    SETUPS[workload](work)
    print(repr(time.perf_counter() - t0))
