"""Calibration kernels: fixed work that never touches fragilis.

The shared VM this benchmark was tuned on changes speed in phases that last
from seconds to minutes, by up to half. A kernel timed right before and right
after each step slows down with it, so the step's time over the kernel's time
holds still while the raw time does not. Each workload uses the kernel that
resembles its own work:

- numpy_kernel: array arithmetic in 2 MB chunks, like run_stress;
- python_kernel: interpreted loops over lists and dicts, like refclass/stats;
- interpreter_kernel: a fresh interpreter that imports numpy and the
  standard-library modules the CLI uses, like one CLI command's start-up and
  like each workload's set-up.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from pathlib import Path

INTERPRETER_CODE = ("import time; t0 = time.perf_counter(); "
                    "import numpy, argparse, csv, dataclasses, hashlib, json, pathlib, statistics; "
                    "print(repr(time.perf_counter() - t0))")
INTERPRETER_TIMEOUT_S = 60
# About the import seconds of interpreter_kernel on the reference machine
# (perfbench/README.md). setup_s is the set-up time over the kernel's import
# time, scaled by this constant, i.e. seconds at the reference machine's speed.
IMPORT_REF_S = 0.1


def numpy_kernel() -> float:
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(4):  # chunks of run_stress's default size, so memory stays small
        a = rng.random(262_144)
        float((a ** 0.7).sum() + np.exp(a).sum())
    return time.perf_counter() - t0


def python_kernel() -> float:
    t0 = time.perf_counter()
    rnd = random.Random(1)
    xs = [rnd.random() for _ in range(20_000)]
    sums: dict[int, float] = {}
    for i, x in enumerate(xs):
        sums[i % 997] = sums.get(i % 997, 0.0) + x * x
    xs.sort()
    return time.perf_counter() - t0


def interpreter_kernel(cwd: Path) -> tuple[float, float]:
    """Wall seconds of the fresh interpreter, and seconds of its imports as
    timed inside it."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", INTERPRETER_CODE], cwd=cwd, capture_output=True,
                          text=True, timeout=INTERPRETER_TIMEOUT_S, check=True)
    return time.perf_counter() - t0, float(proc.stdout)
