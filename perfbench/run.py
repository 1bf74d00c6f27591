"""fragilis benchmark runner.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root; the package is loaded from ./src, not from an
installed copy. One client drives the package in a closed loop. With
--trace 0 the last stdout line is a JSON object carrying the end-to-end
metrics; with --trace 1 it carries the per-layer metrics from a traced run
(half the time untraced, half traced, so the tracing overhead is reported
too). Lines before it describe the machine, input and output digests,
workload-specific figures and any failed check. --workload all runs every
workload in its own process and prints a summary table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_PARENT = ROOT / ".perfbench_work"
END_TO_END = {"setup_s": "s", "wall_per_cal": "ratio", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 600


def machine() -> dict:
    import numpy

    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def measure(workload, seconds: float, between=None) -> list:
    """Passes back to back until `seconds` have elapsed (at least one).

    Each pass's outputs are hashed as soon as it returns; only the first
    pass keeps them (for the checks), so memory does not grow with the
    number of passes. `between`, if given, is called after every pass.
    """
    import workloads

    passes = []
    end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < end:
        done = workload.run_pass()
        done.digest = workloads.digest(done.outputs)
        if passes:
            done.outputs = None
        passes.append(done)
        if between is not None:
            between()
    return passes


class SetupSampler:
    """Set-up samples spread over the run, so they meet the same host
    conditions as the passes (see workloads.SETUP_SAMPLES).

    Each set-up is timed between two interpreter kernels (calibrate.py);
    `samples` holds the raw seconds and `relative` the set-up over the mean
    of the two kernels' import times.
    """

    def __init__(self, workload) -> None:
        import workloads

        self.every = workloads.SETUP_EVERY_S
        self.workload, self.last = workload, time.perf_counter()
        self.samples, self.relative = [], []

    def __call__(self) -> None:
        if time.perf_counter() - self.last >= self.every:
            self.take()

    def take(self) -> None:
        import calibrate

        before = calibrate.interpreter_kernel(self.workload.work)[1]
        seconds = self.workload.setup_once()
        after = calibrate.interpreter_kernel(self.workload.work)[1]
        self.samples.append(seconds)
        self.relative.append(seconds / ((before + after) / 2))
        self.last = time.perf_counter()

    def setup_s(self) -> float:
        """Set-up seconds at the reference machine's speed."""
        import calibrate

        return statistics.median(self.relative) * calibrate.IMPORT_REF_S


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import workloads
    from workloads import Check

    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_PARENT))
    try:
        wl = workloads.WORKLOADS[name](ROOT, work, seed)
        input_digest = hashlib.sha256(wl.write_inputs()).hexdigest()
        wl.in_process = trace
        wl.setup()
        wl.warm()
        setup = SetupSampler(wl)
        if trace:
            untraced = measure(wl, seconds / 2)
            tracer = layers.Tracer()
            with layers.tracing(tracer) as absent:
                passes = measure(wl, seconds / 2)
            metrics = layers.layer_metrics(tracer, len(passes))
            metrics["stress.run_stress.workers2.s"] = wl.workers2_seconds()
            metrics["cli.import.s"] = statistics.median(
                workloads.import_seconds(ROOT, "fragilis.cli", 3))
            metrics["trace.overhead_s"] = (statistics.median(p.seconds for p in passes)
                                           - statistics.median(p.seconds for p in untraced))
            metrics["trace.absent_names"] = len(absent)
            units = {m: layers.unit(m) for m in metrics}
            for target in absent:
                print(f"trace: absent {target}")
            passes = untraced + passes
        else:
            wl.calibrated = True
            passes = measure(wl, seconds, setup)
            while len(setup.samples) < workloads.SETUP_SAMPLES:
                setup.take()
            metrics = {
                "setup_s": setup.setup_s(),
                "wall_per_cal": workloads.wall_per_cal(passes),
                "peak_rss_mb": peak_rss_mb(wl.rss_of_children),
            }
            units = END_TO_END
        digests = [p.digest for p in passes]
        checks = wl.checks(passes[0])
        checks.append(Check("every pass reproduces the first pass's outputs",
                            len(set(digests)) == 1, f"{len(set(digests))} distinct"))
        extra = {}
        if not trace:
            wall_s = workloads.median_seconds(passes)
            extra = {"wall_s": (wall_s, "s"), "setup_raw_s": (statistics.median(setup.samples), "s"),
                     **wl.extra_metrics(passes, wall_s)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.ops for p in passes) + len(checks)
    failed = sum(p.failed for p in passes) + sum(not c.ok for c in checks)
    print(f"machine: {json.dumps(machine())}")
    print(f"workload: {name} seed={seed} trace={int(trace)} passes={len(passes)} "
          f"items/pass={passes[0].items} ({wl.item}); closed loop, one client")
    print(f"inputs_sha256: {input_digest}")
    print(f"outputs_sha256: {digests[0]}")
    if setup.samples:
        print(f"setup_samples_s: {[round(s, 6) for s in setup.samples]}")
        per_cal = {k: round(v, 3) for k, v in workloads.step_per_cal(passes).items()}
        print(f"step_per_cal: {json.dumps(per_cal)}")
    for key, (value, unit) in extra.items():
        print(f"metric: {key} = {value!r} {unit}")
    for key, value in metrics.items():
        moves = f"  [moves: {layers.moves(key)}]" if trace else ""
        print(f"metric: {key} = {value!r} {units[key]}{moves}")
    print(f"checks: {sum(c.ok for c in checks)}/{len(checks)} passed")
    for c in checks:
        if not c.ok:
            print(f"check FAILED: {c.name} {c.detail}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in a fresh process, then one summary."""
    import workloads

    results, rows = {}, []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", repr(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            continue
        results[name] = json.loads(lines[-1])
        rows += [(name, line.split(": ", 1)[1]) for line in lines if line.startswith("metric: ")]
    print("== summary")
    for name, text in rows:
        print(f"{name:18} {text}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fragilis" / "__init__.py").is_file():
        print(f"error: no fragilis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    elif args.workload in workloads.WORKLOADS:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        print(f"error: unknown workload {args.workload!r}; expected all or one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
