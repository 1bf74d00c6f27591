"""Tests of the benchmark itself: inputs, tracing and the runner's output.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Span or count names each workload must record at least once.
EXPECTED = {
    "stress-mc": {"_rng.uniforms", "dists.quantile_array", "stress._trial_arrays",
                  "stress.run_stress", "cashflow.present_value"},
    "refclass-analysis": {"refclass.read_records_csv", "refclass.summarize",
                          "refclass.group_stats", "refclass.quantile", "stats.kde",
                          "stats.mann_whitney_u.approx", "stats.mann_whitney_u.exact",
                          "stats.one_way_f", "stats.trend_f"},
    "cli-pipeline": {f"cli.main.{c}" for c in layers.CLI_COMMANDS}
                    | {"charts.line_chart", "datasets.resolve_dist", "cashflow.appraise",
                       "cashflow.irr", "cashflow.break_even_delay", "cashflow.payoff_curve",
                       "stress.sensitivity_grid", "stress.size_contingency",
                       "cashflow.present_value", "cashflow.model_builds"},
}


def _small(name: str, work: Path, seed: int = 3) -> workloads.Workload:
    wl = workloads.WORKLOADS[name](ROOT, work, seed, small=True)
    wl.write_inputs()
    return wl


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced pass of every workload at reduced size."""
    runs = {}
    for name in workloads.WORKLOADS:
        wl = _small(name, tmp_path_factory.mktemp(name))
        wl.in_process = True
        wl.setup()
        tracer = layers.Tracer()
        with layers.tracing(tracer) as absent:
            first = wl.run_pass()
        runs[name] = (wl, first, tracer, absent)
    return runs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    def files(work: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(work.iterdir())}

    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    same = [_small(name, dirs[0], seed=5).write_inputs(), _small(name, dirs[1], seed=5).write_inputs()]
    other = _small(name, dirs[2], seed=6).write_inputs()
    assert same[0] == same[1]
    assert files(dirs[0]) == files(dirs[1])
    assert other != same[0]
    assert files(dirs[2]) != files(dirs[0])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_expected_layer_records_spans(traced, name):
    _, first, tracer, absent = traced[name]
    assert absent == []
    assert first.failed == 0
    seen = {s.name for s in tracer.spans} | {k for k, v in tracer.counts.items() if v}
    assert EXPECTED[name] <= seen


def test_steps_divide_each_call_by_the_kernels_beside_it():
    kernel_times = iter([2.0, 4.0, 6.0])
    steps = workloads.Steps(lambda: next(kernel_times))
    clock = iter([0.0, 3.0, 10.0, 25.0])
    real = workloads.time.perf_counter
    workloads.time.perf_counter = lambda: next(clock)
    try:
        steps("a", lambda: None)
        steps("b", lambda: None)
    finally:
        workloads.time.perf_counter = real
    assert dict(steps) == {"a": 3.0, "b": 15.0}
    assert steps.rel == {"a": 3.0 / 3.0, "b": 15.0 / 5.0}


def test_wall_per_cal_sums_the_median_ratio_of_each_step():
    def one_pass(a: float, b: float) -> workloads.Pass:
        steps = workloads.Steps()
        steps.rel.update(a=a, b=b)
        return workloads.Pass(steps, 1, 1, 0, None)

    passes = [one_pass(1.0, 10.0), one_pass(2.0, 30.0), one_pass(9.0, 20.0)]
    assert workloads.wall_per_cal(passes) == 2.0 + 20.0


def test_declared_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


def test_every_probe_is_expected_somewhere():
    expected = set().union(*EXPECTED.values())
    names = {p.name for p in layers.PROBES}
    assert names - {"stats.mann_whitney_u", "cli.main"} <= expected


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_child_spans_fit_inside_their_parent(traced, name):
    spans = traced[name][2].spans
    assert spans
    for span in spans:
        assert span.child_time <= span.duration
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert span.self_time <= parent.duration


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_first_pass_passes_the_oracles(traced, name):
    wl, first, _, _ = traced[name]
    failed = [c for c in wl.checks(first) if not c.ok]
    assert failed == []


def test_tracing_patches_every_importer_and_restores():
    import fragilis
    import fragilis.cashflow as cashflow
    import fragilis.cli as cli
    import fragilis.stress as stress

    original = cashflow.irr
    with layers.tracing(layers.Tracer()):
        assert stress.irr is cashflow.irr is fragilis.irr
        assert stress.irr is not original
        assert cli.appraise is cashflow.appraise is fragilis.appraise
    assert stress.irr is cashflow.irr is fragilis.irr is original


def test_absent_targets_are_reported_not_raised():
    import fragilis.stress as stress

    probes = layers.PROBES + (
        layers.Probe("fragilis.stress:_no_such_kernel", "gone.kernel"),
        layers.Probe("fragilis.no_such_module:f", "gone.module"),
    )
    original = stress.run_stress
    with layers.tracing(layers.Tracer(), probes) as absent:
        assert stress.run_stress is not original
    assert absent == ["fragilis.stress:_no_such_kernel", "fragilis.no_such_module:f"]
    assert stress.run_stress is original


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("workload,trace,section",
                         [("refclass-analysis", "0", "end_to_end"), ("cli-pipeline", "1", "per_layer")])
def test_runner_prints_the_declared_metrics(workload, trace, section):
    proc = _run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "stress-mc", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
