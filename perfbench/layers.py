"""Per-layer tracing from outside the package.

`tracing()` wraps public functions of fragilis in place for the duration of a
`with` block. Each wrapper records a span (name, start, end, parent) or only
bumps a counter, and every namespace that imported the original object is
patched, so a call through a re-export such as ``fragilis.appraise`` or a
``from .cashflow import irr`` inside ``stress`` is seen as well. A target
that no longer exists is reported as absent instead of failing the run.

Spans are kept in memory; self time is a span's duration minus the summed
durations of its direct children (the client is single-threaded, so children
never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    nested: bool  # another span of the same name is open around this one
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._open: Counter[str] = Counter()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self._open[name] > 0))
        self._open[name] += 1
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, name: str) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open[span.name] -= 1
        span.name = name
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration
        return span

    def total(self, name: str) -> float:
        """Inclusive seconds in spans of `name`, not counting re-entries."""
        return sum(s.duration for s in self.spans if s.name == name and not s.nested)

    def self_total(self, name: str) -> float:
        return sum(s.self_time for s in self.spans if s.name == name)


@dataclass(frozen=True)
class Probe:
    """One wrapped target, "module:attribute.path".

    span=False records only a call count under `name`. `label` renames the
    span from (args, result) after the call; `values` returns a count added to
    "<name>.values" for calls that are not re-entries.
    """

    target: str
    name: str
    span: bool = True
    label: Callable | None = None
    values: Callable | None = None


def _result_len(args, result) -> int:
    return len(result)


def _rows_skipped(args, result) -> int:
    return result.n_skipped


def _u_method(args, result) -> str:
    return "stats.mann_whitney_u." + ("exact" if result.method == "exact" else "approx")


def _cli_command(args, result) -> str:
    return f"cli.main.{args[0][0]}" if args and args[0] else "cli.main"


PROBES = (
    Probe("fragilis._rng:uniforms", "_rng.uniforms", values=_result_len),
    # sample_array delegates to quantile_array; one name keeps it counted once
    Probe("fragilis.dists:QuantileDistribution.sample_array", "dists.quantile_array",
          values=_result_len),
    Probe("fragilis.dists:QuantileDistribution.quantile_array", "dists.quantile_array",
          values=_result_len),
    Probe("fragilis.stress:_trial_arrays", "stress._trial_arrays"),
    Probe("fragilis.stress:run_stress", "stress.run_stress"),
    Probe("fragilis.stress:sensitivity_grid", "stress.sensitivity_grid"),
    Probe("fragilis.stress:size_contingency", "stress.size_contingency"),
    Probe("fragilis.cashflow:appraise", "cashflow.appraise"),
    Probe("fragilis.cashflow:irr", "cashflow.irr"),
    Probe("fragilis.cashflow:break_even_delay", "cashflow.break_even_delay"),
    Probe("fragilis.cashflow:payoff_curve", "cashflow.payoff_curve"),
    Probe("fragilis.cashflow:CashFlowStream.present_value", "cashflow.present_value", span=False),
    Probe("fragilis.cashflow:AppraisalModel.__post_init__", "cashflow.model_builds", span=False),
    Probe("fragilis.refclass:read_records_csv", "refclass.read_records_csv",
          values=_rows_skipped),
    Probe("fragilis.refclass:summarize", "refclass.summarize"),
    Probe("fragilis.refclass:group_stats", "refclass.group_stats"),
    Probe("fragilis.refclass:quantile", "refclass.quantile", span=False),
    Probe("fragilis.stats:kde", "stats.kde"),
    Probe("fragilis.stats:mann_whitney_u", "stats.mann_whitney_u", label=_u_method),
    Probe("fragilis.stats:one_way_f", "stats.one_way_f"),
    Probe("fragilis.stats:trend_f", "stats.trend_f"),
    Probe("fragilis.cli:main", "cli.main", label=_cli_command),
    Probe("fragilis.charts:line_chart", "charts.line_chart"),
    Probe("fragilis.datasets:resolve_dist", "datasets.resolve_dist"),
)


def _wrap(tracer: Tracer, probe: Probe, fn: Callable) -> Callable:
    if not probe.span:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[probe.name] += 1
            return fn(*args, **kwargs)

        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(probe.name)
        name = probe.name
        try:
            result = fn(*args, **kwargs)
            if probe.label is not None:
                name = probe.label(args, result)
        finally:
            span = tracer.close(index, name)
        if probe.values is not None and not span.nested:
            tracer.counts[f"{probe.name}.values"] += probe.values(args, result)
        return result

    return traced


def _resolve(target: str):
    """(owner, attribute, original) or None when the target is gone."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


def _importers(original) -> list[tuple[object, str]]:
    """Every (fragilis module, attribute) bound to `original`."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "fragilis" or name.startswith("fragilis.")):
            continue
        found += [(module, key) for key, value in vars(module).items() if value is original]
    return found


@contextlib.contextmanager
def tracing(tracer: Tracer, probes=PROBES):
    """Install the probes; yields the list of targets found absent."""
    patches: list[tuple[object, str, object]] = []
    # Import every target before patching any, so that a module imported
    # while resolving a later probe cannot bind an earlier probe's wrapper.
    resolved = [(probe, _resolve(probe.target)) for probe in probes]
    absent = [probe.target for probe, found in resolved if found is None]
    try:
        for probe, found in resolved:
            if found is None:
                continue
            owner, attr, original = found
            wrapped = _wrap(tracer, probe, original)
            sites = [(owner, attr)] if isinstance(owner, type) else _importers(original)
            for site, key in sites:
                setattr(site, key, wrapped)
                patches.append((site, key, original))
        yield absent
    finally:
        for site, key, original in reversed(patches):
            setattr(site, key, original)


CLI_COMMANDS = (
    "ingest", "stats", "density", "test", "appraise", "stress", "grid", "contingency", "report",
)

# Inclusive seconds of the spans of each name, keyed by per-layer metric.
_SPAN_METRICS = {
    "rng.uniforms.s": "_rng.uniforms",
    "dists.quantile_array.s": "dists.quantile_array",
    "stress.run_stress.s": "stress.run_stress",
    "cashflow.appraise.s": "cashflow.appraise",
    "cashflow.irr.s": "cashflow.irr",
    "cashflow.break_even_delay.s": "cashflow.break_even_delay",
    "cashflow.payoff_curve.s": "cashflow.payoff_curve",
    "stress.sensitivity_grid.s": "stress.sensitivity_grid",
    "stress.size_contingency.s": "stress.size_contingency",
    "refclass.read_records_csv.s": "refclass.read_records_csv",
    "refclass.summarize.s": "refclass.summarize",
    "refclass.group_stats.s": "refclass.group_stats",
    "stats.kde.s": "stats.kde",
    "stats.mann_whitney_u.approx.s": "stats.mann_whitney_u.approx",
    "stats.mann_whitney_u.exact.s": "stats.mann_whitney_u.exact",
    "stats.one_way_f.s": "stats.one_way_f",
    "stats.trend_f.s": "stats.trend_f",
    **{f"cli.main.{c}.s": f"cli.main.{c}" for c in CLI_COMMANDS},
    "charts.line_chart.s": "charts.line_chart",
    "datasets.resolve_dist.s": "datasets.resolve_dist",
}
# Self seconds: the span minus its direct children.
_SELF_METRICS = {
    "stress.trial_eval.s": "stress._trial_arrays",
    "stress.aggregate.s": "stress.run_stress",
}
_COUNT_METRICS = {
    "rng.uniforms.values": "_rng.uniforms.values",
    "dists.quantile_array.values": "dists.quantile_array.values",
    "cashflow.present_value.calls": "cashflow.present_value",
    "cashflow.model_builds": "cashflow.model_builds",
    "refclass.rows_skipped": "refclass.read_records_csv.values",
    "refclass.quantile.calls": "refclass.quantile",
}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass span seconds and counts recorded by `tracer` over `passes`."""
    out = {m: tracer.total(n) / passes for m, n in _SPAN_METRICS.items()}
    out.update({m: tracer.self_total(n) / passes for m, n in _SELF_METRICS.items()})
    out.update({m: tracer.counts[n] / passes for m, n in _COUNT_METRICS.items()})
    return out


def unit(metric: str) -> str:
    return "s" if metric.endswith((".s", "_s")) else "count"


# What each per-layer metric should move, written down before any change.
_STRESS = ("trials_per_s, time_to_se_s, wall_per_cal and peak_rss_mb on stress-mc; "
           "no change on refclass-analysis")
_APPRAISAL = ("wall_per_cal and cli_cmd_p50_s on cli-pipeline (appraise, grid and contingency); "
              "no change on stress-mc or refclass-analysis")
_REFCLASS = ("records_per_s and wall_per_cal on refclass-analysis, a small share of "
             "cli_cmd_p50_s on cli-pipeline; no change on stress-mc")
_CLI = ("cli_cmd_p50_s and wall_per_cal on cli-pipeline, setup_s on every workload; "
        "no change on trials_per_s or records_per_s")
MOVES = {
    "rng.": _STRESS,
    "dists.": _STRESS,
    "stress.trial_eval.": _STRESS,
    "stress.aggregate.": _STRESS,
    "stress.run_stress.workers2.": ("no default-path metric; decides whether run_stress keeps "
                                    "its workers parameter"),
    "stress.run_stress.": _STRESS,
    "cashflow.": _APPRAISAL,
    "stress.sensitivity_grid.": _APPRAISAL,
    "stress.size_contingency.": _APPRAISAL,
    "refclass.": _REFCLASS,
    "stats.": _REFCLASS,
    "cli.": _CLI,
    "charts.": _CLI,
    "datasets.": _CLI,
    "trace.": "nothing: a property of the tracer itself",
}


def moves(metric: str) -> str:
    """The end-to-end metrics and workloads a per-layer metric should move."""
    return next(text for prefix, text in MOVES.items() if metric.startswith(prefix))
