"""Command-line surface: reproducible file-in/file-out analyses.

Commands: ingest, stats, density, test, appraise, stress, grid, contingency,
report. Each command only loads and computes: it returns the input files it
read, its artifacts and a one-line summary, and imports only the modules it
computes with (beyond cli and errors):

    ingest, stats   refclass
    test            refclass, stats
    density         refclass, stats and numpy
    appraise        cashflow, and charts for --format svg
    stress          _rng, cashflow, datasets, dists, stress and numpy
    grid            _rng, cashflow, dists and stress
    contingency     _rng, cashflow, datasets, dists and stress
    report          none

main sets each JSON artifact's source to the first input, renders it with
allow_nan=False (a non-finite number is a computation error) and only then
creates --out and writes the artifacts and the run manifest (provenance and
how the run went; see _manifest), and last prints and flushes the summary. A
command that fails before the first write writes nothing; an OSError partway
through the writes, or a summary that cannot be written, can leave files.
Exit codes: 0 success, 2 validation error, 3 computation error or out of memory.

main() without argv is the program (the fragilis script, python -m fragilis.cli):
once stdout and stderr are flushed it ends the process with os._exit(code), so
module teardown, the final garbage collection and atexit handlers do not run.
So does argparse's usage output (--help, --version, a usage error): the program
ends with argparse's code, or with 2 and one error line if stdout cannot take it.
main(argv) returns the code instead and lets argparse's SystemExit through; call
it in-process or under coverage. Tracebacks leave the normal way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import ComputeError, InputError, document, load_json

if TYPE_CHECKING:  # annotations only: each command imports what it computes with
    from .cashflow import AppraisalModel
    from .refclass import ReferenceClass

_GROUP_KEY_MAP = {"region": "region", "type": "project_type", "decade": "decade"}
_Run = tuple[list[Path], dict, str]  # what a command returns; see Commands below


def __getattr__(name: str):
    """The package's public names, looked up on each access as on the package
    (PEP 562), so cli.appraise is still fragilis.cashflow.appraise (perfbench's
    tracer reads it there) though the commands import cashflow only to use it."""
    import fragilis

    if name in fragilis.__all__:
        return getattr(fragilis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _timestamp(ns: int) -> str:
    """ns nanoseconds after the epoch as datetime.isoformat writes it in UTC, without loading
    datetime: YYYY-MM-DDTHH:MM:SS[.ffffff]+00:00, the fraction only if not 0 microseconds."""
    seconds, micros = divmod(ns // 1000, 1_000_000)
    fraction = f".{micros:06d}" if micros else ""
    return f"{time.strftime('%Y-%m-%dT%H:%M:%S', time.gmtime(seconds))}{fraction}+00:00"


def _manifest(args, inputs: list[Path], wall_s: float) -> dict:
    """manifest-<command>.json: provenance (command line, input digests, seed,
    version, timestamp) and how the run went (wall time, peak RSS so far,
    runtime versions, and throughput and worker threads for commands with --trials)."""
    import resource  # POSIX only; loaded when a run reports, not at import

    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB, bytes on macOS
    run = {
        "wall_s": wall_s,
        "peak_rss_mb": max_rss / (1 << 20 if sys.platform == "darwin" else 1 << 10),
        "python": sys.version.split()[0],
        # null unless the command computed with numpy: importing it only to read its version
        # would cost every command numpy's start-up
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
    }
    if hasattr(args, "trials"):
        from .stress import worker_count

        run["trials_per_s"] = args.trials / wall_s
        run["workers"] = worker_count(args.trials)
    return {
        "command": list(args.argv),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": _timestamp(time.time_ns()),
        "run": run,
    }


def _render(name: str, artifact) -> str:
    """The artifact's file content: a text as it is, a document as indented
    JSON with sorted keys. JSON has no Infinity or NaN, so a non-finite
    number in a document is a ComputeError."""
    if isinstance(artifact, str):
        return artifact
    try:
        return json.dumps(artifact, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ComputeError(f"{name} would hold a non-finite number: {exc}") from None


def _input_file(name: str, role: str) -> Path:
    path = Path(name)
    if not path.is_file():
        raise InputError(f"{role} file not found: {path}")
    return path


def _load_records(args) -> tuple[ReferenceClass, Path]:
    from .refclass import read_records_csv

    path = _input_file(args.records, "records")
    return read_records_csv(path, strict=args.strict).reference_class, path


def _load_model(args) -> tuple[AppraisalModel, Path]:
    from .cashflow import load_model

    path = _input_file(args.model, "model")
    return load_model(path), path


# ---------------------------------------------------------------------------
# Commands: each returns (input files read, {file name: JSON document or
# text}, one-line summary) and writes nothing


def cmd_ingest(args) -> _Run:
    from .refclass import read_records_csv

    path = _input_file(args.records, "records")
    result = read_records_csv(path, strict=args.strict)
    doc = {
        "label": result.reference_class.label,
        "n_accepted": result.n_accepted,
        "n_skipped": result.n_skipped,
        "errors": [{"row": e.row, "field": e.field, "message": e.message} for e in result.errors],
    }
    summary = f"ingested {result.n_accepted} records ({result.n_skipped} skipped)"
    return [path], {"ingest.json": doc}, summary


def cmd_stats(args) -> _Run:
    from .refclass import group_stats, summarize

    ref, path = _load_records(args)
    thresholds = tuple(args.threshold or ())
    doc: dict = {"metric": args.metric, "thresholds": list(thresholds)}
    if args.group:
        key = _GROUP_KEY_MAP[args.group]
        doc["group_by"] = key
        doc["groups"] = {
            k: s.to_dict() for k, s in group_stats(ref, key, args.metric, thresholds).items()
        }
    else:
        doc["summary"] = summarize(ref, args.metric, thresholds).to_dict()
    return [path], {"stats.json": doc}, f"stats written for {len(ref)} records"


def cmd_density(args) -> _Run:
    from .stats import kde

    ref, path = _load_records(args)
    ratios = ref.ratios(args.metric)
    trace = kde(ratios, bandwidth=args.bandwidth)
    artifacts = {
        "density.csv": trace.to_csv(),
        "density.json": {
            "metric": args.metric,
            "n": len(ratios),
            "bandwidth": trace.bandwidth,
            "grid_points": len(trace.grid),
            "csv": "density.csv",
        },
    }
    if args.format == "svg":
        from . import charts

        artifacts["density.svg"] = charts.line_chart(
            [(f"{args.metric} ratio density", trace.grid, trace.density)],
            title=f"Density trace of {args.metric} ratios",
            x_label="actual / estimated",
            y_label="density",
        )
    summary = f"density trace written ({len(trace.grid)} points, h={trace.bandwidth:.6g})"
    return [path], artifacts, summary


def cmd_test(args) -> _Run:
    from .refclass import group_ratios
    from .stats import mann_whitney_u, one_way_f, overrun_bias_samples, trend_f

    ref, path = _load_records(args)
    if args.test == "bias":
        over, under = overrun_bias_samples(ref.ratios(args.metric))
        if not over or not under:
            raise ComputeError(
                "bias test needs both overruns and underruns in the sample"
            )
        result = mann_whitney_u(over, under).to_dict()
        context = {
            "comparison": "overrun magnitudes vs underrun magnitudes",
            "n_over": len(over),
            "n_under": len(under),
        }
    elif args.test == "decades":
        by_decade = group_ratios(ref, "decade", args.metric)
        result = one_way_f(list(by_decade.values())).to_dict()
        context = {"groups": list(by_decade), "comparison": "ratio means across decades"}
    else:  # trend; a perfect fit has F = inf, which the JSON renderer rejects
        years = [float(r.decision_year) for r in ref.records]
        result = trend_f(years, ref.ratios(args.metric)).to_dict()
        context = {"comparison": "ratio trend over decision year"}
    doc = {"metric": args.metric, "test": args.test, "result": result, "context": context}
    summary = f"{args.test} test: statistic={result['statistic']:.6g} p={result['p_value']:.4g}"
    return [path], {"test.json": doc}, summary


def cmd_appraise(args) -> _Run:
    from .cashflow import appraise

    model, path = _load_model(args)
    result = appraise(model, benefit_shortfall=args.shortfall)
    doc = {**document(result), "benefit_shortfall": args.shortfall}
    artifacts = {"appraisal.json": doc}
    if args.format == "svg":
        from . import charts
        from .cashflow import payoff_curve

        curve = payoff_curve(model)
        legs = (("cumulative gain", curve.cum_gain), ("cumulative pain", curve.cum_pain))
        artifacts["payoff.svg"] = charts.line_chart(
            # a model with no nonzero benefit has no gain leg; pain is always there
            [(label, list(range(1, len(cum) + 1)), cum) for label, cum in legs if cum],
            title="Payoff structure: discounted gain vs pain (descending)",
            x_label="cash flows, largest first",
            y_label="cumulative discounted value",
        )
    summary = f"bcr={result.bcr:.6g} npv={result.npv:.6g} k*={result.break_even_overrun:.6g}"
    return [path], artifacts, summary


def cmd_stress(args) -> _Run:
    from . import datasets
    from .stress import StressConfig, run_stress

    model, path = _load_model(args)
    capex_dist = datasets.resolve_dist(args.dist)
    schedule_dist = datasets.resolve_dist(args.schedule_dist) if args.schedule_dist else None
    shortfall = (
        datasets.resolve_dist(args.shortfall_dist) if args.shortfall_dist else args.shortfall
    )
    if args.seed is None:
        import secrets  # ~1 ms of start-up that no other command needs
        args.seed = secrets.randbits(63)
    config = StressConfig(args.trials, args.seed, capex_dist, schedule_dist, args.duration,
                          shortfall)
    result = run_stress(model, config)
    doc = result.to_dict()
    doc["capex_dist"] = args.dist
    if args.schedule_dist:
        doc["schedule_dist"] = args.schedule_dist
        doc["est_duration_years"] = args.duration
    doc["shortfall"] = args.shortfall_dist or args.shortfall
    artifacts = {"stress.json": doc, "stress-npv-quantiles.csv": result.quantiles_csv()}
    summary = (
        f"p_break={result.p_break:.4f} (se {result.p_break_se:.4f}) "
        f"over {result.n_trials} trials, seed {args.seed}"
    )
    dists = (args.dist, args.schedule_dist, args.shortfall_dist)
    return [path] + [datasets.dist_path(d) for d in dists if d], artifacts, summary


def _parse_mults(raw: str, name: str) -> list[float]:
    try:
        values = [float(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError:
        raise InputError(f"{name} must be a comma-separated list of numbers: {raw!r}") from None
    if not values:
        raise InputError(f"{name} must contain at least one multiplier")
    return values


def cmd_grid(args) -> _Run:
    from .stress import sensitivity_grid

    model, path = _load_model(args)
    grid = sensitivity_grid(
        model,
        benefit_mults=_parse_mults(args.benefit_mults, "--benefit-mults"),
        cost_mults=_parse_mults(args.cost_mults, "--cost-mults"),
    )
    summary = f"grid written: {len(grid.cost_mults)} cost x {len(grid.benefit_mults)} benefit cells"
    return [path], {"grid.json": document(grid), "grid.csv": grid.to_csv()}, summary


def cmd_contingency(args) -> _Run:
    from . import datasets
    from .stress import size_contingency

    model, path = _load_model(args)
    dist = datasets.resolve_dist(args.dist)
    result = size_contingency(model, dist, args.coverage)
    doc = result.to_dict()
    doc["capex_dist"] = args.dist
    summary = (
        f"contingency {result.contingency:.4f} at p={args.coverage:g}: "
        f"adjusted bcr {result.adjusted_bcr:.4f} -> {doc['decision']}"
    )
    return [path, datasets.dist_path(args.dist)], {"contingency.json": doc}, summary


_REPORT_SECTIONS = (
    ("appraisal.json", "Appraisal"),
    ("stress.json", "Stress test"),
    ("contingency.json", "Contingency"),
    ("grid.json", "Sensitivity grid"),
    ("stats.json", "Reference-class statistics"),
    ("test.json", "Statistical test"),
    ("density.json", "Density trace"),
    ("ingest.json", "Ingestion"),
)


def _render_value(value, indent: int = 0) -> list[str]:
    # json.dumps of a loaded value reproduces the artifact's literal exactly,
    # so the report can never drift from the numbers on disk
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)):
                lines.append(f"{pad}- {key}:")
                lines.extend(_render_value(sub, indent + 1))
            else:
                lines.append(f"{pad}- {key}: {json.dumps(sub)}")
        return lines
    return [f"{pad}- {json.dumps(value)}"]


def cmd_report(args) -> _Run:
    out = Path(args.out)
    lines = ["# Fragility analysis report", ""]
    found = []
    for filename, title in _REPORT_SECTIONS:
        path = out / filename
        if not path.is_file():
            continue
        found.append(path)
        lines += [f"## {title}", "", f"Artifact: `{filename}`", ""]
        lines += _render_value(load_json(path, "artifact"))
        lines.append("")
    if not found:
        raise InputError(f"no artifacts found in {out}; run an analysis command first")
    report = "\n".join(lines) + "\n"
    return found, {"report.md": report}, f"report.md summarizes {len(found)} artifact(s)"


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragilis",
        description="Investment-fragility appraisal and reference-class stress testing",
    )
    parser.add_argument("--version", action="version", version=f"fragilis {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, source=None):
        """A subcommand that runs func, writes to --out and reads source: a
        "model" JSON, or a "records" CSV with --strict; "ratios" adds the
        ratio --metric to the records."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        if source == "model":
            p.add_argument("model", help="appraisal model JSON file")
        elif source:
            p.add_argument("records", help="reference-class CSV file")
            p.add_argument("--strict", action="store_true",
                           help="abort on the first malformed row instead of skipping")
        if source == "ratios":
            p.add_argument("--metric", choices=["cost", "schedule"], default="cost")
        return p

    command("ingest", cmd_ingest, "validate a records CSV and report diagnostics", "records")
    p = command("stats", cmd_stats, "summary statistics of a reference class", "ratios")
    p.add_argument("--threshold", action="append", type=float,
                   help="breaking threshold (repeatable)")
    p.add_argument("--group", choices=sorted(_GROUP_KEY_MAP),
                   help="emit per-group statistics instead of one summary")
    p = command("density", cmd_density, "kernel density trace of a ratio metric", "ratios")
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p = command("test", cmd_test, "bias / decades / trend tests on a reference class", "ratios")
    p.add_argument("--test", choices=["bias", "decades", "trend"], required=True)
    p = command("appraise", cmd_appraise, "NPV, BCR, IRR and break-even thresholds", "model")
    p.add_argument("--shortfall", type=float, default=0.0,
                   help="benefit shortfall fraction for the break-even overrun")
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p = command("stress", cmd_stress, "Monte Carlo stress test of a model", "model")
    p.add_argument("--dist", required=True,
                   help="capex overrun distribution: bundled name or JSON file")
    p.add_argument("--schedule-dist", default=None,
                   help="schedule slippage distribution: bundled name or JSON file")
    p.add_argument("--duration", type=float, default=None,
                   help="estimated implementation duration in years (with --schedule-dist)")
    shortfall = p.add_mutually_exclusive_group()
    shortfall.add_argument("--shortfall", type=float, default=0.0)
    shortfall.add_argument("--shortfall-dist", default=None)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None,
                   help="64-bit seed; generated and recorded when omitted")
    p = command("grid", cmd_grid, "benefit x cost multiplier sensitivity grid", "model")
    p.add_argument("--benefit-mults", default="0.85,1.0,1.15")
    p.add_argument("--cost-mults", default="1.0,1.15")
    p = command("contingency", cmd_contingency, "size a contingency at a coverage quantile",
                "model")
    p.add_argument("--dist", required=True)
    p.add_argument("--coverage", type=float, default=0.8)
    command("report", cmd_report, "summarize artifacts in the output directory")
    return parser


def _write_stdout(text: str) -> None:
    """Write text to stdout and flush it (nothing if there is no stdout), so a stdout that
    cannot take it (a full device, a closed pipe) is an OSError here. A buffered stdout
    keeps the bytes it could not write and would fail again at exit, so it is pointed at
    os.devnull before the error goes on."""
    try:
        print(text, end="", flush=True)
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _run(args) -> int:
    """Run the parsed command, write its files and summary, and return the exit code."""
    try:
        started = time.perf_counter()
        inputs, artifacts, summary = args.func(args)
        for doc in artifacts.values():
            if isinstance(doc, dict):
                doc["source"] = str(inputs[0])
        files = {name: _render(name, artifact) for name, artifact in artifacts.items()}
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
        manifest = _manifest(args, inputs, time.perf_counter() - started)
        name = f"manifest-{args.command}.json"
        (out / name).write_text(_render(name, manifest), encoding="utf-8")
        _write_stdout(summary + "\n")
        return 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ComputeError, MemoryError) as exc:
        reason = f"{args.command} ran out of memory" if isinstance(exc, MemoryError) else exc
        print(f"computation error: {reason}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    effective = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(effective)
    except SystemExit as usage:  # --help, --version or a usage error, written by argparse
        if argv is not None:
            raise
        code = usage.code
        try:  # argparse ignores a write that fails, but a buffered stdout still holds it
            _write_stdout("")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    else:
        args.argv = effective
        code = _run(args)
    if argv is None:  # the program: skip module teardown, the final GC and atexit
        if sys.stderr is not None:  # stdout holds nothing: see _write_stdout
            sys.stderr.flush()
        os._exit(code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
