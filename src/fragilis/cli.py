"""Command-line surface: reproducible file-in/file-out analyses.

Commands: ingest, stats, density, test, appraise, stress, grid, contingency,
report. Each command returns the input files it read; main then writes the
run manifest (command line, input digests, seed, version, timestamp, and how
the run went: the command's wall time, peak RSS, Python and numpy versions,
trials per second for stress) next to the artifacts in the --out directory.
Exit codes: 0 success, 2 validation error, 3 computation error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import secrets
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, charts, datasets
from .cashflow import AppraisalModel, appraise, load_model, payoff_curve
from .errors import ComputeError, InputError
from .refclass import ReferenceClass, group_ratios, group_stats, read_records_csv, summarize
from .stats import kde, mann_whitney_u, one_way_f, overrun_bias_samples, trend_f
from .stress import StressConfig, run_stress, sensitivity_grid, size_contingency

_GROUP_KEY_MAP = {"region": "region", "type": "project_type", "decade": "decade"}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_manifest(args, inputs: list[Path], wall_s: float) -> None:
    """Write manifest-<command>.json: provenance (command line, input digests,
    seed, version, timestamp) and how the run went (wall time, peak RSS so far,
    runtime versions, and throughput for commands with --trials)."""
    import resource  # POSIX only; loaded when a run reports, not at import

    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB, bytes on macOS
    run = {
        "wall_s": wall_s,
        "peak_rss_mb": max_rss / (1 << 20 if sys.platform == "darwin" else 1 << 10),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if hasattr(args, "trials"):
        run["trials_per_s"] = args.trials / wall_s
    manifest = {
        "command": list(args.argv),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "run": run,
    }
    _write_json(_out_dir(args) / f"manifest-{args.command}.json", manifest)


def _input_file(name: str, role: str) -> Path:
    path = Path(name)
    if not path.is_file():
        raise InputError(f"{role} file not found: {path}")
    return path


def _load_records(args) -> tuple[ReferenceClass, Path]:
    path = _input_file(args.records, "records")
    return read_records_csv(path, strict=args.strict).reference_class, path


def _load_model(args) -> tuple[AppraisalModel, Path]:
    path = _input_file(args.model, "model")
    return load_model(path), path


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(args) -> list[Path]:
    path = _input_file(args.records, "records")
    result = read_records_csv(path, strict=args.strict)
    out = _out_dir(args)
    _write_json(
        out / "ingest.json",
        {
            "source": str(path),
            "label": result.reference_class.label,
            "n_accepted": result.n_accepted,
            "n_skipped": result.n_skipped,
            "errors": [
                {"row": e.row, "field": e.field, "message": e.message} for e in result.errors
            ],
        },
    )
    print(f"ingested {result.n_accepted} records ({result.n_skipped} skipped)")
    return [path]


def cmd_stats(args) -> list[Path]:
    ref, path = _load_records(args)
    thresholds = tuple(args.threshold or ())
    out = _out_dir(args)
    doc: dict = {"source": str(path), "metric": args.metric, "thresholds": list(thresholds)}
    if args.group:
        key = _GROUP_KEY_MAP[args.group]
        doc["group_by"] = key
        doc["groups"] = {
            k: s.to_dict() for k, s in group_stats(ref, key, args.metric, thresholds).items()
        }
    else:
        doc["summary"] = summarize(ref, args.metric, thresholds).to_dict()
    _write_json(out / "stats.json", doc)
    print(f"stats written for {len(ref)} records")
    return [path]


def cmd_density(args) -> list[Path]:
    ref, path = _load_records(args)
    ratios = ref.ratios(args.metric)
    trace = kde(ratios, bandwidth=args.bandwidth)
    out = _out_dir(args)
    csv_path = out / "density.csv"
    lines = ["value,density"] + [f"{v!r},{d!r}" for v, d in trace.to_csv_rows()]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(
        out / "density.json",
        {
            "source": str(path),
            "metric": args.metric,
            "n": len(ratios),
            "bandwidth": trace.bandwidth,
            "grid_points": len(trace.grid),
            "csv": csv_path.name,
        },
    )
    if args.format == "svg":
        svg = charts.line_chart(
            [(f"{args.metric} ratio density", trace.grid, trace.density)],
            title=f"Density trace of {args.metric} ratios",
            x_label="actual / estimated",
            y_label="density",
        )
        (out / "density.svg").write_text(svg, encoding="utf-8")
    print(f"density trace written ({len(trace.grid)} points, h={trace.bandwidth:.6g})")
    return [path]


def cmd_test(args) -> list[Path]:
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
    else:  # trend
        years = [float(r.decision_year) for r in ref.records]
        result = trend_f(years, ref.ratios(args.metric)).to_dict()
        context = {"comparison": "ratio trend over decision year"}
    out = _out_dir(args)
    _write_json(
        out / "test.json",
        {"source": str(path), "metric": args.metric, "test": args.test,
         "result": result, "context": context},
    )
    print(f"{args.test} test: statistic={result['statistic']:.6g} p={result['p_value']:.4g}")
    return [path]


def cmd_appraise(args) -> list[Path]:
    model, path = _load_model(args)
    result = appraise(model, benefit_shortfall=args.shortfall)
    out = _out_dir(args)
    doc = {
        "source": str(path),
        "npv": result.npv,
        "bcr": result.bcr,
        "irr": result.irr,
        "break_even_overrun": result.break_even_overrun,
        "break_even_delay": result.break_even_delay,
        "broken_regardless_of_capex": result.broken_regardless_of_capex,
        "benefit_shortfall": args.shortfall,
    }
    _write_json(out / "appraisal.json", doc)
    if args.format == "svg":
        curve = payoff_curve(model)
        counts_g = list(range(1, len(curve.cum_gain) + 1))
        counts_p = list(range(1, len(curve.cum_pain) + 1))
        svg = charts.line_chart(
            [
                ("cumulative gain", counts_g, curve.cum_gain),
                ("cumulative pain", counts_p, curve.cum_pain),
            ],
            title="Payoff structure: discounted gain vs pain (descending)",
            x_label="cash flows, largest first",
            y_label="cumulative discounted value",
        )
        (out / "payoff.svg").write_text(svg, encoding="utf-8")
    print(f"bcr={result.bcr:.6g} npv={result.npv:.6g} k*={result.break_even_overrun:.6g}")
    return [path]


def cmd_stress(args) -> list[Path]:
    model, path = _load_model(args)
    capex_dist = datasets.resolve_dist(args.dist)
    schedule_dist = datasets.resolve_dist(args.schedule_dist) if args.schedule_dist else None
    shortfall = (
        datasets.resolve_dist(args.shortfall_dist) if args.shortfall_dist else args.shortfall
    )
    if args.seed is None:
        args.seed = secrets.randbits(63)
    config = StressConfig(
        n_trials=args.trials,
        seed=args.seed,
        capex_dist=capex_dist,
        schedule_dist=schedule_dist,
        est_duration_years=args.duration,
        shortfall=shortfall,
    )
    result = run_stress(model, config)
    out = _out_dir(args)
    doc = result.to_dict()
    doc["source"] = str(path)
    doc["capex_dist"] = args.dist
    if args.schedule_dist:
        doc["schedule_dist"] = args.schedule_dist
        doc["est_duration_years"] = args.duration
    doc["shortfall"] = args.shortfall_dist or args.shortfall
    _write_json(out / "stress.json", doc)
    (out / "stress-npv-quantiles.csv").write_text(result.quantiles_csv(), encoding="utf-8")
    print(
        f"p_break={result.p_break:.4f} (se {result.p_break_se:.4f}) "
        f"over {result.n_trials} trials, seed {args.seed}"
    )
    dists = (args.dist, args.schedule_dist, args.shortfall_dist)
    return [path] + [datasets.dist_path(d) for d in dists if d]


def _parse_mults(raw: str, name: str) -> list[float]:
    try:
        values = [float(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError:
        raise InputError(f"{name} must be a comma-separated list of numbers: {raw!r}") from None
    if not values:
        raise InputError(f"{name} must contain at least one multiplier")
    return values


def cmd_grid(args) -> list[Path]:
    model, path = _load_model(args)
    grid = sensitivity_grid(
        model,
        benefit_mults=_parse_mults(args.benefit_mults, "--benefit-mults"),
        cost_mults=_parse_mults(args.cost_mults, "--cost-mults"),
    )
    out = _out_dir(args)
    doc = grid.to_dict()
    doc["source"] = str(path)
    _write_json(out / "grid.json", doc)
    (out / "grid.csv").write_text(grid.to_csv(), encoding="utf-8")
    print(f"grid written: {len(grid.cost_mults)} cost x {len(grid.benefit_mults)} benefit cells")
    return [path]


def cmd_contingency(args) -> list[Path]:
    model, path = _load_model(args)
    dist = datasets.resolve_dist(args.dist)
    result = size_contingency(model, dist, args.coverage)
    out = _out_dir(args)
    doc = result.to_dict()
    doc["source"] = str(path)
    doc["capex_dist"] = args.dist
    _write_json(out / "contingency.json", doc)
    print(
        f"contingency {result.contingency:.4f} at p={args.coverage:g}: "
        f"adjusted bcr {result.adjusted_bcr:.4f} -> {doc['decision']}"
    )
    return [path, datasets.dist_path(args.dist)]


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


def cmd_report(args) -> list[Path]:
    out = _out_dir(args)
    lines = ["# Fragility analysis report", ""]
    found = []
    for filename, title in _REPORT_SECTIONS:
        path = out / filename
        if not path.is_file():
            continue
        found.append(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
            raise InputError(f"artifact {path} is not valid JSON: {exc}") from None
        lines.append(f"## {title}")
        lines.append("")
        lines.append(f"Artifact: `{filename}`")
        lines.append("")
        lines.extend(_render_value(doc))
        lines.append("")
    if not found:
        raise InputError(f"no artifacts found in {out}; run an analysis command first")
    (out / "report.md").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"report.md summarizes {len(found)} artifact(s)")
    return found


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragilis",
        description="Investment-fragility appraisal and reference-class stress testing",
    )
    parser.add_argument("--version", action="version", version=f"fragilis {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default="out", help="output directory (default: ./out)")

    def add_records(p):
        p.add_argument("records", help="reference-class CSV file")
        p.add_argument("--strict", action="store_true",
                       help="abort on the first malformed row instead of skipping")
        p.add_argument("--metric", choices=["cost", "schedule"], default="cost")

    p = sub.add_parser("ingest", help="validate a records CSV and report diagnostics")
    p.add_argument("records")
    p.add_argument("--strict", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="summary statistics of a reference class")
    add_records(p)
    p.add_argument("--threshold", action="append", type=float,
                   help="breaking threshold (repeatable)")
    p.add_argument("--group", choices=sorted(_GROUP_KEY_MAP),
                   help="emit per-group statistics instead of one summary")
    add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("density", help="kernel density trace of a ratio metric")
    add_records(p)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv", "svg"], default="csv")
    add_common(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("test", help="bias / decades / trend tests on a reference class")
    add_records(p)
    p.add_argument("--test", choices=["bias", "decades", "trend"], required=True)
    add_common(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("appraise", help="NPV, BCR, IRR and break-even thresholds")
    p.add_argument("model", help="appraisal model JSON file")
    p.add_argument("--shortfall", type=float, default=0.0,
                   help="benefit shortfall fraction for the break-even overrun")
    p.add_argument("--format", choices=["json", "svg"], default="json")
    add_common(p)
    p.set_defaults(func=cmd_appraise)

    p = sub.add_parser("stress", help="Monte Carlo stress test of a model")
    p.add_argument("model")
    p.add_argument("--dist", required=True,
                   help="capex overrun distribution: bundled name or JSON file")
    p.add_argument("--schedule-dist", default=None,
                   help="schedule slippage distribution: bundled name or JSON file")
    p.add_argument("--duration", type=float, default=None,
                   help="estimated implementation duration in years (with --schedule-dist)")
    p.add_argument("--shortfall", type=float, default=0.0)
    p.add_argument("--shortfall-dist", default=None)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None,
                   help="64-bit seed; generated and recorded when omitted")
    add_common(p)
    p.set_defaults(func=cmd_stress)

    p = sub.add_parser("grid", help="benefit x cost multiplier sensitivity grid")
    p.add_argument("model")
    p.add_argument("--benefit-mults", default="0.85,1.0,1.15")
    p.add_argument("--cost-mults", default="1.0,1.15")
    add_common(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("contingency", help="size a contingency at a coverage quantile")
    p.add_argument("model")
    p.add_argument("--dist", required=True)
    p.add_argument("--coverage", type=float, default=0.8)
    add_common(p)
    p.set_defaults(func=cmd_contingency)

    p = sub.add_parser("report", help="summarize artifacts in the output directory")
    add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    effective = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(effective)
    args.argv = effective
    try:
        started = time.perf_counter()
        inputs = args.func(args)
        _emit_manifest(args, inputs, time.perf_counter() - started)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputeError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
