"""The benchmark workloads.

Each workload writes its seeded inputs into a work directory, sets up in
process, runs timed passes (one client, closed loop: each call starts after
the previous one returned) and checks the first pass against independent
oracles. A pass times each of its steps separately and returns its outputs;
the runner hashes them and requires every pass to reproduce the first.

fragilis is reached through module attributes (``fr_stress.run_stress``), so
the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import calibrate
import inputs
import oracles
import setups

# setup_s comes from at least SETUP_SAMPLES set-ups, taken every
# SETUP_EVERY_S seconds between passes, each between two interpreter kernels.
SETUP_SAMPLES = 9
SETUP_EVERY_S = 3.0
PROBE_TIMEOUT_S = 120
COMMAND_TIMEOUT_S = 150


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Pass:
    steps: Steps  # seconds of each step, in order
    items: int
    ops: int
    failed: int
    outputs: object
    extra: dict = field(default_factory=dict)
    digest: str = ""  # sha256 of the outputs, set by the runner

    @property
    def seconds(self) -> float:
        return sum(self.steps.values())


def median_seconds(passes: list[Pass]) -> float:
    return statistics.median(p.seconds for p in passes)


def step_per_cal(passes: list[Pass]) -> dict[str, float]:
    """Each step's median, across passes, of its time over the calibration
    kernel's time beside it (see calibrate.py)."""
    names = dict.fromkeys(n for p in passes for n in p.steps.rel)
    return {n: statistics.median(p.steps.rel[n] for p in passes if n in p.steps.rel)
            for n in names}


def wall_per_cal(passes: list[Pass]) -> float:
    return sum(step_per_cal(passes).values())


class Steps(dict):
    """Seconds of each named call, in call order.

    Given a calibration kernel, it times the kernel before the first call and
    after every call, and `rel` holds each call's seconds over the mean of the
    two kernel times on either side of it.
    """

    def __init__(self, kernel=None) -> None:
        super().__init__()
        self.kernel, self.rel = kernel, {}
        self.last_kernel_s = kernel() if kernel else 0.0

    def __call__(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        value = fn(*args, **kwargs)
        self[name] = time.perf_counter() - t0
        if self.kernel is not None:
            kernel_s = self.kernel()
            self.rel[name] = self[name] / ((self.last_kernel_s + kernel_s) / 2)
            self.last_kernel_s = kernel_s
        return value


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _run_python(root: Path, code: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *code], cwd=cwd, env=_env(root), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=False,
    )


def import_seconds(root: Path, module: str, runs: int) -> list[float]:
    """In-process import time of `module`, each in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(repr(time.perf_counter() - t))"
    return [float(_run_python(root, ["-c", code], root).stdout) for _ in range(runs)]


def digest(obj) -> str:
    return hashlib.sha256(inputs.canonical_bytes(obj)).hexdigest()


class Workload:
    name = ""
    item = ""  # what one unit of the workload's throughput is
    in_process = False  # CliPipeline: call cli.main here instead of in subprocesses
    rss_of_children = False  # peak_rss_mb is the children's (the CLI subprocesses)
    calibrated = False  # time the calibration kernel beside every step

    def kernel(self) -> float:
        """Seconds of this workload's calibration kernel (calibrate.py)."""
        raise NotImplementedError

    def steps(self) -> Steps:
        return Steps(self.kernel if self.calibrated else None)

    def __init__(self, root: Path, work: Path, seed: int, small: bool = False) -> None:
        self.root, self.work, self.seed, self.small = root, work, seed, small

    def write_inputs(self) -> bytes:
        """Write the seeded inputs into the work directory; returns their bytes."""
        raise NotImplementedError

    def setup_once(self) -> float:
        """Seconds of one set-up in a fresh interpreter."""
        probe = str(Path(__file__).with_name("probe.py"))
        return float(_run_python(self.root, [probe, self.name, str(self.work)], self.root).stdout)

    def setup(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Run the code paths once before timing."""

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def checks(self, first: Pass) -> list[Check]:
        """Correctness of the first pass against the oracles."""
        raise NotImplementedError

    def extra_metrics(self, passes: list[Pass], wall_s: float) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures, printed beside the metrics."""
        return {}

    def workers2_seconds(self) -> float:
        """Wall time of the workers=2 probe; 0 where the workload has none."""
        return 0.0


# ---------------------------------------------------------------------------


class StressMC(Workload):
    """run_stress on the stylized dam, capex-only and full shapes alternately."""

    name = "stress-mc"
    item = "trials"
    LITERAL_TRIALS = 2_000
    TARGET_SE = 0.001

    def kernel(self):
        return calibrate.numpy_kernel()

    def write_inputs(self) -> bytes:
        self.spec = inputs.stress_inputs(self.seed)
        if self.small:
            self.spec["n_trials"] = 20_000
        data = inputs.canonical_bytes(self.spec)
        (self.work / "stress.json").write_bytes(data)
        return data

    def _configs(self, n: int) -> dict:
        from fragilis.stress import StressConfig

        spec = self.spec
        return {
            "capex": StressConfig(n, spec["mc_seed"], self.capex),
            "full": StressConfig(n, spec["mc_seed"], self.capex, self.schedule,
                                 spec["duration_years"], spec["shortfall"]),
        }

    def setup(self) -> None:
        import fragilis.stress as fr_stress

        self.fr_stress = fr_stress
        self.model, self.capex, self.schedule = setups.setup_stress_mc(self.work)
        self.configs = self._configs(self.spec["n_trials"])

    def warm(self) -> None:
        for config in self._configs(self.LITERAL_TRIALS).values():
            self.fr_stress.run_stress(self.model, config)

    def run_pass(self) -> Pass:
        steps, outputs = self.steps(), {}
        for shape, config in self.configs.items():
            outputs[shape] = steps(shape, self.fr_stress.run_stress, self.model, config).to_dict()
        return Pass(steps, 2 * self.spec["n_trials"], 2, 0, outputs)

    def extra_metrics(self, passes, wall_s):
        full_s = statistics.median(p.steps["full"] for p in passes)
        se = passes[0].outputs["full"]["p_break_se"]
        return {
            "trials_per_s": (passes[0].items / wall_s, "1/s"),
            "time_to_se_s": (full_s * (se / self.TARGET_SE) ** 2, "s"),
        }

    def workers2_seconds(self):
        # recorded only while run_stress still accepts workers
        if "workers" not in inspect.signature(self.fr_stress.run_stress).parameters:
            return 0.0
        t0 = time.perf_counter()
        self.fr_stress.run_stress(self.model, self.configs["full"], workers=2)
        return time.perf_counter() - t0

    def checks(self, first):
        from fragilis import _rng
        from fragilis.cashflow import apply_stress, bcr, break_even_overrun, npv

        fs = self.fr_stress
        outputs = first.outputs
        out = []
        r = self.model.discount_rate
        b, c, o = (oracles.present_value(leg.entries, r)
                   for leg in (self.model.benefits, self.model.capex, self.model.om_costs))

        capex = outputs["capex"]
        analytic = fs.p_break_analytic(self.capex, break_even_overrun(self.model).k_star)
        out.append(Check("p_break_analytic is 0.47 for the stylized dam",
                         abs(analytic - 0.47) < 1e-9, f"{analytic!r}"))
        out.append(Check(
            "capex p_break within 4 SE of p_break_analytic",
            oracles.within_4se(capex["p_break"], capex["p_break_se"], analytic),
            f"{capex['p_break']!r} vs {analytic!r} (se {capex['p_break_se']:.3g})"))

        full = outputs["full"]
        spec = self.spec
        quad = oracles.full_p_break(b, c, o, r, self.capex, self.schedule,
                                    spec["duration_years"], spec["shortfall"])
        out.append(Check(
            "full p_break within 4 SE of the slippage quadrature",
            oracles.within_4se(full["p_break"], full["p_break_se"], quad),
            f"{full['p_break']!r} vs {quad!r} (se {full['p_break_se']:.3g})"))

        tags = (fs.CAPEX_TAG, fs.SCHEDULE_TAG)
        for shape, config in self._configs(self.LITERAL_TRIALS).items():
            result = fs.run_stress(self.model, config)
            npvs, broken = [], 0
            for i in range(config.n_trials):
                k = self.capex.quantile(_rng.uniform_at(config.seed, tags[0], i))
                delay, keep = 0.0, 1.0
                if config.schedule_dist is not None:
                    slip = self.schedule.quantile(_rng.uniform_at(config.seed, tags[1], i))
                    delay = max(slip - 1.0, 0.0) * config.est_duration_years
                    keep = 1.0 - config.shortfall
                stressed = apply_stress(self.model, cost_mult=k, benefit_mult=keep,
                                        delay_years=delay)
                npvs.append(npv(stressed))
                broken += bcr(stressed) < 1.0
            literal_p = broken / config.n_trials
            literal_mean = math.fsum(npvs) / config.n_trials
            out.append(Check(f"{shape} p_break equals the per-trial recomputation",
                             result.p_break == literal_p, f"{result.p_break!r} vs {literal_p!r}"))
            out.append(Check(f"{shape} mean_npv matches the per-trial recomputation",
                             oracles.close(result.mean_npv, literal_mean, 1e-9),
                             f"{result.mean_npv!r} vs {literal_mean!r}"))
        return out


# ---------------------------------------------------------------------------


class RefclassAnalysis(Workload):
    """Lenient ingest of a 10k-row CSV with bad rows, then every statistic."""

    name = "refclass-analysis"
    item = "rows"
    THRESHOLDS = (1.4, 2.0)
    GROUP_KEYS = ("region", "project_type", "decade")
    EXACT_TESTS = 12  # n + m = 12 each, n from 3 to 9

    def kernel(self):
        return calibrate.python_kernel()

    def write_inputs(self) -> bytes:
        self.n_rows = 400 if self.small else inputs.N_ROWS
        text, self.bad_lines = inputs.records_csv(self.seed, self.n_rows)
        self.csv = self.work / "records.csv"
        self.csv.write_text(text, encoding="utf-8")
        return text.encode()

    def setup(self) -> None:
        self.fr_refclass, self.fr_stats = setups.setup_refclass_analysis(self.work)

    def _analyse(self, steps: Steps) -> dict:
        rc, st = self.fr_refclass, self.fr_stats
        ingest = steps("ingest", rc.read_records_csv, self.csv, strict=False)
        ref = ingest.reference_class
        cost, sched = ref.ratios("cost"), ref.ratios("schedule")
        result = {
            "ingest": ingest,
            "summary": steps("summary", lambda: {m: rc.summarize(ref, m, self.THRESHOLDS)
                                                 for m in ("cost", "schedule")}),
            "groups": steps("groups", lambda: {k: rc.group_stats(ref, k, "cost", self.THRESHOLDS)
                                               for k in self.GROUP_KEYS}),
            "kde": steps("kde", lambda: {"cost": st.kde(cost), "schedule": st.kde(sched)}),
            "bias": steps("bias", lambda: st.mann_whitney_u(*st.overrun_bias_samples(cost))),
            "exact": steps("exact", lambda: [st.mann_whitney_u(x, y)
                                             for x, y in self._exact_splits(cost)]),
        }
        by_decade: dict[str, list[float]] = {}
        for rec, ratio in zip(ref.records, cost):
            by_decade.setdefault(rc.decade_label(rec.decision_year), []).append(ratio)
        result["decades"] = steps("decades", st.one_way_f, [by_decade[k] for k in sorted(by_decade)])
        result["trend"] = steps("trend", st.trend_f, [float(r.decision_year) for r in ref.records], cost)
        return result

    def _exact_splits(self, ratios):
        for j in range(self.EXACT_TESTS):
            chunk = ratios[12 * j: 12 * j + 12]
            n = 3 + j % 7
            yield chunk[:n], chunk[n:]

    OPS_PER_PASS = 1 + 2 + 3 + 2 + 1 + EXACT_TESTS + 2

    def run_pass(self) -> Pass:
        steps = self.steps()
        try:
            result = self._analyse(steps)
            failed = 0
        except Exception as exc:  # the pass is lost: count all of its calls as failed
            print(f"refclass-analysis: pass failed: {exc!r}", file=sys.stderr)
            result, failed = None, self.OPS_PER_PASS
        return Pass(steps, 0 if failed else self.n_rows, self.OPS_PER_PASS, failed,
                    None if result is None else self._plain(result))

    @staticmethod
    def _plain(result: dict) -> dict:
        ingest = result["ingest"]
        return {
            "accepted": ingest.n_accepted,
            "errors": [asdict(e) for e in ingest.errors],
            "summary": {m: s.to_dict() for m, s in result["summary"].items()},
            "groups": {k: {g: s.to_dict() for g, s in v.items()} for k, v in result["groups"].items()},
            "kde": {m: asdict(t) for m, t in result["kde"].items()},
            "bias": result["bias"].to_dict(),
            "exact": [t.to_dict() for t in result["exact"]],
            "decades": result["decades"].to_dict(),
            "trend": result["trend"].to_dict(),
        }

    def extra_metrics(self, passes, wall_s):
        return {"records_per_s": (self.n_rows / wall_s, "1/s")}

    def checks(self, first):
        outputs = first.outputs
        if outputs is None:
            return [Check("analysis pass completed", False)]
        rc, st = self.fr_refclass, self.fr_stats
        out = []
        rows = [e["row"] for e in outputs["errors"]]
        out.append(Check("lenient ingest skips exactly the malformed rows",
                         rows == self.bad_lines and outputs["accepted"] == self.n_rows - len(self.bad_lines),
                         f"{len(rows)} skipped, {len(self.bad_lines)} injected"))
        ref = rc.read_records_csv(self.csv, strict=False).reference_class
        ratios = {m: ref.ratios(m) for m in ("cost", "schedule")}
        for metric, values in ratios.items():
            s = outputs["summary"][metric]
            ok = (s["n"] == len(values)
                  and oracles.close(s["mean"], math.fsum(values) / len(values), 1e-12)
                  and all(oracles.close(q, oracles.sample_quantile(values, float(p)), 1e-12)
                          for p, q in s["quantiles"].items())
                  and s["share_over_1"] == sum(v > 1.0 for v in values) / len(values)
                  and all(share == sum(v >= float(t) for v in values) / len(values)
                          for t, share in s["share_breaking"].items()))
            out.append(Check(f"{metric} summary matches the sorted-sample oracle", ok))
            grid, dens, h = oracles.kde(values)
            trace = outputs["kde"][metric]
            ok = (oracles.close(trace["bandwidth"], h, 1e-9)
                  and max(abs(a - b) for a, b in zip(trace["density"], dens)) <= 1e-9 * dens.max()
                  and max(abs(a - b) for a, b in zip(trace["grid"], grid)) <= 1e-9 * abs(grid).max())
            out.append(Check(f"{metric} KDE matches the numpy recomputation", ok))
        key_fns = {"region": lambda r: r.region.value, "project_type": lambda r: r.project_type,
                   "decade": lambda r: rc.decade_label(r.decision_year)}
        for key, groups in outputs["groups"].items():
            members: dict[str, list[float]] = {}
            for rec, ratio in zip(ref.records, ratios["cost"]):
                members.setdefault(key_fns[key](rec), []).append(ratio)
            ok = sorted(groups) == sorted(members) and all(
                groups[g]["n"] == len(v) and oracles.close(groups[g]["median"], oracles.sample_quantile(v, 0.5), 1e-12)
                for g, v in members.items())
            out.append(Check(f"group_stats by {key} matches per-group oracles", ok))
        over, under = st.overrun_bias_samples(ratios["cost"])
        bias = outputs["bias"]
        out.append(Check("bias U statistic equals the rank-sum recomputation",
                         bias["method"] == "normal_approx" and bias["statistic"] == oracles.u_statistic(over, under),
                         f"{bias['statistic']!r}"))
        for j, ((x, y), t) in enumerate(zip(self._exact_splits(ratios["cost"]), outputs["exact"])):
            out.append(Check(f"exact U test {j}: statistic and p match rank enumeration",
                             t["method"] == "exact" and t["statistic"] == oracles.u_statistic(x, y)
                             and t["p_value"] == oracles.exact_u_p_value(x, y)))
        decades: dict[str, list[float]] = {}
        for rec, ratio in zip(ref.records, ratios["cost"]):
            decades.setdefault(rc.decade_label(rec.decision_year), []).append(ratio)
        out.append(Check("decade one-way F matches numpy",
                         oracles.close(outputs["decades"]["statistic"],
                                       oracles.one_way_f([decades[k] for k in sorted(decades)]), 1e-9)))
        slope, f_value = oracles.trend([r.decision_year for r in ref.records], ratios["cost"])
        out.append(Check("trend slope and F match least squares",
                         oracles.close(outputs["trend"]["slope"], slope, 1e-8)
                         and oracles.close(outputs["trend"]["statistic"], f_value, 1e-8)))
        out.append(self._bundled_summary_check())
        return out

    def _bundled_summary_check(self) -> Check:
        from fragilis import datasets

        ref = self.fr_refclass.read_records_csv(datasets.asset_path(datasets.SYNTHETIC_CSV)).reference_class
        frozen = datasets.load_synthetic_summary()
        ok = len(ref) == frozen["n"] == 245 and all(
            self.fr_refclass.summarize(ref, m, thresholds=(1.4,)).to_dict() == frozen[m]
            for m in ("cost", "schedule"))
        return Check("bundled 245-row CSV reproduces its frozen summary", ok)


# ---------------------------------------------------------------------------


class CliPipeline(Workload):
    """The nine CLI commands as sequential subprocesses into a fresh --out."""

    name = "cli-pipeline"
    item = "commands"
    rss_of_children = True
    ENTRY = "import sys; from fragilis.cli import main; sys.exit(main())"

    def kernel(self):
        return calibrate.interpreter_kernel(self.work)[0]

    def write_inputs(self) -> bytes:
        spec = inputs.cli_inputs(self.seed)
        self.spec = spec
        text, self.bad_lines = inputs.records_csv(spec["csv_seed"], 400 if self.small else inputs.CLI_ROWS)
        (self.work / "records.csv").write_text(text, encoding="utf-8")
        (self.work / "model.json").write_text(json.dumps(spec["model"], indent=2), encoding="utf-8")
        return inputs.canonical_bytes(spec) + text.encode()

    def commands(self, out: str) -> list[list[str]]:
        records, model, o = "records.csv", "model.json", ["--out", out]
        stress = ["--dist", "big-dam", "--schedule-dist", "big-dam-schedule",
                  "--duration", repr(inputs.STRESS_DURATION_YEARS),
                  "--shortfall", repr(inputs.STRESS_SHORTFALL), "--seed", str(self.spec["stress_seed"])]
        if self.small:
            stress += ["--trials", "2000"]
        return [
            ["ingest", records, *o],
            ["stats", records, "--threshold", "1.4", "--threshold", "2.0", "--group", "region", *o],
            ["density", records, "--format", "svg", *o],
            ["test", records, "--test", "bias", *o],
            ["test", records, "--test", "decades", *o],
            ["test", records, "--test", "trend", *o],
            ["appraise", model, "--format", "svg", *o],
            ["stress", model, *stress, *o],
            ["grid", model, *o],
            ["contingency", model, "--dist", "big-dam", "--coverage", "0.8", *o],
            ["report", *o],
        ]

    def setup(self) -> None:
        # Only the traced run calls cli.main in this process.
        if self.in_process:
            import fragilis.cli as fr_cli

            self.fr_cli = fr_cli

    @staticmethod
    def _snapshot(out: Path) -> dict[str, str]:
        """sha256 of every artifact except the time-stamped manifests."""
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir()) if not p.name.startswith("manifest-")}

    def _invoke(self, argv: list[str]) -> int:
        if self.in_process:
            cwd = os.getcwd()
            os.chdir(self.work)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    return self.fr_cli.main(argv)
            finally:
                os.chdir(cwd)
        try:
            proc = subprocess.run([sys.executable, "-c", self.ENTRY, *argv], cwd=self.work,
                                  env=_env(self.root), capture_output=True, text=True,
                                  timeout=COMMAND_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return -1
        if proc.returncode:
            sys.stderr.write(proc.stderr)
        return proc.returncode

    def run_pass(self) -> Pass:
        out = self.work / "out"
        steps, timed, failed = [], self.steps(), 0
        for i, argv in enumerate(self.commands(out.name)):
            code = timed(f"{i:02d}.{argv[0]}", self._invoke, argv)
            failed += code != 0
            steps.append({"argv": argv, "exit": code,
                          "artifacts": self._snapshot(out) if out.is_dir() else {}})
        docs = {name: json.loads((out / name).read_text(encoding="utf-8"))
                for name in ("ingest.json", "stress.json", "appraisal.json", "grid.json")
                if (out / name).is_file()}
        report = (out / "report.md").read_text(encoding="utf-8") if (out / "report.md").is_file() else ""
        shutil.rmtree(out, ignore_errors=True)
        n = len(steps)
        return Pass(timed, n - failed, n, failed, steps, {"docs": docs, "report": report})

    def extra_metrics(self, passes, wall_s):
        times = [t for p in passes for t in p.steps.values()]
        out = {"cli_cmd_p50_s": (statistics.median(times), "s")}
        # the highest percentile with at least ten samples beyond it
        for pct in (99, 90, 75):
            if len(times) * (100 - pct) >= 1000:
                out[f"cli_cmd_p{pct}_s"] = (statistics.quantiles(times, n=100)[pct - 1], "s")
                break
        out["cli_cmd_samples"] = (len(times), "count")
        return out

    def checks(self, first):
        out = [Check(f"`{s['argv'][0]}` exits 0", s["exit"] == 0, f"exit {s['exit']}")
               for s in first.outputs]
        docs, report = first.extra["docs"], first.extra["report"]
        ingest = docs.get("ingest.json", {})
        out.append(Check("ingest skips exactly the malformed rows",
                         ingest.get("n_skipped") == len(self.bad_lines)
                         and [e["row"] for e in ingest.get("errors", [])] == self.bad_lines))
        spec = self.spec["model"]
        rate = spec["discount_rate"]
        legs = {leg: [(e["t"], e["amount"]) for e in spec[leg]] for leg in ("benefits", "capex", "om")}
        pv = {leg: oracles.present_value(entries, rate) for leg, entries in legs.items()}
        out += self._appraisal_checks(docs.get("appraisal.json", {}), docs.get("grid.json", {}), legs, pv, rate)
        stress = docs.get("stress.json")
        if stress is None:
            out.append(Check("stress wrote stress.json", False))
        else:
            from fragilis import datasets

            quad = oracles.full_p_break(pv["benefits"], pv["capex"], pv["om"], rate,
                                        datasets.resolve_dist("big-dam"), datasets.resolve_dist("big-dam-schedule"),
                                        inputs.STRESS_DURATION_YEARS, inputs.STRESS_SHORTFALL)
            out.append(Check("stress p_break within 4 SE of the slippage quadrature",
                             oracles.within_4se(stress["p_break"], stress["p_break_se"], quad),
                             f"{stress['p_break']!r} vs {quad!r}"))
        out.append(Check("report covers all eight artifacts", report.count("\n## ") == 8))
        return out

    @staticmethod
    def _appraisal_checks(appraisal: dict, grid: dict, legs: dict, pv: dict, rate: float) -> list[Check]:
        """Appraisal identities, checked with numpy present values."""
        b, c, o = pv["benefits"], pv["capex"], pv["om"]
        out = [
            Check("appraise BCR matches B / (C + O)",
                  oracles.close(appraisal.get("bcr", math.nan), b / (c + o), 1e-9)),
            Check("k* matches (B - O) / C, which is the BCR when there is no O&M",
                  oracles.close(appraisal.get("break_even_overrun", math.nan), max(b - o, 0.0) / c, 1e-12),
                  f"{appraisal.get('break_even_overrun')!r}"),
        ]
        d = appraisal.get("break_even_delay")
        if d is not None:
            bd = oracles.present_value(legs["benefits"], rate, d)
            od = oracles.present_value(legs["om"], rate, d)
            out.append(Check("BCR at d* is 1", abs(bd / (c + od) - 1.0) < 1e-7, f"d*={d!r}"))
        cells = [(1.0, 1.0, appraisal.get("irr"), b / (c + o))]
        for km, irr_row, bcr_row in zip(grid.get("cost_mults", []), grid.get("irr", []), grid.get("bcr", [])):
            cells += [(km, bm, r, v) for bm, r, v in zip(grid["benefit_mults"], irr_row, bcr_row)]
        shape = len(grid.get("cost_mults", [])) * len(grid.get("benefit_mults", []))
        out.append(Check("grid has every cell", 0 < shape == len(cells) - 1, f"{len(cells) - 1} cells"))
        for km, bm, r, bcr_value in cells:
            out.append(Check(f"BCR matches b*B / (k*C + O) (cost x{km}, benefit x{bm})",
                             oracles.close(bcr_value, bm * b / (km * c + o), 1e-9)))
            if r is None:
                continue
            net = ([(t, bm * a) for t, a in legs["benefits"]] + [(t, -km * a) for t, a in legs["capex"]]
                   + [(t, -a) for t, a in legs["om"]])
            gross = oracles.present_value([(t, abs(a)) for t, a in net], r)
            out.append(Check(f"NPV at IRR is 0 (cost x{km}, benefit x{bm})",
                             abs(oracles.present_value(net, r)) <= 1e-6 * gross, f"irr={r!r}"))
        return out


WORKLOADS = {w.name: w for w in (StressMC, RefclassAnalysis, CliPipeline)}
