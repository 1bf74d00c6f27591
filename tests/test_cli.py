import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragilis import __version__, datasets, stress
from fragilis.cli import main
from fragilis.errors import ComputeError
from fragilis.refclass import read_records_csv

STYLIZED = str(datasets.asset_path("stylized-dam.json"))
FIXTURE = str(datasets.asset_path(datasets.SYNTHETIC_CSV))

CSV_HEADER = (
    "id,name,country,region,project_type,decision_year,"
    "est_cost,act_cost,est_months,act_months,est_benefit,act_benefit"
)


def run(args: list[str]) -> int:
    return main(args)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# appraise


def test_appraise_stylized_model(tmp_path):
    out = tmp_path / "o"
    assert run(["appraise", STYLIZED, "--out", str(out)]) == 0
    doc = read_json(out / "appraisal.json")
    assert doc["bcr"] == pytest.approx(1.4, rel=1e-9)
    assert doc["break_even_overrun"] == pytest.approx(1.4, rel=1e-9)
    assert doc["break_even_delay"] == pytest.approx(math.log(1.4) / math.log(1.11), abs=1e-5)
    assert (out / "manifest-appraise.json").is_file()


def test_appraise_svg_payoff(tmp_path):
    out = tmp_path / "o"
    assert run(["appraise", STYLIZED, "--format", "svg", "--out", str(out)]) == 0
    svg = (out / "payoff.svg").read_text()
    assert svg.startswith("<svg") and "cumulative gain" in svg


def test_appraise_svg_without_gain_plots_only_pain(tmp_path):
    model = tmp_path / "model.json"
    model.write_text('{"discount_rate": 0.05, "capex": [{"t": 0, "amount": 100}], '
                     '"benefits": [{"t": 1, "amount": 0}]}')
    out = tmp_path / "o"
    assert run(["appraise", str(model), "--format", "svg", "--out", str(out)]) == 0
    assert read_json(out / "appraisal.json")["bcr"] == 0
    svg = (out / "payoff.svg").read_text()
    assert svg.count("<polyline") == 1 and "cumulative pain" in svg and "cumulative gain" not in svg


@pytest.mark.parametrize("capex", ["5e-324", "1e-300"])
def test_appraise_svg_of_a_tiny_model_has_distinct_ticks(tmp_path, capex):
    # 5e-324 once made the tick step underflow to 0 (a ValueError from log10);
    # 1e-300 once put all six y ticks at 0
    model = tmp_path / "model.json"
    model.write_text('{"discount_rate": 0.05, "capex": [{"t": 0, "amount": %s}], '
                     '"benefits": [{"t": 1, "amount": 0}]}' % capex)
    out = tmp_path / "o"
    assert run(["appraise", str(model), "--format", "svg", "--out", str(out)]) == 0
    svg = (out / "payoff.svg").read_text()
    y_labels = re.findall(r'text-anchor="end" font-family="sans-serif" font-size="11">([^<]*)<',
                          svg)
    assert y_labels and len(set(y_labels)) == len(y_labels)


def test_appraise_missing_model_is_validation_error(tmp_path):
    assert run(["appraise", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_appraise_malformed_model_is_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"discount_rate": 0.1, "capex": [], "om": [], "benefits": []}')
    assert run(["appraise", str(bad), "--out", str(tmp_path)]) == 2


def test_appraise_truncated_model_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "truncated.json"
    bad.write_text(Path(STYLIZED).read_text(encoding="utf-8")[:40])
    assert run(["appraise", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# stress


def test_stress_byte_identical_across_runs(tmp_path, monkeypatch):
    args_common = ["stress", STYLIZED, "--dist", "big-dam", "--trials", "20000", "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args_common + ["--out", str(out1)]) == 0
    monkeypatch.setattr(stress, "_CHUNK", 777)
    assert run(args_common + ["--out", str(out2)]) == 0
    assert (out1 / "stress.json").read_bytes() == (out2 / "stress.json").read_bytes()
    assert (out1 / "stress-npv-quantiles.csv").read_bytes() == (
        out2 / "stress-npv-quantiles.csv"
    ).read_bytes()


def test_stress_generates_and_records_seed(tmp_path):
    out = tmp_path / "o"
    assert run(["stress", STYLIZED, "--dist", "big-dam", "--trials", "100", "--out", str(out)]) == 0
    doc = read_json(out / "stress.json")
    manifest = read_json(out / "manifest-stress.json")
    assert isinstance(doc["seed"], int)
    assert manifest["seed"] == doc["seed"]


def test_stress_manifest_records_how_the_run_went(tmp_path):
    out = tmp_path / "o"
    assert run(["stress", STYLIZED, "--dist", "big-dam", "--trials", "1000", "--seed", "2",
                "--out", str(out)]) == 0
    run_doc = read_json(out / "manifest-stress.json")["run"]
    assert set(run_doc) == {"wall_s", "trials_per_s", "peak_rss_mb", "python", "numpy", "workers"}
    assert run_doc["wall_s"] > 0
    assert run_doc["workers"] == stress.worker_count(1000) == 1  # 1000 trials fill one span
    assert run_doc["trials_per_s"] == pytest.approx(1000 / run_doc["wall_s"])
    assert 1 < run_doc["peak_rss_mb"] < 100_000
    assert run_doc["python"] == sys.version.split()[0]
    assert run_doc["numpy"] == np.__version__
    # only the manifest carries it: stress.json stays a pure function of the inputs
    assert not {"run", "wall_s", "peak_rss_mb"} & set(read_json(out / "stress.json"))
    manifest = read_json(out / "manifest-stress.json")
    assert set(manifest) == {"command", "inputs", "seed", "version", "timestamp", "run"}
    assert manifest["seed"] == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("capex, message", [
    (1e308, "a trial NPV is not finite"),  # overruns above 1 overflow capex to inf
    (1e306, "the sum of the trial NPVs overflows a float"),  # each NPV finite, the sum not
])
def test_stress_overflowing_model_is_computation_error(tmp_path, capsys, capex, message):
    doc = json.loads(Path(STYLIZED).read_text(encoding="utf-8"))
    doc["capex"] = [{"t": 0.0, "amount": capex}]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o"
    rc = run(["stress", str(model), "--dist", "big-dam", "--trials", "1000", "--seed", "1",
              "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"computation error: {message}") and err.count("\n") == 1
    assert not (out / "stress.json").exists()


def _legs_doc(rate, capex, benefits, om=()):
    def legs(pairs):
        return [{"t": t, "amount": a} for t, a in pairs]
    return {"discount_rate": rate, "capex": legs(capex), "om": legs(om), "benefits": legs(benefits)}


_TINY_CAPEX = _legs_doc(0.1, [(0.0, 5e-324)], [(1.0, 100.0)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("doc, argv", [
    # subnormal PV(capex) under a huge benefit: both break-evens leave the float range
    (_legs_doc(0.1, [(0.0, 1e-320)], [(1.0, 1e300)], [(0.0, 1.0)]), ["appraise"]),
    (_TINY_CAPEX, ["appraise"]),  # BCR of 90.9 / 5e-324
    (_TINY_CAPEX, ["contingency", "--dist", "big-dam"]),
    (None, ["grid", "--cost-mults", "5e-324", "--benefit-mults", "1"]),  # the stylized dam
    (_legs_doc(0.1, [(0.0, 0.01)], [(1.0, 100.0)]), ["grid", "--cost-mults", "5e-324"]),  # pain 0
    (_legs_doc(0.1, [(0.0, 1e308)], [(1.0, 100.0)], [(0.0, 1e308)]), ["appraise"]),  # pain sum
    (_legs_doc(1e-310, [(0.0, 100.0)], [(0.0, 200.0)]), ["appraise"]),  # log1p(r) subnormal
], ids=["overrun-delay", "bcr", "contingency", "grid-inf", "grid-zero-pain", "pain-sum", "delay"])
def test_non_finite_ratio_is_computation_error(tmp_path, capsys, doc, argv):
    model = Path(STYLIZED)
    if doc is not None:
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o"
    assert run([argv[0], str(model), *argv[1:], "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("computation error:")
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_stress_infinite_duration_is_validation_error(tmp_path, capsys):
    for duration in ("inf", "nan"):
        rc = run(["stress", STYLIZED, "--dist", "big-dam", "--schedule-dist", "big-dam-schedule",
                  "--duration", duration, "--trials", "1000", "--seed", "1",
                  "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "finite est_duration_years" in capsys.readouterr().err
    assert not (tmp_path / "o" / "stress.json").exists()


def test_stress_duration_without_schedule_is_validation_error(tmp_path, capsys):
    rc = run(["stress", STYLIZED, "--dist", "big-dam", "--duration", "8.6",
              "--trials", "1000", "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "est_duration_years applies only with a schedule_dist" in capsys.readouterr().err
    assert not (tmp_path / "o" / "stress.json").exists()


def test_stress_with_schedule_and_shortfall(tmp_path):
    out = tmp_path / "o"
    rc = run(
        [
            "stress", STYLIZED, "--dist", "big-dam",
            "--schedule-dist", "big-dam-schedule", "--duration", "8.6",
            "--shortfall", "0.11", "--trials", "5000", "--seed", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    doc = read_json(out / "stress.json")
    assert doc["schedule_dist"] == "big-dam-schedule"
    assert 0.0 <= doc["p_break"] <= 1.0


def test_stress_records_shortfall_and_digests_every_dist(tmp_path, monkeypatch):
    shortfall_file = tmp_path / "shortfall.json"
    shortfall_file.write_text(json.dumps({
        "anchors": [{"p": 0.5, "x": 0.11}], "floor_x": 0.001,
        "tail": {"shape": -0.25, "scale": 0.04},
    }))
    args = ["stress", STYLIZED, "--dist", "big-dam", "--schedule-dist", "big-dam-schedule",
            "--duration", "8.6", "--trials", "100", "--seed", "3"]
    out = tmp_path / "o"
    assert run(args + ["--shortfall-dist", str(shortfall_file), "--out", str(out)]) == 0
    assert read_json(out / "stress.json")["shortfall"] == str(shortfall_file)
    inputs = read_json(out / "manifest-stress.json")["inputs"]

    def digest(path) -> str:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    files = [STYLIZED, shortfall_file] + [
        datasets.asset_path(f) for f in ("big-dam.json", "big-dam-schedule.json")
    ]
    assert inputs == {str(p): digest(p) for p in files}

    assert run(args + ["--shortfall", "0.11", "--out", str(out)]) == 0
    assert read_json(out / "stress.json")["shortfall"] == 0.11

    # a bundled name is digested as the file it resolves to under FRAGILIS_DATA_DIR
    override = tmp_path / "assets"
    override.mkdir()
    swapped = json.loads(datasets.asset_path("big-dam.json").read_text(encoding="utf-8"))
    swapped["notes"] = "swapped"
    (override / "big-dam.json").write_text(json.dumps(swapped), encoding="utf-8")
    monkeypatch.setenv("FRAGILIS_DATA_DIR", str(override))
    out2 = tmp_path / "o2"
    assert run(["stress", STYLIZED, "--dist", "big-dam", "--trials", "100", "--seed", "3",
                "--out", str(out2)]) == 0
    inputs = read_json(out2 / "manifest-stress.json")["inputs"]
    assert inputs == {STYLIZED: digest(STYLIZED),
                      str(override / "big-dam.json"): digest(override / "big-dam.json")}


def test_stress_shortfall_with_shortfall_dist_is_validation_error(tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run(["stress", STYLIZED, "--dist", "big-dam", "--shortfall", "0.9",
             "--shortfall-dist", "big-dam", "--trials", "100", "--seed", "3", "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with argument --shortfall" in capsys.readouterr().err
    assert not (out / "stress.json").exists()


def test_stress_trials_above_cap_rejected_before_allocating(tmp_path, capsys):
    tracemalloc.start()
    try:
        rc = run(["stress", STYLIZED, "--dist", "big-dam", "--trials", str(10**12),
                  "--seed", "1", "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert peak < 10_000_000


def test_stress_unknown_dist_is_validation_error(tmp_path):
    assert (
        run(["stress", STYLIZED, "--dist", "no-such-dist", "--trials", "10",
             "--out", str(tmp_path)])
        == 2
    )


def test_stress_truncated_dist_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "truncated-dist.json"
    bad.write_text(datasets.asset_path("big-dam.json").read_text(encoding="utf-8")[:40])
    rc = run(["stress", STYLIZED, "--dist", str(bad), "--trials", "10", "--seed", "1",
              "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


_DIST_DOC = {"anchors": [{"p": 0.5, "x": 1.2}, {"p": 0.8, "x": 1.6}], "floor_x": 0.4,
             "tail": {"shape": 0.2, "scale": 0.3}}
_CALIBRATED = {**_DIST_DOC, "tail": {"calibrate_mean": 1.5}}


@pytest.mark.parametrize("doc", [
    {**_DIST_DOC, "anchors": [{"p": "x", "x": 1.2}]},
    {**_DIST_DOC, "floor_x": "x"},
    {**_DIST_DOC, "tail": {"shape": "x", "scale": 0.3}},
    {**_DIST_DOC, "tail": {"shape": 0.2, "scale": "x"}},
    {**_DIST_DOC, "tail": {"calibrate_mean": "x"}},
    {**_DIST_DOC, "tail": 3},
    {**_DIST_DOC, "tail": None},
    {**_CALIBRATED, "anchors": []},
    {**_CALIBRATED, "anchors": [{"p": 0.5, "x": 1.2}, {"p": 0.5, "x": 1.6}]},  # repeated p
    {**_CALIBRATED, "anchors": [{"p": 0.5, "x": -1.0}, {"p": 0.8, "x": 1.6}]},
    {**_CALIBRATED, "anchors": [{"p": 0.5, "x": 0.0}, {"p": 0.8, "x": 1.6}]},
])
def test_malformed_dist_file_is_validation_error(tmp_path, capsys, doc):
    dist = tmp_path / "d.json"
    dist.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["stress", STYLIZED, "--dist", str(dist), "--trials", "100", "--seed", "1"],
                 ["contingency", STYLIZED, "--dist", str(dist)]):
        assert run(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def _model_doc(**fields) -> dict:
    return {"discount_rate": 0.05, "capex": [{"t": 0, "amount": 100.0}],
            "benefits": [{"t": 1, "amount": 20.0}], **fields}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text, code", [
    (json.dumps(_model_doc(base_year=1)).replace('"base_year": 1', '"base_year": 1e400'), 2),
    (json.dumps(_model_doc(capex=[{"t": 0, "amount": 1e308}, {"t": 1, "amount": 1e308}])), 3),
    (json.dumps(_model_doc(discount_rate=-0.5, benefits=[{"t": 1, "amount": 1e308}])), 3),
])
def test_overflowing_model_file_exits_cleanly(tmp_path, capsys, text, code):
    model = tmp_path / "model.json"
    model.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    for argv in (["appraise", str(model)], ["grid", str(model)],
                 ["stress", str(model), "--dist", "big-dam", "--trials", "100", "--seed", "1"]):
        assert run(argv + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "appraisal.json").exists() and not (out / "grid.json").exists()


def test_far_future_cash_flows_have_a_finite_irr(tmp_path):
    # at the scan's lowest rate, -0.99, a flow at t >= 155 is discounted by
    # 0.01 ** -t > 1e308; the IRR scan skips such rates
    benefits = [{"t": t, "amount": 10.0} for t in range(1, 161)]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_model_doc(benefits=benefits)), encoding="utf-8")
    out = tmp_path / "o"
    assert run(["appraise", str(model), "--out", str(out)]) == 0
    assert run(["grid", str(model), "--out", str(out)]) == 0
    root = read_json(out / "appraisal.json")["irr"]
    stream = [(0, -100.0)] + [(t, 10.0) for t in range(1, 161)]
    assert abs(math.fsum(a * (1 + root) ** -t for t, a in stream)) < 1e-9
    assert read_json(out / "grid.json")["irr"][0][1] == root  # cost 1, benefit 1


def test_stress_infeasible_calibration_is_computation_error(tmp_path, capsys):
    dist_file = tmp_path / "impossible.json"
    dist_file.write_text(json.dumps({
        "anchors": [{"p": 0.5, "x": 1.27}, {"p": 0.9, "x": 3.07}],
        "floor_x": 0.4,
        "tail": {"calibrate_mean": 99.0},
    }))
    rc = run(["stress", STYLIZED, "--dist", str(dist_file), "--trials", "10",
              "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "infinite mean" in capsys.readouterr().err


def test_stress_schedule_without_duration_is_validation_error(tmp_path):
    rc = run(
        ["stress", STYLIZED, "--dist", "big-dam", "--schedule-dist", "big-dam-schedule",
         "--trials", "10", "--seed", "1", "--out", str(tmp_path)]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# stats / ingest / density / test


def _write_known_csv(path: Path) -> None:
    rows = [
        ("A", 100.0, 90.0),   # 0.9
        ("B", 100.0, 110.0),  # 1.1
        ("C", 100.0, 150.0),  # 1.5
        ("D", 100.0, 200.0),  # 2.0
    ]
    lines = [CSV_HEADER]
    for rid, est, act in rows:
        lines.append(f"{rid},Dam {rid},X,Asia,hydroelectric,1970,{est},{act},60,66,,")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_stats_known_fixture_matches_brute_force(tmp_path):
    csv_path = tmp_path / "known.csv"
    _write_known_csv(csv_path)
    out = tmp_path / "o"
    rc = run(["stats", str(csv_path), "--metric", "cost", "--threshold", "1.4",
              "--out", str(out)])
    assert rc == 0
    summary = read_json(out / "stats.json")["summary"]
    assert summary["share_over_1"] == 0.75
    assert summary["share_breaking"]["1.4"] == 0.5
    assert summary["median"] == pytest.approx(1.3, rel=1e-12)
    assert summary["n"] == 4


def test_stats_non_finite_threshold_is_validation_error(tmp_path, capsys):
    for bad in ("nan", "inf", "1e400"):
        for group in ([], ["--group", "decade"]):
            out = tmp_path / f"o-{bad}-{len(group)}"
            rc = run(["stats", FIXTURE, "--threshold", "1.4", "--threshold", bad,
                      *group, "--out", str(out)])
            assert rc == 2
            assert "thresholds must be finite" in capsys.readouterr().err
            assert not out.exists()


def test_stats_grouped_by_decade(tmp_path):
    out = tmp_path / "o"
    rc = run(["stats", FIXTURE, "--metric", "cost", "--threshold", "1.4",
              "--group", "decade", "--out", str(out)])
    assert rc == 0
    doc = read_json(out / "stats.json")
    assert doc["group_by"] == "decade"
    assert sum(g["n"] for g in doc["groups"].values()) == 245


def test_stats_group_type_maps_to_project_type(tmp_path):
    out = tmp_path / "o"
    rc = run(["stats", FIXTURE, "--group", "type", "--out", str(out)])
    assert rc == 0
    doc = read_json(out / "stats.json")
    assert doc["group_by"] == "project_type"
    assert "hydroelectric" in doc["groups"]


def test_ingest_lenient_reports_diagnostics(tmp_path):
    csv_path = tmp_path / "mixed.csv"
    csv_path.write_text(
        CSV_HEADER
        + "\nA,Dam,X,Asia,road,1990,1,2,3,4,,"
        + "\nB,Dam,X,Atlantis,road,1990,1,2,3,4,,\n",
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert run(["ingest", str(csv_path), "--out", str(out)]) == 0
    doc = read_json(out / "ingest.json")
    assert doc["n_accepted"] == 1 and doc["n_skipped"] == 1
    assert doc["errors"][0]["row"] == 3
    assert doc["errors"][0]["field"] == "region"


def test_ingest_strict_aborts_with_exit_2(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(
        CSV_HEADER + "\nA,Dam,X,Atlantis,road,1990,1,2,3,4,,\n", encoding="utf-8"
    )
    assert run(["ingest", str(csv_path), "--strict", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "row 2" in err and "Atlantis" in err


def test_ingest_empty_csv_is_validation_error(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("", encoding="utf-8")
    assert run(["ingest", str(csv_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "CSV is empty: header row required" in err


def test_records_not_utf8_is_validation_error(tmp_path, capsys):
    csv_path = tmp_path / "latin1.csv"
    csv_path.write_bytes(CSV_HEADER.encode() + b"\nA,Dam,\xff,Asia,road,1990,1,2,3,4,,\n")
    for command in (["ingest"], ["stats"], ["density"], ["test", "--test", "bias"]):
        for mode in ([], ["--strict"]):
            argv = command + [str(csv_path), "--out", str(tmp_path / "o")] + mode
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and "not UTF-8" in err


def _long_field_csv(tmp_path) -> Path:
    # a field past csv.field_size_limit() (131072) between two good rows
    csv_path = tmp_path / "long.csv"
    csv_path.write_text(
        CSV_HEADER
        + "\nA,Dam,X,Asia,road,1990,1,2,3,4,,"
        + "\nB,Dam," + "x" * 200_000 + ",Asia,road,1990,1,2,3,4,,"
        + "\nC,Dam,X,Europe,road,1990,1,2,3,4,,\n",
        encoding="utf-8",
    )
    return csv_path


def test_ingest_lenient_skips_over_long_field(tmp_path):
    out = tmp_path / "o"
    assert run(["ingest", str(_long_field_csv(tmp_path)), "--out", str(out)]) == 0
    doc = read_json(out / "ingest.json")
    assert doc["n_accepted"] == 2 and doc["n_skipped"] == 1
    assert doc["errors"][0]["row"] == 3 and doc["errors"][0]["field"] == "(row)"
    assert "field larger than field limit" in doc["errors"][0]["message"]


def test_ingest_lenient_skips_rest_of_over_long_quoted_field(tmp_path):
    # csv resumes on the line after the over-long field, inside B's quoted name;
    # the lines up to the one that closes it ("" is a quote inside it) are B's
    csv_path = tmp_path / "quoted.csv"
    csv_path.write_text(
        CSV_HEADER
        + "\nA,Dam,X,Asia,road,1990,1,2,3,4,,"
        + '\nB,"' + "y" * 200_000
        + "\nC,Dam,X,Asia,road,1990,1,2,3,4,,"
        + '\nsay ""hi"",D,Dam,X,Asia,road,1990,1,2,3,4,,'
        + '\nx",c,Asia,road,1990,1,2,3,4,,'
        + "\nD,Dam,X,Europe,road,1990,1,2,3,4,,"
        + "\nE,Dam\n",
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert run(["ingest", str(csv_path), "--out", str(out)]) == 0
    doc = read_json(out / "ingest.json")
    assert doc["n_accepted"] == 2 and doc["n_skipped"] == 2
    assert [(e["row"], e["field"]) for e in doc["errors"]] == [(3, "(row)"), (8, "country")]


def test_over_long_field_strict_is_validation_error(tmp_path, capsys):
    csv_path = _long_field_csv(tmp_path)
    for command in (["ingest"], ["stats"], ["density"], ["test", "--test", "bias"]):
        argv = command + [str(csv_path), "--strict", "--out", str(tmp_path / "o")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "row 3" in err and "field limit" in err
    assert not (tmp_path / "o").exists()


def test_over_long_header_field_is_validation_error(tmp_path, capsys):
    csv_path = tmp_path / "header.csv"
    csv_path.write_text("x" * 200_000 + "\n", encoding="utf-8")
    for mode in ([], ["--strict"]):
        assert run(["ingest", str(csv_path), "--out", str(tmp_path / "o"), *mode]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "row 1" in err and "field limit" in err


def test_density_csv_and_svg(tmp_path):
    out = tmp_path / "o"
    rc = run(["density", FIXTURE, "--metric", "cost", "--format", "svg", "--out", str(out)])
    assert rc == 0
    lines = (out / "density.csv").read_text().strip().splitlines()
    assert lines[0] == "value,density"
    assert len(lines) == 1 + 512
    values = [tuple(map(float, line.split(","))) for line in lines[1:]]
    xs, ys = zip(*values)
    integral = sum(
        0.5 * (ys[i] + ys[i + 1]) * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)
    )
    assert 0.99 <= integral <= 1.01
    assert (out / "density.svg").read_text().startswith("<svg")


GOLDEN_DENSITY_SHA256 = {
    "density.json": "12668a762f07446c5eadc532e36f6c98e2343d5be8a35a320aa42bc2601b3bc3",
    "density.csv": "cbf491a3bb649c8417ff8cca3564a9dd55cae5e03b3201bea5219b1c30205d43",
}


def test_density_golden_digests(tmp_path, monkeypatch):
    # a relative input path keeps the "source" field in density.json the same everywhere
    monkeypatch.chdir(tmp_path)
    shutil.copy(FIXTURE, "records.csv")
    assert run(["density", "records.csv", "--out", "o"]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
        for name in GOLDEN_DENSITY_SHA256
    }
    assert digests == GOLDEN_DENSITY_SHA256


# stats.json per --group and test.json for --test decades, on the bundled CSV
GOLDEN_GROUPED_SHA256 = {
    ("stats", "region", "cost"): "d82d86f27d0794c9a101038613edb751d8200a9fc7adbf19734ef94e3902ec42",
    ("stats", "type", "cost"): "f6b4badf94a0572d6a0d85706f808527753f27bc481c37623540ca85229525e9",
    ("stats", "decade", "cost"): "be11a63bcb9d751559cbae8d05ad6d1cfa97e28f7005e913df3f1b66f816caf7",
    ("test", "decades", "cost"): "0f4cabb0c564aae230a61ab79848274787391c1a1328c45729b6c5d93fef7daa",
    ("stats", "region", "schedule"): "e2c1e7f6b257bd38e8a9ed1d823865966d538b948ef2850409691ba8b6776b9f",
    ("stats", "type", "schedule"): "642469798d22b333903385435159836c3e00def1f0a16c582a928d99c92f4c36",
    ("stats", "decade", "schedule"): "5dc064ada494b5961222fab57468a293bc447140921c0886be618a9a4effc342",
    ("test", "decades", "schedule"): "5f0ec70bf4a122302b21bb8a217061859f95bd4e34bc84285324f7d9631f526b",
}


@pytest.mark.parametrize("command,choice,metric", sorted(GOLDEN_GROUPED_SHA256))
def test_grouped_golden_digests(tmp_path, monkeypatch, command, choice, metric):
    monkeypatch.chdir(tmp_path)  # relative input path: the "source" field is fixed
    shutil.copy(FIXTURE, "records.csv")
    if command == "stats":
        args = ["stats", "records.csv", "--group", choice, "--threshold", "1.5"]
    else:
        args = ["test", "records.csv", "--test", choice]
    assert run(args + ["--metric", metric, "--out", "o"]) == 0
    artifact = (tmp_path / "o" / f"{command}.json").read_bytes()
    assert hashlib.sha256(artifact).hexdigest() == GOLDEN_GROUPED_SHA256[command, choice, metric]


def test_density_zero_variance_is_computation_error(tmp_path):
    csv_path = tmp_path / "flat.csv"
    csv_path.write_text(
        CSV_HEADER
        + "\nA,Dam,X,Asia,road,1990,1,2,3,4,,"
        + "\nB,Dam,X,Asia,road,1990,1,2,3,4,,\n",
        encoding="utf-8",
    )
    assert run(["density", str(csv_path), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_density_infinite_bandwidth_is_input_error(tmp_path, capsys):
    for bandwidth in ("inf", "1e308"):
        out = tmp_path / bandwidth
        assert run(["density", FIXTURE, "--bandwidth", bandwidth, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "bandwidth must be finite" in err
        assert not (out / "density.json").exists()


def test_density_tiny_bandwidth_is_input_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["density", FIXTURE, "--bandwidth", "1e-310", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "too small for a finite density" in err
    assert not (out / "density.json").exists()


def test_density_bandwidth_overflowing_the_normalizer_is_input_error(tmp_path, capsys):
    # n * h * sqrt(2 pi) overflows, so every density would read 0.0
    out = tmp_path / "o"
    assert run(["density", FIXTURE, "--bandwidth", "1e306", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "overflows the density's normalizer" in err
    assert not out.exists()


@pytest.mark.parametrize("ratios, bandwidth", [
    (["1e17"] * 5, "1"),  # every grid value rounds to 1e17, so one unit above it is 1e17 too
    (["1.0", "1.0000000000000002"], "1e-300"),  # a tick step below half an ulp of 1.0
])
def test_density_svg_on_a_one_ulp_axis(tmp_path, ratios, bandwidth):
    # in a subprocess with a timeout: a tick loop whose step cannot move never returns
    csv_path = tmp_path / "narrow.csv"
    rows = [f"R{i},Dam,X,Asia,road,{1990 + i},1,{r},3,4,," for i, r in enumerate(ratios)]
    csv_path.write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    argv = ["density", str(csv_path), "--bandwidth", bandwidth, "--format", "svg",
            "--out", str(out)]
    done = subprocess.run([sys.executable, "-m", "fragilis.cli", *argv], capture_output=True,
                          text=True, timeout=20,
                          env={**os.environ, "PYTHONPATH": str(Path(stress.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert (out / "density.svg").read_text().startswith("<svg")


def test_density_json_format_is_usage_error(tmp_path, capsys):
    # density writes density.json and density.csv for every format; --format adds only the chart
    with pytest.raises(SystemExit) as exc:
        run(["density", FIXTURE, "--format", "json", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid choice: 'json'" in capsys.readouterr().err


def test_test_command_bias_decades_trend(tmp_path):
    for name in ("bias", "decades", "trend"):
        out = tmp_path / name
        rc = run(["test", FIXTURE, "--metric", "cost", "--test", name, "--out", str(out)])
        assert rc == 0
        doc = read_json(out / "test.json")
        assert doc["test"] == name
        assert 0.0 <= doc["result"]["p_value"] <= 1.0


def _write_huge_ratio_csv(path: Path) -> None:
    # est_cost alternating 1 and 1e-300 gives cost ratios 2 and 2e300, whose
    # squared deviations pass the float range
    lines = [CSV_HEADER] + [
        f"R{i},Dam,X,Asia,road,{1970 + 10 * (i // 3) + i},{1 if i % 2 else 1e-300},2,3,4,,"
        for i in range(6)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args, message", [
    (["test", "--test", "decades"], "overflows the float range"),
    (["test", "--test", "trend"], "overflows the float range"),
    (["density"], "spread overflows the float range; pass an explicit bandwidth"),
])
def test_overflowing_ratios_are_computation_errors(tmp_path, capsys, args, message):
    csv_path = tmp_path / "huge.csv"
    _write_huge_ratio_csv(csv_path)
    assert run([args[0], str(csv_path), *args[1:], "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("computation error:") and message in err


# four valid rows whose cost ratios (1e308 each) sum past the float range
_OVERFLOWING_SUM_CSV = CSV_HEADER + "".join(
    f"\nR{i},Dam,X,Asia,road,{1990 + i},1e-8,1e300,3,4,," for i in range(4)) + "\n"


@pytest.mark.parametrize("group", [[], ["--group", "region"]])
def test_stats_overflowing_sum_is_computation_error(tmp_path, capsys, group):
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text(_OVERFLOWING_SUM_CSV, encoding="utf-8")
    out = tmp_path / "o"
    assert run(["stats", str(csv_path), *group, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("computation error:")
    assert "overflows the float range" in err
    assert not out.exists()


@pytest.mark.parametrize("args, n_path", [
    (["stats"], ("summary", "n")),
    (["density"], ("n",)),
    (["test", "--test", "trend"], ("result", "n")),
])
def test_lenient_commands_skip_a_row_whose_ratio_overflows(tmp_path, args, n_path):
    rows = [f"R{i},Dam,X,Asia,road,{1980 + i},100,{r},3,4,,"
            for i, r in enumerate((150, 120, 200, 110))]
    rows.insert(2, "BIG,Dam,X,Asia,road,1990,1e-300,1e300,3,4,,")  # cost ratio inf
    csv_path = tmp_path / "records.csv"
    csv_path.write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert run([args[0], str(csv_path), *args[1:], "--out", str(out)]) == 0
    doc = read_json(out / f"{args[0]}.json")
    for key in n_path:
        doc = doc[key]
    assert doc == 4


def test_test_bias_without_underruns_is_computation_error(tmp_path):
    csv_path = tmp_path / "over.csv"
    csv_path.write_text(
        CSV_HEADER
        + "\nA,Dam,X,Asia,road,1990,100,150,3,4,,"
        + "\nB,Dam,X,Asia,road,1990,100,130,3,4,,\n",
        encoding="utf-8",
    )
    assert run(["test", str(csv_path), "--test", "bias", "--out", str(tmp_path / "o")]) == 3


# cost ratios 1, 2, 3 over decision years 1980-1982 lie on a line: trend_f gives F = inf
_PERFECT_TREND_CSV = (
    CSV_HEADER
    + "\nA,Dam,X,Asia,road,1980,100,100,3,4,,"
    + "\nB,Dam,X,Asia,road,1981,100,200,3,4,,"
    + "\nC,Dam,X,Asia,road,1982,100,300,3,4,,\n"
)


def test_test_trend_perfect_fit_is_computation_error(tmp_path, capsys):
    csv_path = tmp_path / "line.csv"
    csv_path.write_text(_PERFECT_TREND_CSV, encoding="utf-8")
    out = tmp_path / "o"
    assert run(["test", str(csv_path), "--test", "trend", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("computation error:")
    assert not (out / "test.json").exists()


# ---------------------------------------------------------------------------
# grid / contingency / report


def test_grid_command(tmp_path):
    out = tmp_path / "o"
    rc = run(["grid", STYLIZED, "--benefit-mults", "0.85,1.0,1.15",
              "--cost-mults", "1.0,1.15", "--out", str(out)])
    assert rc == 0
    doc = read_json(out / "grid.json")
    assert doc["benefit_mults"] == [0.85, 1.0, 1.15]
    assert len(doc["irr"]) == 2 and len(doc["irr"][0]) == 3
    base_irr = doc["irr"][0][1]
    assert doc["irr"][0][0] < base_irr < doc["irr"][0][2]  # rises with benefits
    assert doc["irr"][1][1] < base_irr  # falls with costs
    csv_text = (out / "grid.csv").read_text()
    assert csv_text.splitlines()[0].endswith("0.85,1,1.15")


def test_grid_non_finite_multiplier_is_validation_error(tmp_path, capsys):
    for flag, raw in (("--benefit-mults", "nan,1"), ("--cost-mults", "1,inf")):
        rc = run(["grid", STYLIZED, flag, raw, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "grid multipliers must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, raw, message", [
    ("--benefit-mults", "a,b", "--benefit-mults must be a comma-separated list of numbers: 'a,b'"),
    ("--cost-mults", ",", "--cost-mults must contain at least one multiplier"),
])
def test_grid_unparseable_multipliers_are_validation_errors(tmp_path, capsys, flag, raw, message):
    assert run(["grid", STYLIZED, flag, raw, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err


def test_grid_overflowing_multiplier_is_computation_error(tmp_path, capsys):
    # 1e306 times the stylized dam's capex leaves the float range, which stress reports as exit 3
    out = tmp_path / "o"
    assert run(["grid", STYLIZED, "--cost-mults", "1e306", "--benefit-mults", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "overflows a float" in err
    assert not out.exists()


def test_grid_over_the_cell_cap_is_validation_error(tmp_path, capsys):
    out = tmp_path / "o"
    benefit_mults = ",".join(str(1 + i / 1000) for i in range(101))
    cost_mults = ",".join(str(1 + i / 1000) for i in range(100))
    rc = run(["grid", STYLIZED, "--benefit-mults", benefit_mults, "--cost-mults", cost_mults,
              "--out", str(out)])
    assert rc == 2
    assert f"cap of {stress.MAX_GRID_TERMS}" in capsys.readouterr().err
    assert not out.exists()


def test_contingency_command(tmp_path):
    out = tmp_path / "o"
    rc = run(["contingency", STYLIZED, "--dist", "big-dam", "--coverage", "0.8",
              "--out", str(out)])
    assert rc == 0
    doc = read_json(out / "contingency.json")
    assert doc["contingency"] == pytest.approx(0.99, abs=1e-9)
    assert doc["adjusted_bcr"] == pytest.approx(1.4 / 1.99, rel=1e-9)
    assert doc["decision"] == "do-not-proceed"


def test_model_and_distribution_files_with_a_byte_order_mark_read_as_without(tmp_path):
    # a UTF-8 byte-order mark, as some Windows editors write, is not part of the document
    artifacts = {}
    for side, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        inputs, out = tmp_path / side, str(tmp_path / side / "out")
        inputs.mkdir()
        for name in ("stylized-dam.json", "big-dam.json"):
            (inputs / name).write_bytes(mark + datasets.asset_path(name).read_bytes())
        model, dist = str(inputs / "stylized-dam.json"), str(inputs / "big-dam.json")
        assert run(["appraise", model, "--out", out]) == 0
        assert run(["contingency", model, "--dist", dist, "--out", out]) == 0
        artifacts[side] = [(inputs / "out" / name).read_text(encoding="utf-8")
                           .replace(str(inputs), "") for name in ("appraisal.json", "contingency.json")]
    assert artifacts["marked"] == artifacts["plain"]


def test_report_embeds_exact_artifact_numbers(tmp_path):
    out = tmp_path / "o"
    assert run(["appraise", STYLIZED, "--out", str(out)]) == 0
    assert run(["contingency", STYLIZED, "--dist", "big-dam", "--coverage", "0.8",
                "--out", str(out)]) == 0
    assert run(["report", "--out", str(out)]) == 0
    report = (out / "report.md").read_text()
    appraisal = read_json(out / "appraisal.json")
    contingency = read_json(out / "contingency.json")
    # the exact JSON literals of every artifact value appear in the report
    assert f"- bcr: {json.dumps(appraisal['bcr'])}" in report
    assert f"- npv: {json.dumps(appraisal['npv'])}" in report
    assert f"- adjusted_bcr: {json.dumps(contingency['adjusted_bcr'])}" in report
    assert "## Appraisal" in report and "## Contingency" in report


def test_report_without_artifacts_is_validation_error(tmp_path):
    assert run(["report", "--out", str(tmp_path / "empty")]) == 2


def test_report_into_missing_dir_does_not_create_it(tmp_path):
    out = tmp_path / "missing"
    assert run(["report", "--out", str(out)]) == 2
    assert not out.exists()


def test_report_corrupt_artifact_is_validation_error(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    for corrupt in (b'{"bcr": 1.2', b'{"bcr": "\xff"}'):
        (out / "appraisal.json").write_bytes(corrupt)
        assert run(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "appraisal.json is not valid JSON" in err
    assert not (out / "report.md").exists()


def test_report_non_finite_artifact_is_validation_error(tmp_path, capsys):
    # RFC 8259 has no Infinity or NaN; the report must not copy them through
    out = tmp_path / "o"
    out.mkdir()
    (out / "appraisal.json").write_text('{"bcr": Infinity, "npv": NaN}', encoding="utf-8")
    assert run(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "appraisal.json is not valid JSON" in err
    assert not (out / "report.md").exists()


def test_model_with_nan_rate_is_validation_error(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_model_doc(discount_rate=math.nan)), encoding="utf-8")
    assert '"discount_rate": NaN' in model.read_text(encoding="utf-8")
    assert run(["appraise", str(model), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "not valid JSON" in err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# parser

# command -> the help line of the input it reads
_COMMAND_INPUTS = {
    **dict.fromkeys(["ingest", "stats", "density", "test"], "reference-class CSV file"),
    **dict.fromkeys(["appraise", "stress", "grid", "contingency"], "appraisal model JSON file"),
    "report": "output directory",
}


@pytest.mark.parametrize("command", sorted(_COMMAND_INPUTS))
def test_every_command_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: fragilis {command}") and _COMMAND_INPUTS[command] in out
    assert ("--metric" in out) == (command in ("stats", "density", "test"))


def test_ingest_metric_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["ingest", FIXTURE, "--metric", "cost", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --metric cost" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# manifest and data dir override


def test_manifest_round_trip(tmp_path):
    out = tmp_path / "o"
    assert run(["appraise", STYLIZED, "--out", str(out)]) == 0
    doc = read_json(out / "manifest-appraise.json")
    assert set(doc) == {"command", "inputs", "seed", "version", "timestamp", "run"}
    assert doc["command"] == ["appraise", STYLIZED, "--out", str(out)]
    assert doc["seed"] is None and doc["version"] == __version__
    digest = next(iter(doc["inputs"].values()))
    assert len(digest) == 64 and int(digest, 16) >= 0


def test_every_command_manifest_records_how_the_run_went(tmp_path):
    out = tmp_path / "o"
    records = ["--out", str(out)]
    for argv in (
        ["ingest", FIXTURE], ["stats", FIXTURE], ["density", FIXTURE],
        ["test", FIXTURE, "--test", "trend"], ["appraise", STYLIZED],
        ["stress", STYLIZED, "--dist", "big-dam", "--trials", "500", "--seed", "4"],
        ["grid", STYLIZED], ["contingency", STYLIZED, "--dist", "big-dam"], ["report"],
    ):
        assert run(argv + records) == 0
        manifest = read_json(out / f"manifest-{argv[0]}.json")
        assert manifest["command"] == argv + records
        run_doc = manifest["run"]
        stress_keys = {"trials_per_s", "workers"}
        assert set(run_doc) - stress_keys == {"wall_s", "peak_rss_mb", "python", "numpy"}
        assert run_doc["wall_s"] > 0 and 1 < run_doc["peak_rss_mb"] < 100_000
        assert ("trials_per_s" in run_doc) == (argv[0] == "stress")
        assert ("workers" in run_doc) == (argv[0] == "stress")
    assert len(read_json(out / "manifest-report.json")["inputs"]) == 8


def test_every_json_artifact_names_the_file_its_command_read(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copy(FIXTURE, "records.csv")
    shutil.copy(STYLIZED, "model.json")
    for i, argv in enumerate((
        ["ingest", "records.csv"], ["stats", "records.csv"], ["density", "records.csv"],
        ["test", "records.csv", "--test", "trend"], ["appraise", "model.json"],
        ["stress", "model.json", "--dist", "big-dam", "--trials", "500", "--seed", "4"],
        ["grid", "model.json"], ["contingency", "model.json", "--dist", "big-dam"],
    )):
        out = tmp_path / f"o{i}"
        assert run(argv + ["--out", str(out)]) == 0
        docs = [p for p in out.glob("*.json") if not p.name.startswith("manifest-")]
        assert docs and all(read_json(p)["source"] == argv[1] for p in docs), argv


def _fresh_python(code: str, *argv: str) -> str:
    """stdout of `python -c code argv...` in a new process that loads this checkout's fragilis."""
    src = Path(stress.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
    return done.stdout.strip()


def test_cli_import_leaves_thread_pool_unloaded():
    # concurrent.futures costs every command ~5 ms of start-up, so run_stress imports it;
    # fractions (with the decimal it loads) costs 3-4.5 ms, so payoff_curve sums in ints
    heavy = ("concurrent.futures", "fractions", "decimal")
    code = f"import sys, fragilis.cli; print([m for m in {heavy} if m in sys.modules])"
    assert _fresh_python(code) == "[]"


# a command's exit code, whether the process loaded numpy, then the fragilis modules it loaded
_CLI_LOADS_NUMPY = (
    "import sys; from fragilis.cli import main; code = main(sys.argv[1:]); "
    "print(code, 'numpy' in sys.modules, *sorted(m for m in sys.modules if m[:9] == 'fragilis.'))"
)


def test_commands_that_compute_without_numpy_never_load_it(tmp_path):
    # numpy's import took 59-82 ms (-X importtime) of the 157-166 ms a contingency process
    # took while it loaded numpy (2 CPUs), so only a command that computes with it loads it;
    # density and stress do, so this test cannot pass vacuously. The same holds for fragilis' own modules:
    # report loads none of cashflow, refclass or charts, the records commands skip cashflow,
    # and appraise, grid and contingency skip refclass.
    code = "import sys, fragilis, fragilis.stress, fragilis.datasets; print('numpy' in sys.modules)"
    assert _fresh_python(code) == "False"
    out = ["--out", str(tmp_path)]
    stress_modules = "_rng cashflow datasets dists refclass stress"
    contingency_modules = "_rng cashflow datasets dists stress"
    for argv, loads, modules in (
        (["ingest", FIXTURE], False, "refclass"),
        (["stats", FIXTURE], False, "refclass"),
        (["stats", FIXTURE, "--group", "region"], False, "refclass"),
        (["test", FIXTURE, "--test", "bias"], False, "refclass stats"),
        (["test", FIXTURE, "--test", "decades"], False, "refclass stats"),
        (["test", FIXTURE, "--test", "trend"], False, "refclass stats"),
        (["appraise", STYLIZED, "--format", "svg"], False, "cashflow charts"),
        (["density", FIXTURE], True, "refclass stats"),
        (["stress", STYLIZED, "--dist", "big-dam", "--trials", "1000", "--seed", "1"], True,
         stress_modules),
        (["grid", STYLIZED], False, "_rng cashflow dists stress"),
        (["contingency", STYLIZED, "--dist", "big-dam"], False, contingency_modules),
        (["contingency", STYLIZED, "--dist", "big-dam", "--coverage", "0.85"], False,
         contingency_modules),  # off the anchors: the body's math.exp, not a pinned value
        (["report"], False, ""),
    ):
        last = _fresh_python(_CLI_LOADS_NUMPY, *argv, *out).splitlines()[-1]  # after the summary
        code, numpy_loaded, *loaded = last.split()
        assert (code, numpy_loaded) == ("0", str(loads)), argv
        expected = {"cli", "errors", *modules.split()}
        assert set(loaded) == {f"fragilis.{m}" for m in expected}, argv
    assert read_json(tmp_path / "manifest-grid.json")["run"]["numpy"] is None
    sized = read_json(tmp_path / "contingency.json")  # the last run: coverage 0.85
    big_dam = datasets.resolve_dist("big-dam")
    assert sized["coverage"] == 0.85 and sized["contingency"] == big_dam.quantile(0.85) - 1.0
    at_085 = float(big_dam.quantile_array(np.array([0.85]))[0])
    assert abs(sized["contingency"] + 1.0 - at_085) <= 2 * math.ulp(at_085)


def test_manifest_records_numpy_only_when_the_command_loaded_it(tmp_path):
    out = ["--out", str(tmp_path)]
    _fresh_python(_CLI_LOADS_NUMPY, "appraise", STYLIZED, *out)
    _fresh_python(_CLI_LOADS_NUMPY, "stats", FIXTURE, *out)
    _fresh_python(_CLI_LOADS_NUMPY, "stress", STYLIZED, "--dist", "big-dam", "--trials", "1000",
                  "--seed", "1", *out)
    _fresh_python(_CLI_LOADS_NUMPY, "contingency", STYLIZED, "--dist", "big-dam", *out)
    assert read_json(tmp_path / "manifest-appraise.json")["run"]["numpy"] is None
    assert read_json(tmp_path / "manifest-contingency.json")["run"]["numpy"] is None
    assert read_json(tmp_path / "manifest-stats.json")["run"]["numpy"] is None
    assert read_json(tmp_path / "manifest-stress.json")["run"]["numpy"] == np.__version__


# every public name of the package as it was when __init__ imported each module eagerly
_PACKAGE_NAMES = {
    "AppraisalModel", "AppraisalResult", "CalibrationError", "CashFlowStream",
    "CompositionNode", "ComputeError", "ContingencyResult", "Cutoffs", "DegenerateSampleError",
    "DensityTrace", "FragilisError", "FragilityProfile", "GeneralizedParetoTail", "InputError",
    "PayoffCurve", "ProjectRecord", "QuantileDistribution", "ReferenceClass", "Region",
    "SensitivityGrid", "StressConfig", "StressResult", "SummaryStats", "SystemGraph",
    "TestResult", "TrendResult", "apply_stress", "appraise", "bcr", "break_even_delay",
    "break_even_overrun", "build_quantile_dist", "classify_quadrant", "cost_overrun_ratio",
    "debt_burden_share", "deflate", "discount_factor", "group_stats", "irr", "kde", "load_dist",
    "load_model", "mann_whitney_u", "net_stream", "npv", "one_way_f", "p_break_analytic",
    "payoff_curve", "read_records_csv", "run_stress", "schedule_slippage", "sensitivity_grid",
    "size_contingency", "summarize", "system_threshold", "trend_f", "write_records_csv",
}


def test_lazy_package_resolves_every_public_name_to_its_module():
    import fragilis

    assert set(fragilis.__all__) == _PACKAGE_NAMES and len(fragilis.__all__) == len(_PACKAGE_NAMES)
    for name in fragilis.__all__:
        value = getattr(fragilis, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert name not in vars(fragilis), name  # looked up on every access, never cached
    assert set(fragilis.__all__) | {"__version__"} <= set(dir(fragilis))
    star: dict = {}
    exec("from fragilis import *", star)
    assert {name: star[name] for name in fragilis.__all__} == {
        name: getattr(fragilis, name) for name in fragilis.__all__}
    with pytest.raises(AttributeError, match="no_such_name"):
        fragilis.no_such_name


def test_every_imported_name_is_used():
    # an unused import is dead code, and module imports are start-up time every command pays
    for path in sorted(Path(stress.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # the package's public names are its imports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"


def _numpy_imports(tree: ast.AST) -> set:
    """The import statements under tree that load numpy or one of its submodules."""
    def roots(node):
        if isinstance(node, ast.Import):
            return {alias.name.split(".")[0] for alias in node.names}
        return {(node.module or "").split(".")[0]} if isinstance(node, ast.ImportFrom) else set()

    return {node for node in ast.walk(tree) if "numpy" in roots(node)}


def test_numpy_is_imported_only_where_it_computes():
    # a module-level numpy import is ~0.2 s of start-up for every command that loads the
    # module, so no module has one: numpy is imported inside the functions that compute
    # with it, and only the draws, the inverse CDF, the stress trials and stats have any
    computes_with_numpy = {"_rng.py", "dists.py", "stats.py", "stress.py"}
    for path in sorted(Path(stress.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nested = set().union(*(_numpy_imports(f) for f in ast.walk(tree)
                               if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))))
        assert not _numpy_imports(tree) - nested, path.name
        assert path.name in computes_with_numpy or not nested, path.name


def test_every_private_module_name_is_used():
    # a module-level _helper that its module reads only inside its own definition is dead code
    for path in sorted(Path(stress.__file__).parent.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        readers: dict[str, set[int]] = {}  # name -> the top-level statements that read it
        for i, stmt in enumerate(body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add(i)
        for i, stmt in enumerate(body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                continue
            unused = sorted(name for name in defined if name.startswith("_")
                            and not name.startswith("__") and not readers.get(name, set()) - {i})
            assert not unused, f"{path.name} never uses {unused}"


def test_failing_command_writes_nothing(tmp_path, monkeypatch):
    # the chart is rendered after density.csv and density.json are computed
    def fail(*args, **kwargs):
        raise ComputeError("chart failed")

    monkeypatch.setattr("fragilis.charts.line_chart", fail)
    out = tmp_path / "o"
    assert run(["density", FIXTURE, "--format", "svg", "--out", str(out)]) == 3
    assert not out.exists()


def test_data_dir_override(tmp_path, monkeypatch):
    override = tmp_path / "assets"
    override.mkdir()
    src = Path(datasets.asset_path("big-dam.json"))
    (override / "big-dam.json").write_text(src.read_text(), encoding="utf-8")
    monkeypatch.setenv("FRAGILIS_DATA_DIR", str(override))
    dist = datasets.resolve_dist("big-dam")
    assert dist.quantile(0.8) == 1.99
    with pytest.raises(Exception, match="not found"):
        datasets.asset_path("stylized-dam.json")


def test_data_dir_override_invalid(monkeypatch, tmp_path):
    monkeypatch.setenv("FRAGILIS_DATA_DIR", str(tmp_path / "missing"))
    with pytest.raises(Exception, match="not a directory"):
        datasets.data_dir()


# ---------------------------------------------------------------------------
# exit-code contract on fuzzed input files

_STRESS = ["--trials", "200", "--seed", "1"]
# file name under the run's directory -> (seed content, commands run on the
# mutated copy; "{}" stands for its path, and every command writes to ./out)
_FUZZ_TARGETS = {
    "model.json": (Path(STYLIZED).read_bytes(), (
        ["appraise", "{}"], ["appraise", "{}", "--format", "svg"],
        ["stress", "{}", "--dist", "big-dam"] + _STRESS,
        ["grid", "{}"], ["contingency", "{}", "--dist", "big-dam"],
    )),
    "dist.json": (datasets.asset_path("big-dam.json").read_bytes(), (
        ["stress", STYLIZED, "--dist", "{}"] + _STRESS,
        ["contingency", STYLIZED, "--dist", "{}"],
    )),
    "records.csv": (Path(FIXTURE).read_bytes(), (
        ["ingest", "{}"], ["stats", "{}", "--strict"], ["stats", "{}", "--group", "region"],
        ["density", "{}"], ["density", "{}", "--format", "svg"],
        ["test", "{}", "--test", "decades"],
    )),
    "line.csv": (_PERFECT_TREND_CSV.encode(), (
        ["test", "{}", "--test", "trend"], ["test", "{}", "--test", "bias"],
    )),
    "out/appraisal.json": (b'{"bcr": 1.4, "irr": 0.155, "npv": 57.1, "source": "m.json"}\n', (
        ["report"],
    )),
}
_EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete", "truncate"]),
              st.integers(0, 1 << 16), st.integers(0, 255)),
    min_size=1, max_size=4,
)


def _mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for op, pos, byte in edits:
        i = pos % (len(buf) + 1)
        if op == "insert":
            buf.insert(i, byte)
        elif op == "truncate":
            del buf[i:]
        elif i < len(buf):
            if op == "replace":
                buf[i] = byte
            else:
                del buf[i]
    return bytes(buf)


def _reject_constant(name: str):
    raise AssertionError(f"artifact holds the non-finite number {name}")


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(sorted(_FUZZ_TARGETS)), _EDITS)
def test_cli_exit_codes_on_mutated_inputs(target, edits):
    seed, commands = _FUZZ_TARGETS[target]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / target
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(_mutate(seed, edits))
        for argv in commands:
            argv = [str(path) if a == "{}" else a for a in argv] + ["--out", str(Path(tmp) / "out")]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
        # main writes only after the whole command succeeds, and renders JSON
        # with allow_nan=False: every JSON file in out but the fuzzed input is a
        # successful run's artifact, and its numbers are finite
        for doc in (Path(tmp) / "out").glob("*.json"):
            if doc != path:
                json.loads(doc.read_text(encoding="utf-8"), parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# bundled assets are reproducible


def test_shipped_assets_match_regeneration(tmp_path):
    datasets.regenerate(tmp_path)
    shipped = datasets.data_dir()
    for name in sorted(p.name for p in tmp_path.iterdir()):
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name


def test_fixture_csv_parses_cleanly():
    result = read_records_csv(datasets.asset_path(datasets.SYNTHETIC_CSV), strict=True)
    assert result.n_accepted == 245
    assert result.n_skipped == 0
    assert all(r.id.startswith("SYN-") for r in result.reference_class.records)


def test_fixture_tracks_source_anchors():
    # the 245-row synthetic draw should land near the distribution it came
    # from: median within 0.05 of 1.27 and breaking share within 0.04 of 0.47
    from fragilis.refclass import summarize

    ref = read_records_csv(datasets.asset_path(datasets.SYNTHETIC_CSV)).reference_class
    stats = summarize(ref, "cost", thresholds=(1.4,))
    assert abs(stats.median - 1.27) <= 0.05
    assert abs(stats.share_breaking[1.4] - 0.47) <= 0.04
    schedule = summarize(ref, "schedule")
    assert abs(schedule.median - 1.27) <= 0.07
    assert abs(schedule.mean - 1.44) <= 0.07
