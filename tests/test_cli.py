import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from fragilis import datasets, stress
from fragilis.cli import RunManifest, main
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


def test_density_zero_variance_is_computation_error(tmp_path):
    csv_path = tmp_path / "flat.csv"
    csv_path.write_text(
        CSV_HEADER
        + "\nA,Dam,X,Asia,road,1990,1,2,3,4,,"
        + "\nB,Dam,X,Asia,road,1990,1,2,3,4,,\n",
        encoding="utf-8",
    )
    assert run(["density", str(csv_path), "--out", str(tmp_path / "o")]) == 3


def test_test_command_bias_decades_trend(tmp_path):
    for name in ("bias", "decades", "trend"):
        out = tmp_path / name
        rc = run(["test", FIXTURE, "--metric", "cost", "--test", name, "--out", str(out)])
        assert rc == 0
        doc = read_json(out / "test.json")
        assert doc["test"] == name
        assert 0.0 <= doc["result"]["p_value"] <= 1.0


def test_test_bias_without_underruns_is_computation_error(tmp_path):
    csv_path = tmp_path / "over.csv"
    csv_path.write_text(
        CSV_HEADER
        + "\nA,Dam,X,Asia,road,1990,100,150,3,4,,"
        + "\nB,Dam,X,Asia,road,1990,100,130,3,4,,\n",
        encoding="utf-8",
    )
    assert run(["test", str(csv_path), "--test", "bias", "--out", str(tmp_path / "o")]) == 3


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


def test_contingency_command(tmp_path):
    out = tmp_path / "o"
    rc = run(["contingency", STYLIZED, "--dist", "big-dam", "--coverage", "0.8",
              "--out", str(out)])
    assert rc == 0
    doc = read_json(out / "contingency.json")
    assert doc["contingency"] == pytest.approx(0.99, abs=1e-9)
    assert doc["adjusted_bcr"] == pytest.approx(1.4 / 1.99, rel=1e-9)
    assert doc["decision"] == "do-not-proceed"


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


# ---------------------------------------------------------------------------
# manifest and data dir override


def test_manifest_round_trip(tmp_path):
    out = tmp_path / "o"
    assert run(["appraise", STYLIZED, "--out", str(out)]) == 0
    doc = read_json(out / "manifest-appraise.json")
    manifest = RunManifest.from_dict(doc)
    assert manifest.to_dict() == doc
    assert manifest.version
    digest = next(iter(manifest.inputs.values()))
    assert len(digest) == 64 and int(digest, 16) >= 0


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

    ref = datasets.load_synthetic_records()
    stats = summarize(ref, "cost", thresholds=(1.4,))
    assert abs(stats.median - 1.27) <= 0.05
    assert abs(stats.share_breaking[1.4] - 0.47) <= 0.04
    schedule = summarize(ref, "schedule")
    assert abs(schedule.median - 1.27) <= 0.07
    assert abs(schedule.mean - 1.44) <= 0.07
