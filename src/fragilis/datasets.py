"""Bundled data assets and their loaders.

Three kinds of assets ship with the package:

  * overrun distributions anchored to the big-dam reference class:
    "big-dam" (cost overrun ratios; anchors at P25/P50/P53/P75/P80/P90 with
    the tail calibrated to the published mean) and "big-dam-schedule"
    (slippage ratios; thinner anchor set, flagged low confidence);
  * a stylized appraisal model with a 1.4 benefit-cost ratio at an 11% real
    discount rate, the textbook big-dam business case;
  * a 245-row synthetic reference-class CSV drawn from those distributions
    with a fixed seed, plus its frozen summary for pipeline regression tests.
    The rows are SYNTHETIC: generated, not historical records.

Set FRAGILIS_DATA_DIR to load same-named files from another directory.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from importlib import resources
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING

from . import _rng
from .cashflow import AppraisalModel, CashFlowStream, load_model, model_to_dict
from .dists import QuantileDistribution, build_quantile_dist, load_dist
from .errors import InputError, load_json

if TYPE_CHECKING:  # annotations only: refclass loads where records are built
    from .refclass import ReferenceClass

BIG_DAM = "big-dam"
BIG_DAM_SCHEDULE = "big-dam-schedule"
STYLIZED_MODEL = "stylized-dam.json"
SYNTHETIC_CSV = "synthetic-big-dams.csv"
SYNTHETIC_SUMMARY = "synthetic-big-dams-summary.json"

_DIST_FILES = {
    BIG_DAM: "big-dam.json",
    BIG_DAM_SCHEDULE: "big-dam-schedule.json",
}

FIXTURE_SEED = 12
(_TAG_COST, _TAG_SLIP, _TAG_EST_COST, _TAG_EST_MONTHS, _TAG_REGION, _TAG_TYPE, _TAG_YEAR,
 _TAG_BEN_EST, _TAG_BEN_ACT) = range(101, 110)


def data_dir() -> Path:
    """Bundled data directory, or the FRAGILIS_DATA_DIR override."""
    override = os.environ.get("FRAGILIS_DATA_DIR")
    if override:
        path = Path(override)
        if not path.is_dir():
            raise InputError(f"FRAGILIS_DATA_DIR is not a directory: {override}")
        return path
    return Path(resources.files("fragilis") / "data")


def asset_path(filename: str) -> Path:
    path = data_dir() / filename
    if not path.is_file():
        raise InputError(f"bundled asset not found: {path}")
    return path


def dist_path(name_or_path: str) -> Path:
    """File behind a distribution argument: a bundled name first, resolved
    under data_dir() so FRAGILIS_DATA_DIR applies, then a file path."""
    if name_or_path in _DIST_FILES:
        return asset_path(_DIST_FILES[name_or_path])
    if Path(name_or_path).is_file():
        return Path(name_or_path)
    raise InputError(
        f"{name_or_path!r} is neither a bundled distribution name "
        f"({sorted(_DIST_FILES)}) nor an existing file"
    )


def resolve_dist(name_or_path: str) -> QuantileDistribution:
    """CLI-facing loader for the file dist_path names."""
    return load_dist(dist_path(name_or_path))


def load_stylized_model() -> AppraisalModel:
    return load_model(asset_path(STYLIZED_MODEL))


def load_synthetic_summary() -> dict:
    return load_json(asset_path(SYNTHETIC_SUMMARY), "summary file")


# ---------------------------------------------------------------------------
# Asset construction. Everything below is deterministic given the seed; the
# shipped files are produced by `python -m fragilis.datasets regenerate`.

STYLIZED_BCR = 1.4
STYLIZED_RATE = 0.11
STYLIZED_LIFE_YEARS = 30
STYLIZED_CAPEX = 1000.0

BIG_DAM_ANCHORS = ((0.25, 1.00), (0.50, 1.27), (0.53, 1.40), (0.75, 1.86), (0.80, 1.99),
                   (0.90, 3.07))
BIG_DAM_FLOOR = 0.4
BIG_DAM_MEAN = 1.96

SCHEDULE_ANCHORS = ((0.20, 1.00), (0.50, 1.27))
SCHEDULE_FLOOR = 0.7
SCHEDULE_MEAN = 1.44


def build_stylized_model() -> AppraisalModel:
    """Upfront capex, level benefits over a 30-year life, zero O&M, BCR 1.4."""
    annuity = (1.0 - (1.0 + STYLIZED_RATE) ** -STYLIZED_LIFE_YEARS) / STYLIZED_RATE
    amount = STYLIZED_BCR * STYLIZED_CAPEX / annuity
    return AppraisalModel(
        capex=CashFlowStream(((0.0, STYLIZED_CAPEX),)),
        benefits=CashFlowStream.of(
            (float(t), amount) for t in range(1, STYLIZED_LIFE_YEARS + 1)
        ),
        discount_rate=STYLIZED_RATE,
        base_year=1981,
    )


_REGION_POOL = (  # Region values; refclass loads only where records are built
    ("Asia", ("Pakistan", "India", "China", "Turkey")),
    ("SouthAmerica", ("Colombia", "Brazil", "Argentina")),
    ("Africa", ("Zambia", "Zimbabwe", "Nigeria", "Egypt")),
    ("NorthAmerica", ("United States", "Canada", "Mexico")),
    ("Europe", ("Italy", "Spain", "Norway")),
    ("Oceania", ("Australia", "New Zealand")),
)
_REGION_WEIGHTS = (0.34, 0.22, 0.18, 0.14, 0.09, 0.03)
_TYPE_POOL = ("hydroelectric", "irrigation", "multipurpose", "water_supply", "flood_control")
_TYPE_WEIGHTS = (0.45, 0.20, 0.18, 0.10, 0.07)


def _pick(u: float, weights: tuple[float, ...]) -> int:
    """The first index whose running weight total exceeds u, or the last index."""
    return min(bisect_right(list(accumulate(weights)), u), len(weights) - 1)


def build_synthetic_records(seed: int = FIXTURE_SEED, n: int = 245) -> ReferenceClass:
    """Deterministic synthetic reference class drawn from the bundled
    distributions. Every field derives from counter-based uniforms, so the
    fixture is reproducible bit-for-bit on any platform."""
    from .refclass import ProjectRecord, ReferenceClass, Region

    cost_dist = build_quantile_dist(BIG_DAM_ANCHORS, BIG_DAM_FLOOR, mean_target=BIG_DAM_MEAN)
    slip_dist = build_quantile_dist(
        SCHEDULE_ANCHORS, SCHEDULE_FLOOR, mean_target=SCHEDULE_MEAN
    )

    records = []
    for i in range(n):
        u = lambda tag: _rng.uniform_at(seed, tag, i)  # noqa: E731
        ratio = cost_dist.quantile(u(_TAG_COST))
        slip = slip_dist.quantile(u(_TAG_SLIP))
        est_cost = round(40.0 + 2400.0 * u(_TAG_EST_COST) ** 2, 1)
        act_cost = round(est_cost * ratio, 1)
        est_months = float(int(36 + 120 * u(_TAG_EST_MONTHS)))
        act_months = float(max(1, round(est_months * slip)))
        region_idx = _pick(u(_TAG_REGION), _REGION_WEIGHTS)
        region, countries = _REGION_POOL[region_idx]
        type_idx = _pick(u(_TAG_TYPE), _TYPE_WEIGHTS)
        year = 1934 + int(u(_TAG_YEAR) * 74)
        if _TYPE_POOL[type_idx] == "hydroelectric":
            est_benefit = round(est_cost * (1.2 + 0.8 * u(_TAG_BEN_EST)), 1)
            act_benefit = round(est_benefit * (0.70 + 0.45 * u(_TAG_BEN_ACT)), 1)
        else:
            est_benefit = act_benefit = None
        records.append(ProjectRecord(  # the fields in CSV_COLUMNS order
            f"SYN-{i + 1:03d}", f"Synthetic Dam {i + 1:03d}", countries[i % len(countries)],
            Region(region), _TYPE_POOL[type_idx], year, est_cost, act_cost, est_months,
            act_months, est_benefit, act_benefit))
    return ReferenceClass(tuple(records), label="synthetic-big-dams")


def _dist_asset_doc(name: str, anchors, floor_x: float, mean: float, notes: str) -> dict:
    return {
        "name": name,
        "version": 1,
        "notes": notes,
        "anchors": [{"p": p, "x": x} for p, x in anchors],
        "floor_x": floor_x,
        "tail": {"calibrate_mean": mean},
    }


def regenerate(target: Path | None = None) -> None:
    """Write all bundled assets. Used at build time and by tests that verify
    the shipped files match their constructors."""
    from .refclass import summarize, write_records_csv

    out = target or Path(resources.files("fragilis") / "data")
    out.mkdir(parents=True, exist_ok=True)

    model_doc = model_to_dict(build_stylized_model())
    model_doc["notes"] = (
        "Stylized big-dam business case: BCR 1.4 at an 11% real rate, "
        "upfront capex, level benefits over 30 years, no O&M."
    )
    docs = {
        _DIST_FILES[BIG_DAM]: _dist_asset_doc(
            BIG_DAM, BIG_DAM_ANCHORS, BIG_DAM_FLOOR, BIG_DAM_MEAN,
            "Cost overrun ratios for the big-dam reference class. Quartile anchors "
            "derived from the three-out-of-four overrun share and the published IQR; "
            "P50/P53/P80/P90 and the mean are published values. Floor 0.4 is a "
            "modeling choice for the underrun mass.",
        ),
        _DIST_FILES[BIG_DAM_SCHEDULE]: _dist_asset_doc(
            BIG_DAM_SCHEDULE, SCHEDULE_ANCHORS, SCHEDULE_FLOOR, SCHEDULE_MEAN,
            "Schedule slippage ratios for the big-dam reference class. CONFIDENCE "
            "LOW: only the overrun share, median, and mean pin this distribution; "
            "the floor and tail shape are modeling choices.",
        ),
        STYLIZED_MODEL: model_doc,
    }
    for name, doc in docs.items():
        (out / name).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    ref = build_synthetic_records()
    write_records_csv(ref, out / SYNTHETIC_CSV)

    summary = {
        "label": ref.label,
        "seed": FIXTURE_SEED,
        "n": len(ref),
        "cost": summarize(ref, "cost", thresholds=(1.4,)).to_dict(),
        "schedule": summarize(ref, "schedule", thresholds=(1.4,)).to_dict(),
    }
    (out / SYNTHETIC_SUMMARY).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m fragilis.datasets")
    parser.add_argument("command", choices=["regenerate"])
    parser.add_argument("--target", type=Path, default=None)
    regenerate(parser.parse_args(argv).target)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
