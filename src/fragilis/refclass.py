"""Historical project records and reference-class statistics.

A ProjectRecord holds one project's estimated-vs-actual cost and schedule in
constant local currency with the decision year as price base. A
ReferenceClass is a filterable collection of them; summarize() produces the
distribution metrics used to benchmark new projects (mean, median, IQR,
quantiles, overrun shares, threshold-breaking shares).

CSV schema (header required, UTF-8, comma-delimited):
  id,name,country,region,project_type,decision_year,est_cost,act_cost,
  est_months,act_months,est_benefit,act_benefit
with empty strings for the optional benefit fields.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError

CSV_COLUMNS = (
    "id",
    "name",
    "country",
    "region",
    "project_type",
    "decision_year",
    "est_cost",
    "act_cost",
    "est_months",
    "act_months",
    "est_benefit",
    "act_benefit",
)

DEFAULT_QUANTILES = (0.25, 0.50, 0.75, 0.80, 0.90)


class Region(enum.Enum):
    NORTH_AMERICA = "NorthAmerica"
    SOUTH_AMERICA = "SouthAmerica"
    AFRICA = "Africa"
    ASIA = "Asia"
    EUROPE = "Europe"
    OCEANIA = "Oceania"


@dataclass(frozen=True, slots=True)
class ProjectRecord:
    """One historical project: estimated vs actual cost and schedule.

    Costs are in constant local currency with the decision year as base year;
    schedules are months from decision to full commercial operation. Benefit
    fields are optional (None when the project has no benefit data).
    """

    id: str
    name: str
    country: str
    region: Region
    project_type: str
    decision_year: int
    est_cost: float
    act_cost: float
    est_months: float
    act_months: float
    est_benefit: float | None = None
    act_benefit: float | None = None

    def __post_init__(self) -> None:
        for label, value in (
            ("est_cost", self.est_cost),
            ("act_cost", self.act_cost),
            ("est_months", self.est_months),
            ("act_months", self.act_months),
        ):
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"{label} must be a positive number, got {value}")
        if not 1900 <= self.decision_year <= 2100:
            raise InputError(f"decision_year must be in [1900, 2100], got {self.decision_year}")
        # half-specified benefit fields are allowed; benefit statistics
        # exclude such records pairwise


def cost_overrun_ratio(rec: ProjectRecord) -> float:
    """Actual outturn cost as a ratio of estimated cost."""
    return rec.act_cost / rec.est_cost


def schedule_slippage(rec: ProjectRecord) -> float:
    """Actual implementation months as a ratio of estimated months."""
    return rec.act_months / rec.est_months


def benefit_ratio(rec: ProjectRecord) -> float | None:
    """Actual over estimated benefit, or None when either side is missing."""
    if rec.est_benefit is None or rec.act_benefit is None:
        return None
    if rec.est_benefit <= 0:
        raise InputError(f"est_benefit must be positive, got {rec.est_benefit}")
    return rec.act_benefit / rec.est_benefit


_METRICS = {
    "cost": cost_overrun_ratio,
    "schedule": schedule_slippage,
    "benefit": benefit_ratio,
}


@dataclass(frozen=True, slots=True)
class ReferenceClass:
    """An immutable set of comparable historical projects."""

    records: tuple[ProjectRecord, ...]
    label: str = ""

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for rec in self.records:
            if rec.id in seen:
                raise InputError(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)

    def ratios(self, metric: str) -> list[float]:
        """Per-record ratios for a metric; records without data are skipped
        (only possible for the benefit metric)."""
        if metric not in _METRICS:
            raise InputError(f"unknown metric {metric!r}; expected one of {sorted(_METRICS)}")
        fn = _METRICS[metric]
        return [r for r in map(fn, self.records) if r is not None]

    def filtered(self, predicate) -> "ReferenceClass":
        return ReferenceClass(tuple(r for r in self.records if predicate(r)), self.label)


def deflate(
    nominal: Sequence[tuple[int, float]],
    index: Sequence[tuple[int, float]],
    base_year: int,
) -> list[tuple[int, float]]:
    """Convert a nominal series to constant base-year prices.

    Each amount is scaled by index(base_year) / index(year). The price index
    must cover the base year and every year in the series.
    """
    levels = dict(index)
    for year, level in levels.items():
        if not level > 0:
            raise InputError(f"price index must be positive, got {level} for {year}")
    if base_year not in levels:
        raise InputError(f"price index missing base year {base_year}")
    out = []
    for year, amount in nominal:
        if year not in levels:
            raise InputError(f"price index missing year {year}")
        out.append((year, amount * levels[base_year] / levels[year]))
    return out


def check_levels(ps: Sequence[float]) -> None:
    """Raise InputError unless every quantile level lies in [0, 1]."""
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise InputError(f"quantile level must be in [0, 1], got {p}")


def quantile(values: Sequence[float], ps: Sequence[float]) -> tuple[float, ...]:
    """Linear-interpolation (type 7) quantiles at each level in ps, from one
    sort: with s sorted and h = (n-1)p, each is
    s[floor(h)] + (h - floor(h)) * (s[floor(h)+1] - s[floor(h)]). Written out
    directly so sort-based brute-force oracles can match bit for bit."""
    if len(values) == 0:
        raise InputError("quantile of an empty sample")
    check_levels(ps)
    s = np.sort(np.asarray(values, dtype=float))
    n = len(s)
    if n == 1:
        return tuple(float(s[0]) for _ in ps)
    out = []
    for p in ps:
        h = (n - 1) * p
        lo = min(int(math.floor(h)), n - 2)
        a, b = float(s[lo]), float(s[lo + 1])
        out.append(float(a + (h - lo) * (b - a)))
    return tuple(out)


@dataclass(frozen=True, slots=True)
class SummaryStats:
    """Distribution summary of a reference-class metric."""

    n: int
    mean: float
    median: float
    iqr: float
    quantiles: dict[float, float]
    share_over_1: float
    share_breaking: dict[float, float]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "median": self.median,
            "iqr": self.iqr,
            "quantiles": {str(p): x for p, x in self.quantiles.items()},
            "share_over_1": self.share_over_1,
            "share_breaking": {str(t): s for t, s in self.share_breaking.items()},
        }


def summarize(
    ref: ReferenceClass,
    metric: str = "cost",
    thresholds: Sequence[float] = (),
    quantile_ps: Sequence[float] = DEFAULT_QUANTILES,
) -> SummaryStats:
    """Summary statistics of a metric over a reference class.

    share_over_1 counts ratios strictly above 1 ("suffered an overrun");
    share_breaking counts ratios at or above each threshold ("a ratio of tau
    or greater breaches the threshold").
    """
    ratios = ref.ratios(metric)
    n = len(ratios)
    if n == 0:
        raise InputError(f"no records with {metric} data to summarize")
    arr = np.asarray(ratios, dtype=float)
    median, q25, q75, *qs = quantile(arr, (0.5, 0.25, 0.75, *quantile_ps))
    return SummaryStats(
        n=n,
        mean=float(math.fsum(ratios) / n),
        median=median,
        iqr=q75 - q25,
        quantiles=dict(zip(map(float, quantile_ps), qs)),
        share_over_1=float(np.count_nonzero(arr > 1.0)) / n,
        share_breaking={float(t): float(np.count_nonzero(arr >= t)) / n for t in thresholds},
    )


def decade_label(year: int) -> str:
    return f"{year // 10 * 10}s"


_GROUP_KEYS = {
    "region": lambda r: r.region.value,
    "project_type": lambda r: r.project_type,
    "decade": lambda r: decade_label(r.decision_year),
}


def group_stats(
    ref: ReferenceClass,
    key: str,
    metric: str = "cost",
    thresholds: Sequence[float] = (),
    quantile_ps: Sequence[float] = DEFAULT_QUANTILES,
) -> dict[str, SummaryStats]:
    """summarize() applied per group; groups with no usable data are omitted."""
    if key not in _GROUP_KEYS:
        raise InputError(f"unknown group key {key!r}; expected one of {sorted(_GROUP_KEYS)}")
    key_fn = _GROUP_KEYS[key]
    groups: dict[str, list[ProjectRecord]] = {}
    for rec in ref.records:
        groups.setdefault(key_fn(rec), []).append(rec)
    out: dict[str, SummaryStats] = {}
    for gkey in sorted(groups):
        sub = ReferenceClass(tuple(groups[gkey]), label=f"{ref.label}/{gkey}")
        if sub.ratios(metric):
            out[gkey] = summarize(sub, metric, thresholds, quantile_ps)
    return out


def debt_burden_share(debt_start: float, debt_end: float, project_cost: float) -> float:
    """Project cost as a fraction of the debt-stock increase over its build."""
    increase = debt_end - debt_start
    if increase <= 0:
        raise InputError(f"debt increase must be positive, got {increase}")
    return project_cost / increase


# ---------------------------------------------------------------------------
# CSV ingestion / serialization


@dataclass(frozen=True, slots=True)
class RowError:
    """Diagnostic for one rejected CSV row."""

    row: int  # 1-based line number including the header
    field: str
    message: str

    def __str__(self) -> str:
        return f"row {self.row}, field {self.field!r}: {self.message}"


@dataclass(frozen=True, slots=True)
class IngestResult:
    reference_class: ReferenceClass
    errors: tuple[RowError, ...]

    @property
    def n_accepted(self) -> int:
        return len(self.reference_class.records)

    @property
    def n_skipped(self) -> int:
        return len(self.errors)


def _parse_row(row: dict[str, str], line: int) -> ProjectRecord:
    def fail(fieldname: str, message: str):
        raise _RowParseError(RowError(line, fieldname, message))

    missing = [c for c in CSV_COLUMNS if row.get(c) is None]
    if missing:
        fail(missing[0], "missing column value")

    def req_float(fieldname: str) -> float:
        raw = row[fieldname].strip()
        try:
            return float(raw)
        except ValueError:
            fail(fieldname, f"not a number: {raw!r}")

    def opt_float(fieldname: str) -> float | None:
        raw = row[fieldname].strip()
        if raw == "":
            return None
        try:
            return float(raw)
        except ValueError:
            fail(fieldname, f"not a number: {raw!r}")

    raw_region = row["region"].strip()
    try:
        region = Region(raw_region)
    except ValueError:
        allowed = ", ".join(r.value for r in Region)
        fail("region", f"unknown region {raw_region!r}; expected one of: {allowed}")

    raw_year = row["decision_year"].strip()
    try:
        year = int(raw_year)
    except ValueError:
        fail("decision_year", f"not an integer year: {raw_year!r}")

    try:
        return ProjectRecord(
            id=row["id"].strip(),
            name=row["name"].strip(),
            country=row["country"].strip(),
            region=region,
            project_type=row["project_type"].strip(),
            decision_year=year,
            est_cost=req_float("est_cost"),
            act_cost=req_float("act_cost"),
            est_months=req_float("est_months"),
            act_months=req_float("act_months"),
            est_benefit=opt_float("est_benefit"),
            act_benefit=opt_float("act_benefit"),
        )
    except InputError as exc:
        fail("(record)", str(exc))


class _RowParseError(Exception):
    def __init__(self, error: RowError):
        self.error = error


def read_records_csv(source: str | Path | io.TextIOBase, label: str = "", strict: bool = True) -> IngestResult:
    """Parse a reference-class CSV.

    Strict mode raises InputError on the first malformed row; lenient mode
    skips bad rows and returns them as row-numbered diagnostics.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            return read_records_csv(fh, label=label or Path(source).stem, strict=strict)

    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise InputError("CSV is empty: header row required")
    header = tuple(c.strip() for c in reader.fieldnames)
    if header != CSV_COLUMNS:
        raise InputError(
            f"bad CSV header: expected {','.join(CSV_COLUMNS)} got {','.join(header)}"
        )

    records: dict[str, ProjectRecord] = {}
    errors: list[RowError] = []
    for row in reader:
        # line_num tracks physical lines, so multi-line quoted fields still
        # produce accurate diagnostics
        try:
            rec = _parse_row(row, reader.line_num)
            if rec.id in records:
                raise _RowParseError(
                    RowError(reader.line_num, "id", f"duplicate record id {rec.id!r}")
                )
            records[rec.id] = rec
        except _RowParseError as exc:
            if strict:
                raise InputError(str(exc.error)) from None
            errors.append(exc.error)
    return IngestResult(ReferenceClass(tuple(records.values()), label=label), tuple(errors))


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return repr(value)


def write_records_csv(ref: ReferenceClass, target: str | Path | io.TextIOBase) -> None:
    """Serialize a reference class back to the canonical CSV schema. Floats
    are written with repr so a read-back round-trips field-exact."""
    if isinstance(target, (str, Path)):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            write_records_csv(ref, fh)
            return
    writer = csv.writer(target)
    writer.writerow(CSV_COLUMNS)
    for r in ref.records:
        writer.writerow(
            [
                r.id,
                r.name,
                r.country,
                r.region.value,
                r.project_type,
                r.decision_year,
                _fmt(r.est_cost),
                _fmt(r.act_cost),
                _fmt(r.est_months),
                _fmt(r.act_months),
                _fmt(r.est_benefit),
                _fmt(r.act_benefit),
            ]
        )
