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
        for label, value in (("est_benefit", self.est_benefit), ("act_benefit", self.act_benefit)):
            if value is not None and not math.isfinite(value):
                raise InputError(f"{label} must be a finite number, got {value}")


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


def _metric(metric: str):
    """The per-record ratio function of a metric name."""
    if metric not in _METRICS:
        raise InputError(f"unknown metric {metric!r}; expected one of {sorted(_METRICS)}")
    return _METRICS[metric]


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
        return [r for r in map(_metric(metric), self.records) if r is not None]


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


def quantile(values: Sequence[float], ps: Sequence[float]) -> tuple[float, ...]:
    """Type 7 quantiles at any levels ps in [0, 1], from one sort (see sorted_quantile)."""
    if len(values) == 0:
        raise InputError("quantile of an empty sample")
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise InputError(f"quantile level must be in [0, 1], got {p}")
    return sorted_quantile(np.sort(np.asarray(values, dtype=float)), ps)


def sorted_quantile(s: np.ndarray, ps: Sequence[float]) -> tuple[float, ...]:
    """Type 7 quantiles of the sorted, non-empty array s at checked levels ps: with
    h = (n-1)p, each is s[floor(h)] + (h - floor(h)) * (s[floor(h)+1] - s[floor(h)]),
    written out so sort-based brute-force oracles can match bit for bit."""
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
    ref: ReferenceClass, metric: str = "cost", thresholds: Sequence[float] = ()
) -> SummaryStats:
    """Summary statistics of a metric over a reference class (quantiles at DEFAULT_QUANTILES).

    share_over_1 counts ratios strictly above 1 ("suffered an overrun");
    share_breaking counts ratios at or above each threshold ("a ratio of tau
    or greater breaches the threshold").
    """
    ratios = ref.ratios(metric)
    if not ratios:
        raise InputError(f"no records with {metric} data to summarize")
    return _summary(ratios, thresholds)


def _summary(ratios: list[float], thresholds: Sequence[float]) -> SummaryStats:
    n = len(ratios)
    arr = np.asarray(ratios, dtype=float)
    median, q25, q75, *qs = quantile(arr, (0.5, 0.25, 0.75, *DEFAULT_QUANTILES))
    return SummaryStats(
        n=n,
        mean=float(math.fsum(ratios) / n),
        median=median,
        iqr=q75 - q25,
        quantiles=dict(zip(DEFAULT_QUANTILES, qs)),
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


def group_ratios(ref: ReferenceClass, key: str, metric: str = "cost") -> dict[str, list[float]]:
    """A metric's ratios per group, in one pass over the records: groups in
    sorted order, records without data skipped, empty groups left out."""
    if key not in _GROUP_KEYS:
        raise InputError(f"unknown group key {key!r}; expected one of {sorted(_GROUP_KEYS)}")
    key_fn, ratio_fn = _GROUP_KEYS[key], _metric(metric)
    groups: dict[str, list[float]] = {}
    for rec in ref.records:
        ratio = ratio_fn(rec)
        if ratio is not None:
            groups.setdefault(key_fn(rec), []).append(ratio)
    return {g: groups[g] for g in sorted(groups)}


def group_stats(
    ref: ReferenceClass, key: str, metric: str = "cost", thresholds: Sequence[float] = ()
) -> dict[str, SummaryStats]:
    """summarize() applied per group; groups with no usable data are omitted."""
    return {g: _summary(r, thresholds) for g, r in group_ratios(ref, key, metric).items()}


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


def _optional_float(raw: str) -> float | None:
    return float(raw) if raw else None


# (parser, message for a value it rejects) per column, in CSV_COLUMNS order;
# ProjectRecord(*values) relies on that order matching its fields.
_NOT_A_NUMBER = "not a number: {!r}"
_COLUMN_PARSERS = (
    *[(str, "")] * 3,
    (Region, "unknown region {!r}; expected one of: " + ", ".join(r.value for r in Region)),
    (str, ""),
    (int, "not an integer year: {!r}"),
    *[(float, _NOT_A_NUMBER)] * 4,
    *[(_optional_float, _NOT_A_NUMBER)] * 2,
)


def _parse_row(fields: list[str], line: int) -> ProjectRecord | RowError:
    """The record in one CSV row, or the first problem with it. Columns are
    checked in order; fields past the last column are ignored."""
    if len(fields) < len(CSV_COLUMNS):
        return RowError(line, CSV_COLUMNS[len(fields)], "missing column value")
    values = []
    for name, raw, (parse, message) in zip(CSV_COLUMNS, fields, _COLUMN_PARSERS):
        raw = raw.strip()
        try:
            values.append(parse(raw))
        except ValueError:
            return RowError(line, name, message.format(raw))
    try:
        return ProjectRecord(*values)
    except InputError as exc:
        return RowError(line, "(record)", str(exc))


def read_records_csv(source: str | Path | io.TextIOBase, label: str = "", strict: bool = True) -> IngestResult:
    """Parse a reference-class CSV.

    The header must list CSV_COLUMNS in order, surrounding spaces ignored;
    row fields are then read by position. Strict mode raises InputError on
    the first malformed row; lenient mode skips bad rows and returns them as
    row-numbered diagnostics.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            try:
                return read_records_csv(fh, label=label or Path(source).stem, strict=strict)
            except UnicodeDecodeError as exc:
                raise InputError(f"records file {source} is not UTF-8 text: {exc}") from None

    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise InputError("CSV is empty: header row required")
    header = tuple(c.strip() for c in header)
    if header != CSV_COLUMNS:
        raise InputError(
            f"bad CSV header: expected {','.join(CSV_COLUMNS)} got {','.join(header)}"
        )

    records: dict[str, ProjectRecord] = {}
    errors: list[RowError] = []
    for fields in reader:
        if not fields:  # csv.reader yields [] for a blank line
            continue
        # line_num tracks physical lines, so multi-line quoted fields still
        # produce accurate diagnostics
        parsed = _parse_row(fields, reader.line_num)
        if isinstance(parsed, ProjectRecord):
            if parsed.id not in records:
                records[parsed.id] = parsed
                continue
            parsed = RowError(reader.line_num, "id", f"duplicate record id {parsed.id!r}")
        if strict:
            raise InputError(str(parsed))
        errors.append(parsed)
    return IngestResult(ReferenceClass(tuple(records.values()), label=label), tuple(errors))


def write_records_csv(ref: ReferenceClass, target: str | Path | io.TextIOBase) -> None:
    """Serialize a reference class back to the canonical CSV schema.
    csv.writer writes floats with repr and None as an empty field, so a
    read-back round-trips field-exact."""
    if isinstance(target, (str, Path)):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            write_records_csv(ref, fh)
            return
    writer = csv.writer(target)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(
        (r.id, r.name, r.country, r.region.value, r.project_type, r.decision_year,
         r.est_cost, r.act_cost, r.est_months, r.act_months, r.est_benefit, r.act_benefit)
        for r in ref.records
    )
