"""Historical project records and reference-class statistics.

A ProjectRecord holds one project's estimated-vs-actual cost and schedule in
constant local currency with the decision year as price base, as a checked
named tuple (it equals, hashes and iterates as a plain tuple of its fields). A
ReferenceClass is a filterable collection of them; summarize() produces the
distribution metrics used to benchmark new projects (mean, median, IQR,
quantiles, overrun shares, threshold-breaking shares).

CSV schema (header required, UTF-8, comma-delimited): ProjectRecord's fields,
  id,name,country,region,project_type,decision_year,est_cost,act_cost,
  est_months,act_months,est_benefit,act_benefit
in that order, with empty strings for the optional benefit fields. Each row
parses in one expression (the text columns stripped; int() and float() skip the
whitespace around a number) and builds its record through the same checks as
the constructor; only a row that fails to parse is walked column by column, to
name its first bad field.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter, itemgetter, truediv
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import Frozen, InputError, checked, checked_fsum, document, finite, sorted_quantile

DEFAULT_QUANTILES = (0.25, 0.50, 0.75, 0.80, 0.90)


class Region(enum.Enum):
    NORTH_AMERICA = "NorthAmerica"
    SOUTH_AMERICA = "SouthAmerica"
    AFRICA = "Africa"
    ASIA = "Asia"
    EUROPE = "Europe"
    OCEANIA = "Oceania"

    def __str__(self) -> str:  # csv.writer writes str() of a non-string field
        return self.value

    # members are singletons and equal only to themselves: hash by identity, in C, where
    # Enum hashes the name in Python (a dict keyed by region does so per lookup)
    __hash__ = object.__hash__


@checked
class ProjectRecord(NamedTuple):
    """One historical project: estimated vs actual cost and schedule.

    Costs are in constant local currency with the decision year as base year;
    schedules are months from decision to full commercial operation. Benefit
    fields are optional (None when the project has no benefit data).

    A record is an immutable tuple of its fields: it equals, hashes and iterates
    as one. Every way of building one (the constructor, _make, _replace, unpickling)
    runs _check.
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

    def _check(self) -> None:  # the module's _check, which _record runs on a parsed row too
        _check(self)


# the largest float: a cost, month count or benefit past it (an infinity, or a whole
# number that no float holds) is out of range; NaN fails every comparison with it
_FLOAT_MAX = sys.float_info.max


def _check(values) -> None:
    """Raise InputError for the first invalid field of a record's 12 values: costs and
    months positive and in the float range, the year in [1900, 2100], benefits, when
    given, in the float range, and last the two ratios finite, so a row with another
    fault keeps that diagnostic."""
    year, est_cost, act_cost, est_months, act_months, est_benefit, act_benefit = values[5:]
    if not 0.0 < est_cost <= _FLOAT_MAX:
        raise InputError(f"est_cost must be a positive number, got {est_cost}")
    if not 0.0 < act_cost <= _FLOAT_MAX:
        raise InputError(f"act_cost must be a positive number, got {act_cost}")
    if not 0.0 < est_months <= _FLOAT_MAX:
        raise InputError(f"est_months must be a positive number, got {est_months}")
    if not 0.0 < act_months <= _FLOAT_MAX:
        raise InputError(f"act_months must be a positive number, got {act_months}")
    if not 1900 <= year <= 2100:
        raise InputError(f"decision_year must be in [1900, 2100], got {year}")
    # half-specified benefit fields are allowed; benefit statistics
    # exclude such records pairwise
    if est_benefit is not None and not -_FLOAT_MAX <= est_benefit <= _FLOAT_MAX:
        raise InputError(f"est_benefit must be a finite number, got {est_benefit}")
    if act_benefit is not None and not -_FLOAT_MAX <= act_benefit <= _FLOAT_MAX:
        raise InputError(f"act_benefit must be a finite number, got {act_benefit}")
    if not act_cost / est_cost < math.inf:  # positive and in range: never NaN
        raise InputError("act_cost / est_cost overflows the float range")
    if not act_months / est_months < math.inf:
        raise InputError("act_months / est_months overflows the float range")


CSV_COLUMNS = ProjectRecord._fields

# the (actual, estimated) columns of each column-ratio metric: its ratio is actual / estimated
_RATIO_COLUMNS = {"cost": (7, 6), "schedule": (9, 8)}


def cost_overrun_ratio(rec: ProjectRecord) -> float:
    """Actual outturn cost as a ratio of estimated cost."""
    actual, estimated = _RATIO_COLUMNS["cost"]
    return rec[actual] / rec[estimated]


def schedule_slippage(rec: ProjectRecord) -> float:
    """Actual implementation months as a ratio of estimated months."""
    actual, estimated = _RATIO_COLUMNS["schedule"]
    return rec[actual] / rec[estimated]


def benefit_ratio(rec: ProjectRecord) -> float | None:
    """Actual over estimated benefit, or None when either side is missing."""
    if rec.est_benefit is None or rec.act_benefit is None:
        return None
    if rec.est_benefit <= 0:
        raise InputError(f"est_benefit must be positive, got {rec.est_benefit}")
    return rec.act_benefit / rec.est_benefit


def _metric_ratios(records: Sequence[ProjectRecord], metric: str) -> list[float | None]:
    """Each record's ratio for a metric name, in record order: cost and schedule by
    column, benefit per record (None where a record has no benefit data)."""
    if metric in _RATIO_COLUMNS:
        actual, estimated = _RATIO_COLUMNS[metric]
        return list(map(truediv, map(itemgetter(actual), records),
                        map(itemgetter(estimated), records)))
    if metric == "benefit":
        return list(map(benefit_ratio, records))
    raise InputError(f"unknown metric {metric!r}; "
                     f"expected one of {sorted([*_RATIO_COLUMNS, 'benefit'])}")


class ReferenceClass(Frozen):
    """An immutable set of comparable historical projects, with distinct ids. It equals,
    hashes, pickles and reprs by its records and label; its len is the record count.

    Its cost and schedule ratio columns are built once, at construction, and every
    ratios, summarize, group_ratios and group_stats call reads them. Benefit ratios are
    computed per call: a record whose est_benefit is not positive raises only then."""

    _fields = ("records", "label")
    __slots__ = (*_fields, "_columns")

    def __init__(self, records: tuple[ProjectRecord, ...], label: str = "") -> None:
        if len(set(map(itemgetter(0), records))) != len(records):
            seen: set[str] = set()  # some id repeats: name the first that does
            for rec in records:
                if rec.id in seen:
                    raise InputError(f"duplicate record id {rec.id!r}")
                seen.add(rec.id)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_columns", {metric: _metric_ratios(records, metric)
                                              for metric in _RATIO_COLUMNS})

    def __len__(self) -> int:
        return len(self.records)

    def ratios(self, metric: str) -> list[float]:
        """Per-record ratios for a metric, as a new list; records without data are
        skipped (only possible for the benefit metric)."""
        column = self._column(metric)
        return column.copy() if metric in self._columns else [r for r in column if r is not None]

    def _column(self, metric: str) -> list[float | None]:
        """Each record's ratio for a metric, in record order: the stored cost or
        schedule column itself, or the benefit ratios from _metric_ratios."""
        columns = self._columns
        return columns[metric] if metric in columns else _metric_ratios(self.records, metric)


def deflate(
    nominal: Sequence[tuple[int, float]],
    index: Sequence[tuple[int, float]],
    base_year: int,
) -> list[tuple[int, float]]:
    """Convert a nominal series to constant base-year prices.

    Each amount is scaled by index(base_year) / index(year), as amount * base / level
    where amount * base is 0 or a normal float, else as amount * (base / level), so a
    product that leaves the normal range on the way does not overflow or lose bits.
    The price index must cover the base year and every year in the series. A NaN or
    infinite amount or level is an InputError; a result past the float range, a
    ComputeError.
    """
    levels = dict(index)
    for year, level in levels.items():
        if not (math.isfinite(level) and level > 0):
            raise InputError(f"price index must be a positive number, got {level} for {year}")
    if base_year not in levels:
        raise InputError(f"price index missing base year {base_year}")
    base = levels[base_year]
    out = []
    for year, amount in nominal:
        if year not in levels:
            raise InputError(f"price index missing year {year}")
        if not math.isfinite(amount):
            raise InputError(f"nominal amount must be a finite number, got {amount} for {year}")
        scaled = amount * base
        normal = amount == 0.0 or sys.float_info.min <= abs(scaled) < math.inf
        out.append((year, finite(f"deflated amount for {year} overflows the float range",
                                 lambda: scaled / levels[year] if normal
                                 else amount * (base / levels[year]))))
    return out


def quantile(values: Sequence[float], ps: Sequence[float]) -> tuple[float, ...]:
    """Type 7 quantiles of a finite sample at any levels ps in [0, 1], from one sorted()
    (see sorted_quantile). A NaN would leave the sort without an order, so a NaN or an
    infinite value is an InputError, as is an empty sample."""
    if len(values) == 0:
        raise InputError("quantile of an empty sample")
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise InputError(f"quantile level must be in [0, 1], got {p}")
    if not all(map(math.isfinite, values)):
        raise InputError("quantile of a sample with a NaN or infinite value")
    return sorted_quantile(sorted(values), ps)


class SummaryStats(NamedTuple):
    """Distribution summary of a reference-class metric."""

    n: int
    mean: float
    median: float
    iqr: float
    quantiles: dict[float, float]
    share_over_1: float
    share_breaking: dict[float, float]

    to_dict = document


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
    """Every figure from one sorted list: the quantiles by position, the shares by bisection."""
    if not all(map(math.isfinite, thresholds)):
        raise InputError(f"thresholds must be finite, got {list(thresholds)}")
    n, s = len(ratios), sorted(ratios)
    # s is sorted already, and quantile re-sorts it in one linear pass: it goes through
    # quantile, not sorted_quantile, as perfbench counts refclass.quantile.calls until it
    # probes sorted_quantile instead (ROADMAP item 1)
    qs = dict(zip(DEFAULT_QUANTILES, quantile(s, DEFAULT_QUANTILES)))  # holds 0.25, 0.5, 0.75
    return SummaryStats(
        n=n,
        mean=checked_fsum(ratios) / n,
        median=qs[0.5],
        iqr=qs[0.75] - qs[0.25],
        quantiles=qs,
        share_over_1=(n - bisect_right(s, 1.0)) / n,
        share_breaking={float(t): (n - bisect_left(s, t)) / n for t in thresholds},
    )


def decade_label(year: int) -> str:
    return f"{year // 10 * 10}s"


# per group key: each record's group, read off one column, and a group's label
_GROUP_KEYS = {
    "region": (lambda records: map(itemgetter(3), records), attrgetter("value")),
    "project_type": (lambda records: map(itemgetter(4), records), lambda kind: kind),
    "decade": (lambda records: [year // 10 for year in map(itemgetter(5), records)],
               lambda decade: decade_label(10 * decade)),
}


def group_ratios(ref: ReferenceClass, key: str, metric: str = "cost") -> dict[str, list[float]]:
    """A metric's ratios per group, in one pass over the records: groups in sorted
    order, records in record order within each, records without data skipped,
    empty groups left out."""
    if key not in _GROUP_KEYS:
        raise InputError(f"unknown group key {key!r}; expected one of {sorted(_GROUP_KEYS)}")
    column, label = _GROUP_KEYS[key]
    groups = defaultdict(list)
    for group, ratio in zip(column(ref.records), ref._column(metric)):
        if ratio is not None:
            groups[group].append(ratio)
    return dict(sorted((label(group), ratios) for group, ratios in groups.items()))


def group_stats(
    ref: ReferenceClass, key: str, metric: str = "cost", thresholds: Sequence[float] = ()
) -> dict[str, SummaryStats]:
    """summarize() applied per group; groups with no usable data are omitted."""
    return {g: _summary(r, thresholds) for g, r in group_ratios(ref, key, metric).items()}


def debt_burden_share(debt_start: float, debt_end: float, project_cost: float) -> float:
    """Project cost as a fraction of the debt-stock increase over its build. A NaN or
    infinite input is an InputError; a figure past the float range, a ComputeError."""
    for label, value in (("debt_start", debt_start), ("debt_end", debt_end),
                         ("project_cost", project_cost)):
        if not math.isfinite(value):
            raise InputError(f"{label} must be a finite number, got {value}")
    increase = finite("debt increase overflows the float range", lambda: debt_end - debt_start)
    if increase <= 0:
        raise InputError(f"debt increase must be positive, got {increase}")
    return finite("debt burden share overflows the float range", lambda: project_cost / increase)


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


class IngestResult(NamedTuple):
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


_REGIONS = {r.value: r for r in Region}

# (parser, message for a value it rejects) per column, in CSV_COLUMNS order: the
# parsers _parse_row applies in one expression, and here one at a time, to diagnose.
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
    """The record in one CSV row, or the first problem with it; fields past the last
    column are ignored. All columns parse in one expression; only a row where that
    raises goes through _parse_columns, which names its first bad field."""
    if len(fields) < len(CSV_COLUMNS):
        return RowError(line, CSV_COLUMNS[len(fields)], "missing column value")
    id_, name, country, region, kind, year, ec, ac, em, am, eb, ab = fields[:12]
    try:  # only text is stripped: int() and float() skip the whitespace around a number
        values = (id_.strip(), name.strip(), country.strip(), _REGIONS[region.strip()],
                  kind.strip(), int(year), float(ec), float(ac), float(em), float(am),
                  float(eb) if eb else None, float(ab) if ab else None)
    except (KeyError, ValueError):
        return _parse_columns(fields, line)
    return _record(values, line)


def _parse_columns(fields: list[str], line: int) -> ProjectRecord | RowError:
    """_parse_row one column at a time: the first column whose parser rejects its
    value is the diagnosed field."""
    values = []
    for name, raw, (parse, message) in zip(CSV_COLUMNS, fields, _COLUMN_PARSERS):
        raw = raw.strip()
        try:
            values.append(parse(raw))
        except ValueError:
            return RowError(line, name, message.format(raw))
    return _record(tuple(values), line)


def _record(values: tuple, line: int) -> ProjectRecord | RowError:
    """The record of a parsed row's values, or its (record) diagnostic."""
    try:
        _check(values)
    except InputError as exc:
        return RowError(line, "(record)", str(exc))
    return tuple.__new__(ProjectRecord, values)


def _ends_quoted(text: str, quoted: bool) -> bool:
    """Whether csv's default dialect, reading text from a row's start or (quoted) inside a
    quoted field, ends inside one: a quote opens a field only at its start; "" in one is a quote."""
    at_start = True
    for c in text:
        if quoted:
            quoted, at_start = c != '"', True
        else:
            quoted, at_start = at_start and c == '"', c in ",\r\n"
    return quoted


def _rows(source):
    """Each row of a source as (line number, csv.reader's fields), numbered by the last line
    read: csv.reader's line_num plus the lines skipped below. A row csv cannot split (a field
    over csv.field_size_limit(), say) comes as (line number, RowError); as csv resumes on the
    next line, a quoted field the row left open is skipped up to the line that closes it, or
    to the end if none does."""
    lines, taken, skipped = iter(source), [], 0  # taken: the lines of the row being read
    reader = csv.reader(taken.append(line) or line for line in lines)
    while True:
        taken.clear()
        try:
            fields = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            error = RowError(reader.line_num + skipped, "(row)", str(exc))
            yield error.row, error
            quoted = _ends_quoted("".join(taken), False)
            while quoted and (line := next(lines, None)) is not None:
                skipped += 1
                quoted = _ends_quoted(line, True)
        else:
            yield reader.line_num + skipped, fields


def read_records_csv(source: str | Path | io.TextIOBase, label: str = "", strict: bool = True) -> IngestResult:
    """Parse a reference-class CSV.

    The header must list CSV_COLUMNS in order, surrounding spaces ignored;
    row fields are then read by position. Strict mode raises InputError on
    the first malformed row; lenient mode skips bad rows and returns them as
    row-numbered diagnostics.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8-sig") as fh:
            try:
                return read_records_csv(fh, label=label or Path(source).stem, strict=strict)
            except UnicodeDecodeError as exc:
                raise InputError(f"records file {source} is not UTF-8 text: {exc}") from None

    rows = _rows(source)
    _, header = next(rows, (0, None))
    if header is None:
        raise InputError("CSV is empty: header row required")
    if isinstance(header, RowError):
        raise InputError(str(header))
    header = tuple(c.strip() for c in header)
    if header != CSV_COLUMNS:
        raise InputError(
            f"bad CSV header: expected {','.join(CSV_COLUMNS)} got {','.join(header)}"
        )

    records: dict[str, ProjectRecord] = {}
    errors: list[RowError] = []
    for line, fields in rows:
        if not fields:  # csv.reader yields [] for a blank line
            continue
        parsed = fields if isinstance(fields, RowError) else _parse_row(fields, line)
        if isinstance(parsed, ProjectRecord):
            if parsed.id not in records:
                records[parsed.id] = parsed
                continue
            parsed = RowError(line, "id", f"duplicate record id {parsed.id!r}")
        if strict:
            raise InputError(str(parsed))
        errors.append(parsed)
    return IngestResult(ReferenceClass(tuple(records.values()), label=label), tuple(errors))


def write_records_csv(ref: ReferenceClass, target: str | Path | io.TextIOBase) -> None:
    """Serialize a reference class back to the canonical CSV schema.
    csv.writer writes floats with repr, None as an empty field and a Region
    as its value, so a read-back round-trips field-exact."""
    if isinstance(target, (str, Path)):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            write_records_csv(ref, fh)
            return
    writer = csv.writer(target)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(ref.records)
