import io
import math

import numpy as np
import pytest

from fragilis.errors import InputError
from fragilis.refclass import (
    ProjectRecord,
    ReferenceClass,
    Region,
    cost_overrun_ratio,
    debt_burden_share,
    decade_label,
    deflate,
    group_ratios,
    group_stats,
    quantile,
    read_records_csv,
    schedule_slippage,
    summarize,
    write_records_csv,
)


def make_record(i, *, est_cost=100.0, act_cost=150.0, est_months=60.0, act_months=80.0,
                region=Region.ASIA, project_type="hydroelectric", year=1975,
                est_benefit=None, act_benefit=None):
    return ProjectRecord(
        id=f"P{i:03d}",
        name=f"Project {i}",
        country="Testland",
        region=region,
        project_type=project_type,
        decision_year=year,
        est_cost=est_cost,
        act_cost=act_cost,
        est_months=est_months,
        act_months=act_months,
        est_benefit=est_benefit,
        act_benefit=act_benefit,
    )


def class_from_cost_ratios(ratios, **kwargs):
    return ReferenceClass(
        tuple(
            make_record(i, est_cost=100.0, act_cost=100.0 * r, **kwargs)
            for i, r in enumerate(ratios)
        )
    )


# ---------------------------------------------------------------------------
# ratios


def test_cost_overrun_ratio_doubling():
    assert cost_overrun_ratio(make_record(1, est_cost=100, act_cost=196)) == 1.96


def test_cost_overrun_ratio_on_budget():
    assert cost_overrun_ratio(make_record(1, est_cost=80.8, act_cost=80.8)) == 1.0


def test_schedule_slippage_values():
    assert schedule_slippage(make_record(1, est_months=60, act_months=86.4)) == pytest.approx(1.44)
    assert schedule_slippage(make_record(1, est_months=100, act_months=127)) == 1.27
    assert schedule_slippage(make_record(1, est_months=60, act_months=60)) == 1.0


def test_record_validation():
    with pytest.raises(InputError):
        make_record(1, est_cost=0.0)
    with pytest.raises(InputError):
        make_record(1, act_months=-3.0)
    with pytest.raises(InputError):
        make_record(1, year=1850)


def test_duplicate_ids_rejected():
    rec = make_record(1)
    with pytest.raises(InputError):
        ReferenceClass((rec, rec))


# ---------------------------------------------------------------------------
# deflate


def test_deflate_constant_index():
    nominal = [(2000, 100.0), (2001, 110.0)]
    index = [(2000, 87.3), (2001, 87.3)]
    assert deflate(nominal, index, 2000) == nominal


def test_deflate_doubling_index():
    out = deflate([(2001, 100.0)], [(2000, 1.0), (2001, 2.0)], 2000)
    assert out == [(2001, 50.0)]


def test_deflate_three_year_hand_oracle():
    # hand computation: amount * index(base) / index(year)
    nominal = [(1970, 120.0), (1971, 150.0), (1972, 90.0)]
    index = [(1970, 40.0), (1971, 44.0), (1972, 50.0)]
    out = deflate(nominal, index, 1971)
    assert out[0][1] == pytest.approx(120.0 * 44.0 / 40.0, rel=1e-15)
    assert out[1][1] == pytest.approx(150.0, rel=1e-15)
    assert out[2][1] == pytest.approx(90.0 * 44.0 / 50.0, rel=1e-15)


def test_deflate_missing_year_error():
    with pytest.raises(InputError, match="1972"):
        deflate([(1972, 10.0)], [(1970, 1.0)], 1970)
    with pytest.raises(InputError, match="base year"):
        deflate([(1970, 10.0)], [(1970, 1.0)], 1969)


def test_deflate_nonpositive_index_error():
    with pytest.raises(InputError):
        deflate([(1970, 10.0)], [(1970, 0.0)], 1970)


# ---------------------------------------------------------------------------
# summarize


def test_summarize_four_ratio_example():
    ref = class_from_cost_ratios([0.9, 1.1, 1.5, 2.0])
    stats = summarize(ref, "cost", thresholds=(1.4,))
    assert stats.share_over_1 == 0.75
    assert stats.share_breaking[1.4] == 0.5
    assert stats.median == pytest.approx(1.3, rel=1e-15)
    assert stats.n == 4


def test_summarize_single_record():
    ref = class_from_cost_ratios([1.2])
    stats = summarize(ref, "cost")
    assert stats.mean == stats.median == pytest.approx(1.2, rel=1e-15)
    assert stats.iqr == 0.0


def test_summarize_empty_class_error():
    with pytest.raises(InputError):
        summarize(ReferenceClass(()), "cost")


def test_summarize_permutation_invariant():
    rng = np.random.default_rng(2)
    ratios = list(rng.uniform(0.5, 3.0, size=37))
    a = summarize(class_from_cost_ratios(ratios), "cost", thresholds=(1.2, 1.4))
    rng.shuffle(ratios)
    b = summarize(class_from_cost_ratios(ratios), "cost", thresholds=(1.2, 1.4))
    assert a == b


def test_share_breaking_monotone_and_boundary():
    rng = np.random.default_rng(9)
    ratios = list(rng.uniform(0.4, 3.5, size=60)) + [1.0, 1.4]
    ref = class_from_cost_ratios(ratios)
    taus = [0.8, 1.0, 1.2, 1.4, 2.0, 3.0]
    stats = summarize(ref, "cost", thresholds=taus)
    shares = [stats.share_breaking[t] for t in taus]
    assert all(a >= b for a, b in zip(shares, shares[1:]))
    exact = [cost_overrun_ratio(r) for r in ref.records]
    assert stats.share_breaking[1.0] == sum(1 for r in exact if r >= 1.0) / len(exact)
    assert stats.share_breaking[1.4] == sum(1 for r in exact if r >= 1.4) / len(exact)


def _quantile_oracle(values, p):
    s = sorted(values)
    n = len(s)
    if n == 1:
        return s[0]
    h = (n - 1) * p
    lo = min(int(math.floor(h)), n - 2)
    return s[lo] + (h - lo) * (s[lo + 1] - s[lo])


def test_quantile_matches_brute_force_exactly():
    rng = np.random.default_rng(4)
    for n in range(1, 51):
        values = list(rng.uniform(0.3, 4.0, size=n))
        for p in (0.0, 0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 0.97, 1.0):
            assert quantile(values, (p,))[0] == _quantile_oracle(values, p)


def test_quantile_rejects_levels_outside_unit_interval():
    with pytest.raises(InputError, match="quantile level must be in"):
        quantile([1.0, 2.0], (0.5, 1.5))


def test_quantile_close_to_numpy():
    rng = np.random.default_rng(14)
    values = list(rng.uniform(0.3, 4.0, size=33))
    for p in (0.1, 0.5, 0.77):
        assert quantile(values, (p,))[0] == pytest.approx(
            float(np.quantile(values, p)), rel=1e-14
        )


def test_summarize_matches_brute_force():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 7, 20, 50):
        ref = class_from_cost_ratios(list(rng.uniform(0.4, 3.0, size=n)))
        ratios = [cost_overrun_ratio(r) for r in ref.records]  # same data summarize sees
        stats = summarize(ref, "cost", thresholds=(1.4,))
        assert stats.mean == math.fsum(ratios) / n
        assert stats.median == _quantile_oracle(ratios, 0.5)
        assert stats.iqr == _quantile_oracle(ratios, 0.75) - _quantile_oracle(ratios, 0.25)
        for p, value in stats.quantiles.items():
            assert value == _quantile_oracle(ratios, p)


# ---------------------------------------------------------------------------
# grouping


def test_group_stats_two_regions_exact_means():
    na = [1.05, 1.11, 1.17]
    asia = [1.8, 2.04, 2.28]
    records = [
        make_record(i, act_cost=100.0 * r, region=Region.NORTH_AMERICA) for i, r in enumerate(na)
    ] + [
        make_record(100 + i, act_cost=100.0 * r, region=Region.ASIA)
        for i, r in enumerate(asia)
    ]
    ref = ReferenceClass(tuple(records))
    groups = group_stats(ref, "region")
    assert groups["NorthAmerica"].mean == pytest.approx(math.fsum(na) / 3, rel=1e-15)
    assert groups["Asia"].mean == pytest.approx(math.fsum(asia) / 3, rel=1e-15)


def test_group_stats_synthetic_geography_gap():
    # synthetic ground truth: one group constructed at mean 1.11, rest at 2.04
    rng = np.random.default_rng(33)
    na_ratios = 1.11 + rng.uniform(-0.05, 0.05, size=40)
    na_ratios = na_ratios - na_ratios.mean() + 1.11
    rest_ratios = 2.04 + rng.uniform(-0.3, 0.3, size=205)
    rest_ratios = rest_ratios - rest_ratios.mean() + 2.04
    records = [
        make_record(i, act_cost=100.0 * r, region=Region.NORTH_AMERICA)
        for i, r in enumerate(na_ratios)
    ] + [
        make_record(1000 + i, act_cost=100.0 * r, region=Region.AFRICA)
        for i, r in enumerate(rest_ratios)
    ]
    groups = group_stats(ReferenceClass(tuple(records)), "region")
    assert groups["NorthAmerica"].mean == pytest.approx(1.11, abs=1e-9)
    assert groups["Africa"].mean == pytest.approx(2.04, abs=1e-9)


def test_group_stats_decade_partition():
    years = [1934, 1939, 1945, 1955, 1968, 1977, 1983, 1999, 2003, 2007]
    records = [make_record(i, year=y) for i, y in enumerate(years)]
    groups = group_stats(ReferenceClass(tuple(records)), "decade")
    assert set(groups) == {"1930s", "1940s", "1950s", "1960s", "1970s", "1980s", "1990s", "2000s"}
    assert sum(s.n for s in groups.values()) == len(years)
    assert decade_label(1934) == "1930s"


def test_group_stats_unknown_key():
    with pytest.raises(InputError):
        group_stats(class_from_cost_ratios([1.0]), "country")


def test_group_ratios_one_pass_in_record_order():
    records = (
        make_record(1, act_cost=120.0, year=1991, est_benefit=100.0, act_benefit=90.0),
        make_record(2, act_cost=150.0, year=1975),  # no benefit data
        make_record(3, act_cost=110.0, year=1993, est_benefit=200.0, act_benefit=250.0),
        make_record(4, act_cost=130.0, year=1978),
    )
    ref = ReferenceClass(records)
    by_decade = group_ratios(ref, "decade")
    assert list(by_decade) == ["1970s", "1990s"]
    assert by_decade == {"1970s": [1.5, 1.3], "1990s": [1.2, 1.1]}
    assert group_ratios(ref, "decade", "benefit") == {"1990s": [0.9, 1.25]}  # 1970s left out
    assert list(group_stats(ref, "decade", "benefit")) == ["1990s"]


def test_group_stats_builds_no_reference_class(monkeypatch):
    import fragilis.refclass as rc

    ref = class_from_cost_ratios([1.1, 1.2, 1.3])  # one region: its group is the whole class
    monkeypatch.setattr(rc, "ReferenceClass", None)  # any construction would now fail
    assert group_stats(ref, "region", "cost", (1.15,)) == {"Asia": summarize(ref, "cost", (1.15,))}


def test_group_stats_checks_metric_on_an_empty_class():
    with pytest.raises(InputError, match="unknown metric"):
        group_stats(ReferenceClass(()), "region", "npv")
    with pytest.raises(InputError, match="unknown group key"):
        group_ratios(ReferenceClass(()), "country", "npv")
    assert group_stats(ReferenceClass(()), "region") == {}


def test_group_ratios_benefit_raises_at_first_bad_record():
    records = (
        make_record(1, region=Region.EUROPE, est_benefit=-1.0, act_benefit=1.0),
        make_record(2, region=Region.AFRICA, est_benefit=-2.0, act_benefit=1.0),
    )
    with pytest.raises(InputError, match="got -1.0"):
        group_stats(ReferenceClass(records), "region", "benefit")


def test_benefit_metric_pairwise_exclusion():
    records = (
        make_record(1, est_benefit=100.0, act_benefit=90.0),
        make_record(2),  # no benefit data
        make_record(3, est_benefit=200.0, act_benefit=250.0),
    )
    ref = ReferenceClass(records)
    stats = summarize(ref, "benefit")
    assert stats.n == 2
    assert stats.mean == pytest.approx((0.9 + 1.25) / 2, rel=1e-15)


# ---------------------------------------------------------------------------
# debt burden


def test_debt_burden_share_published_cases():
    colombia = debt_burden_share(1296.6, 2699.6, 168.7)
    assert abs(colombia * 100 - 12.0) <= 0.1
    pakistan = debt_burden_share(3252.4, 9692.8, 1497.9)
    assert abs(pakistan * 100 - 23.2) <= 0.1


def test_debt_burden_share_full_increase():
    assert debt_burden_share(100.0, 300.0, 200.0) == 1.0


def test_debt_burden_share_domain_error():
    with pytest.raises(InputError):
        debt_burden_share(100.0, 100.0, 50.0)


# ---------------------------------------------------------------------------
# CSV round trip and diagnostics

CSV_HEADER = (
    "id,name,country,region,project_type,decision_year,"
    "est_cost,act_cost,est_months,act_months,est_benefit,act_benefit"
)


def test_csv_round_trip_field_exact():
    records = (
        make_record(1, est_cost=123.456, act_cost=199.999, est_benefit=55.5, act_benefit=44.25),
        make_record(2, region=Region.OCEANIA, project_type="irrigation"),
    )
    ref = ReferenceClass(records, label="round-trip")
    buf = io.StringIO()
    write_records_csv(ref, buf)
    back = read_records_csv(io.StringIO(buf.getvalue()), label="round-trip")
    assert back.reference_class == ref
    assert back.errors == ()


def test_csv_unknown_region_strict_diagnostic():
    text = CSV_HEADER + "\nA,Dam,X,Atlantis,road,1990,1,2,3,4,,\n"
    with pytest.raises(InputError, match=r"row 2.*region.*Atlantis"):
        read_records_csv(io.StringIO(text), strict=True)


def test_csv_lenient_skips_and_counts():
    text = (
        CSV_HEADER
        + "\nA,Dam,X,Asia,road,1990,1,2,3,4,,"
        + "\nB,Dam,X,Atlantis,road,1990,1,2,3,4,,"
        + "\nC,Dam,X,Europe,rail,bad-year,1,2,3,4,,"
        + "\nD,Dam,X,Africa,road,1990,1,2,3,4,,\n"
    )
    result = read_records_csv(io.StringIO(text), strict=False)
    assert result.n_accepted == 2
    assert result.n_skipped == 2
    assert result.errors[0].row == 3 and result.errors[0].field == "region"
    assert result.errors[1].row == 4 and result.errors[1].field == "decision_year"


DUPLICATE_ID_CSV = (
    CSV_HEADER
    + "\nA,Dam,X,Asia,road,1990,1,2,3,4,,"
    + "\nB,Dam,X,Europe,road,1990,1,2,3,4,,"
    + "\nA,Dam,X,Africa,road,1990,1,3,3,4,,\n"
)


def test_csv_lenient_skips_duplicate_id():
    result = read_records_csv(io.StringIO(DUPLICATE_ID_CSV), strict=False)
    assert [r.id for r in result.reference_class.records] == ["A", "B"]
    assert result.reference_class.records[0].region is Region.ASIA
    assert len(result.errors) == 1
    assert result.errors[0].row == 4 and result.errors[0].field == "id"
    assert "duplicate" in result.errors[0].message


def test_csv_strict_rejects_duplicate_id():
    with pytest.raises(InputError, match=r"row 4.*'id'.*duplicate record id 'A'"):
        read_records_csv(io.StringIO(DUPLICATE_ID_CSV), strict=True)


def test_csv_not_utf8_rejected(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"id,name\n\xff\xfe,1\n")
    for strict in (True, False):
        with pytest.raises(InputError, match="not UTF-8"):
            read_records_csv(path, strict=strict)


def test_csv_bad_header_rejected():
    with pytest.raises(InputError, match="header"):
        read_records_csv(io.StringIO("id,name\n1,2\n"))


def test_csv_optional_benefits_empty_string():
    text = CSV_HEADER + "\nA,Dam,X,Asia,road,1990,1,2,3,4,,\n"
    result = read_records_csv(io.StringIO(text))
    rec = result.reference_class.records[0]
    assert rec.est_benefit is None and rec.act_benefit is None


def test_csv_non_finite_benefits_rejected():
    text = (
        CSV_HEADER
        + "\nA,Dam,X,Asia,road,1990,1,2,3,4,nan,5"
        + "\nB,Dam,X,Asia,road,1990,1,2,3,4,5,inf"
        + "\nC,Dam,X,Asia,road,1990,1,2,3,4,5,-inf"
        + "\nD,Dam,X,Asia,road,1990,1,2,3,4,5,6\n"
    )
    result = read_records_csv(io.StringIO(text), strict=False)
    assert [r.id for r in result.reference_class.records] == ["D"]
    assert [(e.row, e.field) for e in result.errors] == [(2, "(record)"), (3, "(record)"),
                                                         (4, "(record)")]
    assert "est_benefit must be a finite number, got nan" in result.errors[0].message
    assert "act_benefit must be a finite number, got inf" in result.errors[1].message
    with pytest.raises(InputError, match=r"row 2.*est_benefit must be a finite number"):
        read_records_csv(io.StringIO(text), strict=True)


# One row of each kind the ingest must tell apart. The expected diagnostics
# were recorded from the earlier name-keyed (DictReader) reader, so they pin
# the (row, field, message) format and the order in which columns are checked.
GOLDEN_CSV = "\n".join([
    CSV_HEADER,
    "A,Alpha Dam,Norway,Europe,hydroelectric,1975,100,150,60,80,,",
    "B,Beta,X,Asia,road,1980,abc,2,3,4,,",
    "C,Gamma,X,Atlantis,road,1990,1,2,3,4,,",
    "D,Delta,X,Africa,road,1990.5,1,2,3,4,,",
    "E,Epsilon,X,Asia,road,1990,0,2,3,4,,",
    "F,Short,X,Asia,road",
    "A,Duplicate,X,Asia,road,1990,1,2,3,4,,",
    "",
    "G, Extra ,X, Oceania ,rail, 2001 , 10 ,12,24,30,5,4,surplus",
    'H,"Multi',
    'line",X,SouthAmerica,bridge,1999,7,9,12,18,,',
    "I,Late,X,Asia,road,1990,1,2,3,4,x,",
]) + "\n"

GOLDEN_ERRORS = [
    (3, "est_cost", "not a number: 'abc'"),
    (4, "region", "unknown region 'Atlantis'; expected one of: "
                  "NorthAmerica, SouthAmerica, Africa, Asia, Europe, Oceania"),
    (5, "decision_year", "not an integer year: '1990.5'"),
    (6, "(record)", "est_cost must be a positive number, got 0.0"),
    (7, "decision_year", "missing column value"),
    (8, "id", "duplicate record id 'A'"),
    (13, "est_benefit", "not a number: 'x'"),
]


def test_csv_ingest_golden_diagnostics():
    result = read_records_csv(io.StringIO(GOLDEN_CSV), strict=False)
    assert [(e.row, e.field, e.message) for e in result.errors] == GOLDEN_ERRORS
    records = result.reference_class.records
    assert [r.id for r in records] == ["A", "G", "H"]
    assert records[1] == ProjectRecord("G", "Extra", "X", Region.OCEANIA, "rail", 2001,
                                       10.0, 12.0, 24.0, 30.0, 5.0, 4.0)
    assert records[2].name == "Multi\nline"
    with pytest.raises(InputError) as exc:
        read_records_csv(io.StringIO(GOLDEN_CSV), strict=True)
    assert str(exc.value) == "row 3, field 'est_cost': not a number: 'abc'"


def test_csv_spaced_header_ingests_rows():
    text = ", ".join(CSV_HEADER.split(",")) + "\nA,Dam,X,Asia,road,1990,1,2,3,4,,\n"
    for strict in (True, False):
        result = read_records_csv(io.StringIO(text), strict=strict)
        assert result.errors == ()
        assert [r.id for r in result.reference_class.records] == ["A"]
