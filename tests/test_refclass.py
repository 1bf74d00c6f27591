import io
import math
import pickle
import sys

import numpy as np
import pytest

from fragilis import datasets
from fragilis.errors import ComputeError, InputError
from fragilis.refclass import (
    CSV_COLUMNS,
    ProjectRecord,
    RowError,
    ReferenceClass,
    Region,
    cost_overrun_ratio,
    debt_burden_share,
    decade_label,
    deflate,
    group_ratios,
    group_stats,
    quantile,
    _parse_row,
    read_records_csv,
    schedule_slippage,
    summarize,
    write_records_csv,
)

from conftest import quantile_oracle


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


# each invalid field passed to the constructor, with its message
_INVALID_FIELDS = [
    ({"est_cost": 0.0}, "est_cost must be a positive number, got 0.0"),
    ({"act_cost": math.nan}, "act_cost must be a positive number, got nan"),
    ({"est_months": math.inf}, "est_months must be a positive number, got inf"),
    ({"act_months": -3.0}, "act_months must be a positive number, got -3.0"),
    ({"year": 1850}, "decision_year must be in [1900, 2100], got 1850"),
    ({"year": 2101}, "decision_year must be in [1900, 2100], got 2101"),
    ({"est_benefit": math.nan}, "est_benefit must be a finite number, got nan"),
    ({"act_benefit": -math.inf}, "act_benefit must be a finite number, got -inf"),
    ({"est_cost": 1e-300, "act_cost": 1e300}, "act_cost / est_cost overflows the float range"),
    ({"est_months": 1e-300, "act_months": 1e300},
     "act_months / est_months overflows the float range"),
    # the first invalid field is the one reported, and the ratio check comes last
    ({"est_cost": -1.0, "act_months": 0.0}, "est_cost must be a positive number, got -1.0"),
    ({"est_cost": 1e-300, "act_cost": 1e300, "year": 1800},
     "decision_year must be in [1900, 2100], got 1800"),
    ({"est_cost": 1e-300, "act_cost": 1e300, "act_benefit": math.nan},
     "act_benefit must be a finite number, got nan"),
]


def test_record_validation():
    for fields, message in _INVALID_FIELDS:
        with pytest.raises(InputError) as exc:
            make_record(1, **fields)
        assert str(exc.value) == message, fields


def test_record_make_and_replace_run_the_constructor_checks():
    rec = make_record(1)
    with pytest.raises(InputError, match="est_cost must be a positive number, got -1.0"):
        rec._replace(est_cost=-1.0)
    with pytest.raises(InputError, match="act_cost must be a positive number, got nan"):
        ProjectRecord._make([*rec[:7], math.nan, *rec[8:]])
    assert rec._replace(name="Renamed") == (*rec[:1], "Renamed", *rec[2:])
    assert ProjectRecord._make(iter(rec)) == rec


def test_record_is_a_named_tuple_of_its_fields():
    rec = make_record(1, est_benefit=5.0, act_benefit=4.0)
    assert ProjectRecord._fields == CSV_COLUMNS == tuple(CSV_HEADER.split(","))
    assert ProjectRecord(**dict(zip(CSV_COLUMNS, rec))) == rec  # keyword construction
    plain = ("P001", "Project 1", "Testland", Region.ASIA, "hydroelectric", 1975,
             100.0, 150.0, 60.0, 80.0, 5.0, 4.0)
    assert rec == plain and hash(rec) == hash(plain) and tuple(rec) == plain
    assert ProjectRecord(*plain[:10]).est_benefit is None  # the benefits default to None
    with pytest.raises(AttributeError):
        rec.est_cost = 1.0
    with pytest.raises(AttributeError):
        rec.extra = 1.0  # slotted: no instance dict
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and type(back) is ProjectRecord and back.region is Region.ASIA


def test_duplicate_ids_rejected():
    rec = make_record(1)
    with pytest.raises(InputError):
        ReferenceClass((rec, rec))


def test_duplicate_id_message_names_the_first_repeat():
    records = tuple(make_record(i) for i in (1, 2, 3, 2, 1))
    with pytest.raises(InputError, match=r"^duplicate record id 'P002'$"):
        ReferenceClass(records)
    assert len(ReferenceClass(records[:3])) == 3


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


def test_deflate_rejects_non_finite_inputs():
    with pytest.raises(InputError, match="nominal amount must be a finite number"):
        deflate([(2000, math.nan)], [(2000, 1.0)], 2000)
    with pytest.raises(InputError, match="nominal amount must be a finite number"):
        deflate([(2000, -math.inf)], [(2000, 1.0)], 2000)
    with pytest.raises(InputError, match="price index must be a positive number"):  # not 0.0
        deflate([(2000, 1.0)], [(2000, math.inf), (2001, 1e-300)], 2001)


def test_deflate_overflow_is_compute_error():
    with pytest.raises(ComputeError, match="deflated amount for 2000 overflows"):
        deflate([(2000, 1e300)], [(2000, 1e-10), (2001, 1e10)], 2001)


def test_deflate_divides_first_where_the_product_leaves_the_normal_range():
    # amount * base overflows here, and underflows to 0 in the second case; the deflated
    # values are finite and normal
    assert deflate([(2000, 1e300)], [(2000, 1e10), (2001, 1e10)], 2001) == [(2000, 1e300)]
    assert deflate([(2000, 1e-300)], [(2000, 1e-100), (2001, 1e-100)], 2001) == [(2000, 1e-300)]
    assert deflate([(2000, -1e300)], [(2000, 1e10), (2001, 1e10)], 2001) == [(2000, -1e300)]


def test_deflate_keeps_the_left_to_right_product_where_it_is_normal():
    # the same bits as amount * base / level wherever amount * base is normal or 0
    rng = np.random.default_rng(11)
    amounts = [0.0, -0.0, *(float(a) for a in 10.0 ** rng.uniform(-150, 150, 200))]
    levels = [(1990 + i, float(v)) for i, v in enumerate(10.0 ** rng.uniform(-150, 150, 20))]
    base_year, base = levels[7]
    nominal = [(1990 + i % 20, a) for i, a in enumerate(amounts)]
    out = deflate(nominal, levels, base_year)
    by_year = dict(levels)
    for (year, a), (_, got) in zip(nominal, out):
        expected = a * base / by_year[year]
        assert math.copysign(1.0, got) == math.copysign(1.0, expected) and got == expected


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


def test_summarize_and_group_stats_reject_non_finite_thresholds():
    ref = class_from_cost_ratios([0.9, 1.1, 1.5])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="thresholds must be finite"):
            summarize(ref, "cost", (1.4, bad))
        with pytest.raises(InputError, match="thresholds must be finite"):
            group_stats(ref, "region", "cost", (bad,))


def test_summarize_overflowing_sum_is_compute_error():
    # each cost ratio is a finite 1e308; their sum is not
    ref = ReferenceClass(tuple(make_record(i, est_cost=1e-8, act_cost=1e300) for i in range(4)))
    with pytest.raises(ComputeError, match="overflows the float range"):
        summarize(ref, "cost")
    with pytest.raises(ComputeError, match="overflows the float range"):
        group_stats(ref, "region", "cost")


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


def test_quantile_matches_brute_force_exactly():
    rng = np.random.default_rng(4)
    for n in range(1, 51):
        values = list(rng.uniform(0.3, 4.0, size=n))
        for p in (0.0, 0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 0.97, 1.0):
            assert quantile(values, (p,))[0] == quantile_oracle(values, p)


def test_quantile_at_a_whole_position_is_its_order_statistic():
    # interpolating at p = 1 from the last pair gave a + 1.0 * (b - a), an ulp above b
    values = [1.4709773291105035, 3.5075719058394843, 1.4085805304907235, 1.1505615192943437]
    assert quantile(values, (0.0, 1.0)) == (min(values), max(values))
    # where b - a overflows, 0 * (b - a) was NaN and a + 1.0 * (b - a) inf
    assert quantile([-1e308, 1e308], (0.0, 1.0)) == (-1e308, 1e308)
    assert math.copysign(1.0, quantile([-0.0, 1.0], (0.0,))[0]) == -1.0  # a + 0.0 * 1.0 was 0.0


def test_quantile_between_order_statistics_whose_difference_overflows():
    # a + f * (b - a) gave inf at every level: b - a is past the float range
    assert quantile([-1e308, 1e308], (0.25, 0.5, 0.75)) == (-5e307, 0.0, 5e307)
    assert quantile([-1e308, 0.0, 1e308], (0.25, 0.75)) == (-5e307, 5e307)  # b - a finite


def test_quantile_of_an_empty_sample_is_an_input_error():
    with pytest.raises(InputError, match="quantile of an empty sample"):
        quantile([], (0.5,))


def test_quantile_rejects_levels_outside_unit_interval():
    with pytest.raises(InputError, match="quantile level must be in"):
        quantile([1.0, 2.0], (0.5, 1.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quantile_rejects_non_finite_values(bad):
    # a NaN leaves sorted() without an order, so the answer would depend on the input order
    for values in ([bad, 1.0, 2.0], [1.0, 2.0, bad], np.array([1.0, bad])):
        with pytest.raises(InputError, match="NaN or infinite value"):
            quantile(values, (0.0, 0.5, 1.0))


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
        assert stats.median == quantile_oracle(ratios, 0.5)
        assert stats.iqr == quantile_oracle(ratios, 0.75) - quantile_oracle(ratios, 0.25)
        for p, value in stats.quantiles.items():
            assert value == quantile_oracle(ratios, p)


def test_summary_shares_on_ties_match_brute_force():
    # ratios exactly at 1 and at each threshold, repeated: share_over_1 counts ratios
    # strictly above 1 and share_breaking those at or above a threshold, so a bisection
    # off by one side of a run of ties shows here
    north = [0.7, 1.0, 1.0, 1.0, 1.2, 1.4, 1.4, 1.7, 2.0, 2.0, 2.0, 2.5]
    asia = [1.0, 1.4, 1.4, 1.4, 2.0, 2.0, 0.9]
    records = [make_record(i, act_cost=100.0 * r, region=Region.NORTH_AMERICA)
               for i, r in enumerate(north)]
    records += [make_record(100 + i, act_cost=100.0 * r, region=Region.ASIA)
                for i, r in enumerate(asia)]
    ref = ReferenceClass(tuple(records))
    taus = (0.5, 1.0, 1.4, 2.0, 2.5, 3.0)
    cases = [(summarize(ref, "cost", taus), ref.records)]
    groups = group_stats(ref, "region", "cost", taus)
    cases += [(groups[g.value], [r for r in ref.records if r.region is g])
              for g in (Region.NORTH_AMERICA, Region.ASIA)]
    for stats, group in cases:
        ratios = [cost_overrun_ratio(r) for r in group]
        assert {1.0, 1.4, 2.0} <= set(ratios)  # the ties are exact
        n = len(ratios)
        assert stats.share_over_1 == sum(r > 1.0 for r in ratios) / n
        assert stats.share_breaking == {t: sum(r >= t for r in ratios) / n for t in taus}
        assert stats.median == quantile_oracle(ratios, 0.5)
        assert stats.iqr == quantile_oracle(ratios, 0.75) - quantile_oracle(ratios, 0.25)
        assert stats.quantiles == {p: quantile_oracle(ratios, p) for p in stats.quantiles}


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


def test_debt_burden_share_rejects_non_finite_inputs():
    for args in ((math.nan, 1.0, 5.0), (0.0, math.inf, 5.0), (0.0, 1.0, -math.inf)):
        with pytest.raises(InputError, match="must be a finite number"):
            debt_burden_share(*args)


def test_debt_burden_share_overflow_is_compute_error():
    with pytest.raises(ComputeError, match="debt increase overflows"):  # not a share of 0.0
        debt_burden_share(-1e308, 1e308, 1.0)
    with pytest.raises(ComputeError, match="debt burden share overflows"):
        debt_burden_share(0.0, 1e-300, 1e300)


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


def test_csv_with_a_byte_order_mark_reads_as_without(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with a UTF-8 byte-order mark
    def read(path, strict):
        try:
            return read_records_csv(path, strict=strict)
        except InputError as exc:
            return str(exc)

    lines = datasets.asset_path(datasets.SYNTHETIC_CSV).read_text(encoding="utf-8").splitlines(True)
    with_bad_row = [*lines[:7], "X,Dam,X,Atlantis,road,1990,1,2,3,4,,\n", *lines[7:]]  # row 8
    plain, marked = tmp_path / "plain" / "class.csv", tmp_path / "marked" / "class.csv"
    plain.parent.mkdir()
    marked.parent.mkdir()
    for body in ("".join(lines), "".join(with_bad_row)):
        plain.write_text(body, encoding="utf-8")
        marked.write_text("\ufeff" + body, encoding="utf-8")
        for strict in (True, False):
            assert read(marked, strict) == read(plain, strict)
    assert [error.row for error in read(marked, False).errors] == [8]
    assert "row 8" in read(marked, True)


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


def test_csv_overflowing_ratio_is_record_diagnostic():
    text = (
        CSV_HEADER
        + "\nA,Dam,X,Asia,road,1990,1e-300,1e300,3,4,,"
        + "\nB,Dam,X,Asia,road,1990,1,2,1e-300,1e300,,"
        + "\nC,Dam,X,Asia,road,1990,1e-300,1e300,3,4,nan,5"  # the benefit check comes first
        + "\nD,Dam,X,Asia,road,1990,1e-8,1e300,3,4,,\n"  # a ratio of 1e308 is finite
    )
    result = read_records_csv(io.StringIO(text), strict=False)
    assert [r.id for r in result.reference_class.records] == ["D"]
    assert [(e.row, e.field, e.message) for e in result.errors] == [
        (2, "(record)", "act_cost / est_cost overflows the float range"),
        (3, "(record)", "act_months / est_months overflows the float range"),
        (4, "(record)", "est_benefit must be a finite number, got nan"),
    ]
    with pytest.raises(InputError, match=r"row 2.*act_cost / est_cost overflows"):
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


def _parse_row_oracle(fields, line):
    """The column-by-column reader that the one-expression parse replaced: each field
    stripped and parsed in column order, the first that raises named, and the record
    built by ProjectRecord(*values)."""
    not_a_number = "not a number: {!r}"
    parsers = (
        *[(str, "")] * 3,
        (Region, "unknown region {!r}; expected one of: "
                 "NorthAmerica, SouthAmerica, Africa, Asia, Europe, Oceania"),
        (str, ""),
        (int, "not an integer year: {!r}"),
        *[(float, not_a_number)] * 4,
        *[(lambda raw: float(raw) if raw else None, not_a_number)] * 2,
    )
    if len(fields) < len(CSV_COLUMNS):
        return RowError(line, CSV_COLUMNS[len(fields)], "missing column value")
    values = []
    for name, raw, (parse, message) in zip(CSV_COLUMNS, fields, parsers):
        raw = raw.strip()
        try:
            values.append(parse(raw))
        except ValueError:
            return RowError(line, name, message.format(raw))
    try:
        return ProjectRecord(*values)
    except InputError as exc:
        return RowError(line, "(record)", str(exc))


_VALID_ROW = ["A", "Dam", "X", "Asia", "road", "1990", "100", "150", "60", "80", "5", "4"]
# per column: values to try in place of the valid one, most of them rejected by the
# column's parser or by the record checks (a text column rejects nothing)
_BAD_VALUES = [
    ["\x00"], ["\ufffd"], [","],
    ["Atlantis", "europe", "EUROPE", "Region.EUROPE", "Euro pe", "Europe\u200b"],
    ["?"],
    ["bad-year", "1990.5", "1e3", "0x7c6", "1850", "2101", "1990-01"],
    *[["abc", "0", "-1", "nan", "inf", "-inf", "1,5", "0x10", "1e999"]] * 4,
    *[["x", "nan", "inf", "-inf", "1.2.3", "1e999"]] * 2,
]


def _with(**columns):
    row = list(_VALID_ROW)
    for name, value in columns.items():
        row[CSV_COLUMNS.index(name)] = value
    return row


_SEPARATORS_AND_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f", "\u00a0", "\u2028", "\u3000", " \t\r\n")


def _differential_rows():
    rows = [list(_VALID_ROW), [*_VALID_ROW, "surplus", ""]]
    for i, bad in enumerate(_BAD_VALUES):
        for value in [*bad, "", f" {_VALID_ROW[i]} ", f"\t{_VALID_ROW[i]}\r", f"\u00a0{bad[0]} "]:
            rows.append([*_VALID_ROW[:i], value, *_VALID_ROW[i + 1:]])
    rows += [_VALID_ROW[:n] for n in range(len(_VALID_ROW))]  # a missing column
    rows += [
        _with(region="Atlantis", est_cost="abc"),  # two bad columns: the first wins
        _with(decision_year="x", act_benefit="y"),
        _with(est_cost="abc", decision_year="1850"),  # a parse fault before a record fault
        _with(est_cost="1e-300", act_cost="1e300", est_benefit="x"),  # the field wins
        _with(est_cost="1e-300", act_cost="1e300", est_benefit="nan"),
        _with(est_cost="1e-300", act_cost="1e300"),
        _with(est_months="1e-300", act_months="1e300"),
        _with(est_cost="1e-8", act_cost="1e300"),  # a ratio of 1e308 is finite
        _with(est_cost="0", act_cost="-1"),
        _with(decision_year="+1990", est_cost="1_000", act_cost=" 2E3 ", est_benefit="", act_benefit=""),
        _with(decision_year="\u0661\u0669\u0669\u0660"),  # int() reads any Unicode digits
        *[_with(region=r) for r in ("europe", " Europe ", "Europe\t", "\tEurope", "Europe\n",
                                   "Oceania", "SouthAmerica", "South America", "")],
        # only the text columns are stripped before the one-expression parse: a benefit of
        # whitespace alone reaches float() unstripped, and int() and float() skip all the
        # whitespace str.strip() removes but the separators \x1c-\x1f
        *[_with(**{column: ws}) for column in ("est_benefit", "act_benefit") for ws in (" ", "\t")],
        _with(est_benefit=" ", act_benefit="\t"),
        *[_with(**{column: f"{ws}{_VALID_ROW[i]}{ws}"}) for i, column in enumerate(CSV_COLUMNS)
          for ws in _SEPARATORS_AND_SPACES],
        *[_with(**{column: f"{ws}abc"}) for column in ("name", "est_cost") for ws in _SEPARATORS_AND_SPACES],
        _with(decision_year="\u30001850\u3000", est_cost="\x1c0", act_benefit="\u2028nan"),
        _with(decision_year="1_990", est_months="6_0", act_months=" 8_0\t", est_benefit="1_000"),
        _with(decision_year="19_90_", est_cost="1__000"),
    ]
    return rows


def test_parse_row_matches_the_column_by_column_oracle():
    rows = _differential_rows()
    outcomes = {"record": 0, "field": 0, "(record)": 0}
    for fields in rows:
        got, want = _parse_row(list(fields), 7), _parse_row_oracle(list(fields), 7)
        assert type(got) is type(want), fields
        if isinstance(want, RowError):
            assert (got.row, got.field, got.message) == (want.row, want.field, want.message), fields
            outcomes["(record)" if want.field == "(record)" else "field"] += 1
        else:
            assert got == want and [type(v) for v in got] == [type(v) for v in want], fields
            outcomes["record"] += 1
    assert min(outcomes.values()) >= 10, outcomes  # the table reaches every kind of outcome


def _in_float_range(value):
    """math.isfinite, extended to whole numbers: one past the largest float is out of range
    (where math.isfinite would raise OverflowError or round it to the largest float)."""
    if isinstance(value, int):
        return abs(value) <= int(sys.float_info.max)
    return math.isfinite(value)


def _check_walk_oracle(values):
    """The message of the first labelled check a record's values fail, or None: the
    checks of _check one at a time, in its order, with finiteness tested by
    _in_float_range rather than by _check's comparisons."""
    year, est_cost, act_cost, est_months, act_months, est_benefit, act_benefit = values[5:]
    for label, value in (("est_cost", est_cost), ("act_cost", act_cost),
                         ("est_months", est_months), ("act_months", act_months)):
        if not (_in_float_range(value) and value > 0):
            return f"{label} must be a positive number, got {value}"
    if not 1900 <= year <= 2100:
        return f"decision_year must be in [1900, 2100], got {year}"
    for label, value in (("est_benefit", est_benefit), ("act_benefit", act_benefit)):
        if value is not None and not _in_float_range(value):
            return f"{label} must be a finite number, got {value}"
    if not act_cost / est_cost < math.inf:
        return "act_cost / est_cost overflows the float range"
    if not act_months / est_months < math.inf:
        return "act_months / est_months overflows the float range"
    return None


def _check_cases():
    """The values of every differential row whose columns all parse (the records and
    record faults the parse hands to _check), then faults no CSV row spells."""
    import fragilis.refclass as rc

    cases = []
    for fields in filter(lambda fields: len(fields) >= len(CSV_COLUMNS), _differential_rows()):
        try:
            cases.append(tuple(parse(raw.strip()) for raw, (parse, _) in zip(fields, rc._COLUMN_PARSERS)))
        except ValueError:
            continue
    valid = cases[0]
    for est_benefit, act_benefit in ((math.nan, 4.0), (5.0, math.nan), (math.nan, None),
                                     (None, -math.nan), (-0.0, 1e308), (10**400, 4.0),
                                     (5.0, -(10**400)), (-int(sys.float_info.max), 2)):
        cases.append((*valid[:10], est_benefit, act_benefit))
    for costs_and_months in ((5e-324, 1.0, 60.0, 80.0), (1.0, 5e-324, 60.0, 80.0),
                             (-0.0, 1.0, 60.0, 80.0), (1e-308, 1e300, 1e-308, 1e300),
                             (100.0, 150.0, 5e-324, 1e300), (1.0, math.inf, 1e-300, 1e300),
                             (10**400, 10**400, 60.0, 80.0), (1, 10**400, 60, 80),
                             (1, int(sys.float_info.max), 60, 80),
                             (1, int(sys.float_info.max) + 1, 60, 80), (2, 3, 4, 5)):
        cases.append((*valid[:6], *costs_and_months, *valid[10:]))
    cases += [(*valid[:5], year, *valid[6:]) for year in (1899, 1900, 2100, 2101, 1990.5)]
    return cases


@pytest.mark.parametrize("values", _check_cases())
def test_check_passes_exactly_what_its_walk_accepts(values):
    import fragilis.refclass as rc

    want = _check_walk_oracle(values)
    try:
        rc._check(values)
    except InputError as exc:
        assert str(exc) == want
    else:
        assert want is None


def test_check_cases_reach_every_check():
    failed = {_check_walk_oracle(values) for values in _check_cases()} - {None}
    # the four costs and months, the year, the two benefits and the two ratios
    assert len({message.split(" must ")[0] for message in failed}) == 9, failed


def test_csv_spaced_header_ingests_rows():
    text = ", ".join(CSV_HEADER.split(",")) + "\nA,Dam,X,Asia,road,1990,1,2,3,4,,\n"
    for strict in (True, False):
        result = read_records_csv(io.StringIO(text), strict=strict)
        assert result.errors == ()
        assert [r.id for r in result.reference_class.records] == ["A"]
