"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with the measured values. Run with `pytest tests/test_acceptance.py -v -s`
to see every line."""

import functools
import json
import math
import time

import numpy as np
import pytest

from fragilis import _rng, datasets, stress
from fragilis.cashflow import (
    AppraisalModel,
    CashFlowStream,
    bcr,
    break_even_delay,
    break_even_overrun,
    irr,
    npv,
    payoff_curve,
)
from fragilis.cli import main as cli_main
from fragilis.refclass import debt_burden_share, quantile, summarize
from fragilis.stats import kde, mann_whitney_u
from fragilis.stress import (
    CAPEX_TAG,
    StressConfig,
    p_break_analytic,
    run_stress,
    sensitivity_grid,
)

from conftest import mwu_enumeration_oracle, quantile_oracle, random_model, result_json


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {label}: FAIL - {exc}")
                raise
            print(f"ACCEPTANCE {label}: PASS - {detail}")

        return run

    return wrap


@pytest.fixture(scope="module")
def dam_dist():
    return datasets.resolve_dist(datasets.BIG_DAM)


@pytest.fixture(scope="module")
def stylized():
    return datasets.load_stylized_model()


# ---------------------------------------------------------------------------


@criterion("C1 Table-1 debt arithmetic")
def test_c1_debt_burden_shares():
    chivor = debt_burden_share(1296.6, 2699.6, 168.7)
    tarbela = debt_burden_share(3252.4, 9692.8, 1497.9)
    assert abs(chivor * 100 - 12.0) <= 0.1
    assert abs(tarbela * 100 - 23.2) <= 0.1
    return f"Chivor {chivor * 100:.2f}% (target 12.0), Tarbela {tarbela * 100:.2f}% (target 23.2)"


@criterion("C2 threshold identity k* = BCR")
def test_c2_break_even_overrun_identity(stylized):
    assert stylized.pv_om == 0.0
    k = break_even_overrun(stylized, benefit_shortfall=0.0)
    assert abs(k.k_star - 1.4) <= 1e-9 * 1.4
    assert abs(bcr(stylized) - 1.4) <= 1e-9 * 1.4
    return f"k* = {k.k_star!r} vs 1.4, rel err {abs(k.k_star - 1.4) / 1.4:.2e}"


@criterion("C3 break probability 47%")
def test_c3_break_probability(stylized, dam_dist):
    analytic = p_break_analytic(dam_dist, 1.4)
    assert abs(analytic - 0.47) <= 0.005

    start = time.perf_counter()
    config = StressConfig(n_trials=1_000_000, seed=7, capex_dist=dam_dist)
    result = run_stress(stylized, config)
    elapsed = time.perf_counter() - start
    se = math.sqrt(0.47 * 0.53 / config.n_trials)
    assert abs(result.p_break - 0.47) <= 3 * se
    assert elapsed < 10.0
    return (
        f"p_break {result.p_break:.4f} (0.47 ± {3 * se:.4f}), "
        f"analytic {analytic:.4f}, runtime {elapsed:.2f}s"
    )


@criterion("C4 anchor reproduction from 1e6 draws")
def test_c4_anchor_reproduction(dam_dist):
    draws = dam_dist.sample_array(_rng.uniforms(7, CAPEX_TAG, 0, 1_000_000))
    p50 = float(np.quantile(draws, 0.50))
    p80 = float(np.quantile(draws, 0.80))
    p90 = float(np.quantile(draws, 0.90))
    mean = float(draws.mean())
    assert abs(p50 - 1.27) <= 0.01
    assert abs(p80 - 1.99) <= 0.02
    assert abs(p90 - 3.07) <= 0.06
    assert abs(mean - 1.96) <= 0.05
    return (
        f"P50 {p50:.4f} (1.27±0.01), P80 {p80:.4f} (1.99±0.02), "
        f"P90 {p90:.4f} (3.07±0.06), mean {mean:.4f} (1.96±0.05)"
    )


@criterion("C5 delay break-even closed form")
def test_c5_delay_break_even(stylized):
    result = break_even_delay(stylized)
    expected = math.log(1.4) / math.log(1.11)
    assert abs(result.years - 3.224) <= 0.001
    assert abs(result.years - expected) <= 1e-6
    return f"d* {result.years:.6f} years vs ln(1.4)/ln(1.11) = {expected:.6f}"


@criterion("C6 contingency sizing at P80")
def test_c6_contingency(stylized, dam_dist):
    from fragilis.stress import size_contingency

    result = size_contingency(stylized, dam_dist, coverage=0.80)
    assert abs(result.contingency - 0.99) <= 0.02
    assert abs(result.adjusted_bcr - 0.704) <= 0.01
    assert not result.proceed
    return (
        f"c {result.contingency:.4f} (0.99±0.02), adjusted BCR "
        f"{result.adjusted_bcr:.4f} (0.704±0.01), do-not-proceed"
    )


# ---------------------------------------------------------------------------
# C7: oracle equivalence


def _irr_bisect_oracle(stream, segments=257, tol=1e-8):
    lo, hi = -0.99, 10.0
    f = stream.present_value
    prev_r, prev_v = lo, f(lo)
    if prev_v == 0.0:
        return lo
    for i in range(1, segments + 1):
        r = lo + i * (hi - lo) / segments
        v = f(r)
        if v == 0.0:
            return r
        if (prev_v < 0) != (v < 0):
            a, b, fa = prev_r, r, prev_v
            while b - a > tol:
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fm == 0.0:
                    return mid
                if (fa < 0) != (fm < 0):
                    b = mid
                else:
                    a, fa = mid, fm
            return 0.5 * (a + b)
        prev_r, prev_v = r, v
    return None


@criterion("C7 oracle equivalence (MWU, IRR, quantiles, KDE)")
def test_c7_oracle_equivalence():
    rng = np.random.default_rng(2027)

    # Mann-Whitney exact p vs full enumeration, 100 cases with n+m <= 10
    for case in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, min(6, 11 - n)))
        if case % 2 == 0:  # tied integers half the time
            x = list(rng.integers(0, 7, size=n).astype(float))
            y = list(rng.integers(0, 7, size=m).astype(float))
        else:
            x = list(rng.normal(0, 1, size=n))
            y = list(rng.normal(0, 1, size=m))
        u_oracle, p_oracle = mwu_enumeration_oracle(x, y)
        result = mann_whitney_u(x, y)
        assert result.method == "exact"
        assert result.statistic == u_oracle
        assert result.p_value == p_oracle

    # IRR vs an independent 1e-8 bisection oracle, 1000 sign-change streams
    found = 0
    while found < 1000:
        outlay = float(rng.uniform(50, 400))
        horizon = int(rng.integers(1, 15))
        entries = [(0.0, -outlay)] + [
            (float(t), float(rng.uniform(5, 120))) for t in range(1, horizon + 1)
        ]
        stream = CashFlowStream.of(entries)
        mine = irr(stream)
        oracle = _irr_bisect_oracle(stream)
        if mine is None:
            assert oracle is None
            continue
        assert oracle is not None
        assert abs(mine - oracle) <= 1e-7
        found += 1

    # quantile / summarize vs sort-based brute force, n <= 50, exact
    from fragilis.refclass import ProjectRecord, ReferenceClass, Region, cost_overrun_ratio

    for n in range(1, 51):
        values = list(rng.uniform(0.4, 3.5, size=n))
        for p in (0.0, 0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 1.0):
            assert quantile(values, (p,))[0] == quantile_oracle(values, p)
        records = tuple(
            ProjectRecord(
                id=f"R{i}", name="r", country="X", region=Region.ASIA,
                project_type="hydroelectric", decision_year=1980,
                est_cost=100.0, act_cost=100.0 * v, est_months=60.0, act_months=70.0,
            )
            for i, v in enumerate(values)
        )
        ref = ReferenceClass(records)
        ratios = [cost_overrun_ratio(r) for r in ref.records]
        stats = summarize(ref, "cost", thresholds=(1.4,))
        assert stats.mean == math.fsum(ratios) / n
        assert stats.median == quantile_oracle(ratios, 0.5)
        assert stats.share_breaking[1.4] == sum(1 for v in ratios if v >= 1.4) / n

    # KDE vs direct kernel sum within 1e-12, 100 random small samples
    for _ in range(100):
        n = int(rng.integers(1, 13))
        sample = list(rng.uniform(0.5, 3.5, size=n))
        h = float(rng.uniform(0.05, 0.5))
        trace = kde(sample, bandwidth=h)
        norm = 1.0 / (n * h * math.sqrt(2 * math.pi))
        worst = 0.0
        for g, d in zip(trace.grid, trace.density):
            direct = norm * sum(math.exp(-0.5 * ((g - x) / h) ** 2) for x in sample)
            worst = max(worst, abs(direct - d))
        assert worst < 1e-12

    return "MWU exact (100 cases), IRR vs 1e-8 bisection (1000), quantiles n<=50 exact, KDE 1e-12 (100)"


# ---------------------------------------------------------------------------
# C8: property suites


@criterion("C8 property suites (sign equivalence, grid monotonicity, determinism)")
def test_c8_property_suites(dam_dist, stylized):
    rng = np.random.default_rng(88)

    # NPV / BCR / payoff sign equivalence on 1000 random models
    for _ in range(1000):
        m = random_model(rng)
        positive = npv(m) > 0
        assert (bcr(m) > 1) == positive
        assert (payoff_curve(m).fragility_index is None) == positive

    # sensitivity-grid IRR monotonicity on 100 random models
    count = 0
    while count < 100:
        outlay = float(rng.uniform(100, 400))
        entries = [
            (float(t), float(rng.uniform(20, 90)))
            for t in range(1, int(rng.integers(4, 12)))
        ]
        model = AppraisalModel(
            capex=CashFlowStream(((0.0, outlay),)),
            benefits=CashFlowStream.of(entries),
            discount_rate=float(rng.uniform(0.0, 0.2)),
        )
        grid = sensitivity_grid(model, benefit_mults=[0.8, 1.0, 1.2], cost_mults=[0.9, 1.0, 1.3])
        if any(v is None for row in grid.irr for v in row):
            continue
        for row in grid.irr:
            assert all(a <= b + 1e-12 for a, b in zip(row, row[1:]))
        for j in range(3):
            col = [row[j] for row in grid.irr]
            assert all(a >= b - 1e-12 for a, b in zip(col, col[1:]))
        count += 1

    # stress determinism across chunk sizes, byte-identical JSON, 5 seeds
    for seed in range(5):
        config = StressConfig(n_trials=20_000, seed=seed, capex_dist=dam_dist)
        outputs = set()
        for c in (20_000, 1024, 999, 333):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(stress, "_CHUNK", c)
                outputs.add(result_json(run_stress(stylized, config)))
        assert len(outputs) == 1

    return "1000 sign-equivalence models, 100 monotone grids, 5 seeds x 4 execution plans identical"


# ---------------------------------------------------------------------------
# C9: synthetic-fixture pipeline (stand-in for unpublished raw records)


@criterion("C9 synthetic-fixture pipeline exactness")
def test_c9_fixture_pipeline(tmp_path):
    # The published U = 29646, F = 0.57 / 0.54, and the Guavio IRR table come
    # from the unpublished 245-record dataset and are not reproducible at desk
    # scale; criteria 7-8 plus this pipeline regression stand in for them.
    truth = datasets.load_synthetic_summary()
    fixture = str(datasets.asset_path(datasets.SYNTHETIC_CSV))

    out = tmp_path / "out"
    rc = cli_main(["stats", fixture, "--metric", "cost", "--threshold", "1.4",
                   "--out", str(out)])
    assert rc == 0
    produced = json.loads((out / "stats.json").read_text())["summary"]
    assert produced == truth["cost"]

    rc = cli_main(["stats", fixture, "--metric", "schedule", "--threshold", "1.4",
                   "--out", str(out)])
    assert rc == 0
    produced_schedule = json.loads((out / "stats.json").read_text())["summary"]
    assert produced_schedule == truth["schedule"]

    # independent brute-force cross-check of the headline numbers
    from fragilis.refclass import cost_overrun_ratio, read_records_csv

    ref = read_records_csv(fixture).reference_class
    ratios = sorted(cost_overrun_ratio(r) for r in ref.records)
    assert truth["n"] == len(ratios) == 245
    assert produced["median"] == ratios[122]  # n odd: exact order statistic
    assert produced["mean"] == math.fsum(ratios) / 245
    assert produced["share_breaking"]["1.4"] == sum(1 for v in ratios if v >= 1.4) / 245
    return (
        f"fixture n=245 reproduced exactly: median {produced['median']:.4f}, "
        f"share>=1.4 {produced['share_breaking']['1.4']:.4f}"
    )
