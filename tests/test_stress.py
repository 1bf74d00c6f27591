import hashlib
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fragilis import _rng, stress
from fragilis.cashflow import (
    AppraisalModel,
    CashFlowStream,
    apply_stress,
    bcr,
    break_even_delay,
    break_even_overrun,
    irr,
    net_stream,
    npv,
)
from fragilis.datasets import build_stylized_model, resolve_dist
from fragilis.dists import build_quantile_dist
from fragilis.errors import ComputeError, InputError
from fragilis.stress import (
    CAPEX_TAG,
    DEFAULT_NPV_QUANTILES,
    MAX_GRID_TERMS,
    MAX_TRIALS,
    SCHEDULE_TAG,
    SHORTFALL_TAG,
    StressConfig,
    p_break_analytic,
    run_stress,
    sensitivity_grid,
    size_contingency,
)

from conftest import near_degenerate_dist, random_model, result_json


def bcr_model(target_bcr: float, rate: float = 0.11) -> AppraisalModel:
    return AppraisalModel(
        capex=CashFlowStream(((0.0, 100.0),)),
        benefits=CashFlowStream(((1.0, target_bcr * 100.0 * (1.0 + rate)),)),
        discount_rate=rate,
    )


# ---------------------------------------------------------------------------
# counter-based RNG contract


def test_rng_pure_function_of_indices():
    a = _rng.uniforms(42, CAPEX_TAG, 0, 1000)
    b = np.concatenate([_rng.uniforms(42, CAPEX_TAG, 0, 400), _rng.uniforms(42, CAPEX_TAG, 400, 1000)])
    assert np.array_equal(a, b)
    assert _rng.uniform_at(42, CAPEX_TAG, 123) == a[123]


def test_rng_streams_differ_by_tag_and_seed():
    a = _rng.uniforms(42, CAPEX_TAG, 0, 100)
    b = _rng.uniforms(42, SCHEDULE_TAG, 0, 100)
    c = _rng.uniforms(43, CAPEX_TAG, 0, 100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_open_interval_and_uniformity():
    u = _rng.uniforms(7, SHORTFALL_TAG, 0, 200_000)
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(np.quantile(u, 0.25) - 0.25) < 0.005


# ---------------------------------------------------------------------------
# run_stress


def test_run_stress_degenerate_no_breaks():
    model = bcr_model(1.4)
    config = StressConfig(
        n_trials=2000, seed=5, capex_dist=near_degenerate_dist(1.0), shortfall=0.0
    )
    result = run_stress(model, config)
    assert result.p_break == 0.0
    assert result.p_break_se == 0.0
    assert result.mean_npv == pytest.approx(npv(model), rel=1e-6)


def test_run_stress_agrees_with_analytic_over_seeds(canonical_dist):
    model = bcr_model(1.4)
    expected = p_break_analytic(canonical_dist, 1.4)
    assert expected == pytest.approx(0.47, abs=1e-12)
    n = 40_000
    for seed in range(20):
        config = StressConfig(n_trials=n, seed=seed, capex_dist=canonical_dist)
        result = run_stress(model, config)
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(result.p_break - expected) <= 3 * se


def test_run_stress_deterministic_across_chunks(canonical_dist, monkeypatch):
    # more worker threads than CPUs, switching as often as the interpreter allows:
    # a span written twice, or not at all, would change the output
    model = build_stylized_model()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in (0, 1, 2, 3, 4):
            config = StressConfig(
                n_trials=10_000,
                seed=seed,
                capex_dist=canonical_dist,
                schedule_dist=near_degenerate_dist(1.3),
                est_duration_years=8.6,
                shortfall=0.05,
            )
            outputs = set()
            for workers in (1, 2, 3):
                monkeypatch.setattr(stress, "_WORKERS", workers)
                for chunk in (10_000, 1000, 777, 256):
                    monkeypatch.setattr(stress, "_CHUNK", chunk)
                    outputs.add(result_json(run_stress(model, config)))
            assert len(outputs) == 1
    finally:
        sys.setswitchinterval(interval)


# SHA-256 of result_json(run_stress(...)) for the stylized dam, seed 7, n = 262,145
# trials (one past four _CHUNK spans). At these inputs the pairwise sum over the
# sorted NPVs rounds to their exact sum, so each mean is the correctly rounded
# one. A speedup that changes any output bit fails here.
GOLDEN_STRESS_SHA256 = {
    "capex": "2ea3b2c45fe0c2e135f2a5220a1655c354e76e21bb299335bb90240ad95a5c8f",
    "full": "f422444504007c6b2bdaa8a5ed0b63410f55d056c91eb37848a800e102e8858a",
    "shortfall_dist": "3e40a047301f3d7691c8e2022d53b137c2d5924895c8ce5c4152704ffb254e94",
}


def _golden_configs() -> dict[str, StressConfig]:
    capex, schedule = resolve_dist("big-dam"), resolve_dist("big-dam-schedule")
    shortfall_dist = build_quantile_dist(
        [(0.5, 0.11)], floor_x=0.001, tail_shape=-0.25, tail_scale=0.04
    )
    n, seed = 262_145, 7
    return {
        "capex": StressConfig(n, seed, capex),
        "full": StressConfig(n, seed, capex, schedule, 8.6, 0.11),
        "shortfall_dist": StressConfig(n, seed, capex, schedule, 8.6, shortfall_dist),
    }


def test_run_stress_golden_digests():
    model = build_stylized_model()
    digests = {
        shape: hashlib.sha256(result_json(run_stress(model, config)).encode()).hexdigest()
        for shape, config in _golden_configs().items()
    }
    assert digests == GOLDEN_STRESS_SHA256


def test_run_stress_mean_is_within_4_ulps_of_fsum():
    # the NPVs recomputed over [0, n) in one span, summed correctly rounded;
    # a running sum in trial order is off by 9 to 71 ulps here, in sorted order 166 to 332
    model = build_stylized_model()
    for shape, config in _golden_configs().items():
        n = config.n_trials
        expected = math.fsum(stress._trial_arrays(config, model, 0, n)) / n
        mean = run_stress(model, config).mean_npv
        assert abs(mean - expected) <= 4 * math.ulp(expected), shape


def _four_spans_on_two_workers(monkeypatch):
    # 1000 trials in spans of 256; np.errstate does not reach pool threads,
    # so each worker must silence any overflow in its own span itself
    monkeypatch.setattr(stress, "_CHUNK", 256)
    monkeypatch.setattr(stress, "_WORKERS", 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_stress_non_finite_npv_is_compute_error(canonical_dist, monkeypatch):
    # capex 1e308 times an overrun above 1 overflows to inf in the trial NPV
    model = AppraisalModel(
        capex=CashFlowStream(((0.0, 1e308),)),
        benefits=CashFlowStream(((1.0, 100.0),)),
        discount_rate=0.1,
    )
    config = StressConfig(n_trials=1000, seed=1, capex_dist=canonical_dist)
    with pytest.raises(ComputeError, match="not finite"):
        run_stress(model, config)
    _four_spans_on_two_workers(monkeypatch)
    with pytest.raises(ComputeError, match="not finite"):
        run_stress(model, config)


def test_run_stress_npv_sum_overflow_is_compute_error(monkeypatch):
    # every trial NPV is about -1e306, finite, but 1000 of them sum past the float range
    model = AppraisalModel(
        capex=CashFlowStream(((0.0, 1e306),)),
        benefits=CashFlowStream(((1.0, 100.0),)),
        discount_rate=0.1,
    )
    config = StressConfig(n_trials=1000, seed=1, capex_dist=near_degenerate_dist(1.0))
    with pytest.raises(ComputeError, match="overflows"):
        run_stress(model, config)
    _four_spans_on_two_workers(monkeypatch)
    with pytest.raises(ComputeError, match="overflows"):
        run_stress(model, config)


def test_run_stress_peak_memory_is_one_npv_array():
    # 4M trials hold 30.5 MiB of NPVs; a sorted copy of them would add as much again
    config = StressConfig(4_000_000, 7, resolve_dist("big-dam"), resolve_dist("big-dam-schedule"),
                          8.6, 0.11)
    model = build_stylized_model()
    tracemalloc.start()
    try:
        run_stress(model, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


# ---------------------------------------------------------------------------
# break test: run_stress counts npv < 0 where the paper counts bcr < 1

_EDGE_FLOATS = (0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 1e308, -1e308,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 0.1)
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_FLOATS))


_PAIN = st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                  st.sampled_from([v for v in _EDGE_FLOATS if v >= 0.0]))


@st.composite
def _gain_pain(draw):
    pain = draw(_PAIN)
    if draw(st.booleans()):
        gain = draw(_FINITE)
    else:  # a float neighbour of pain, where the two tests could first disagree
        gain = pain
        for _ in range(draw(st.integers(0, 3))):
            gain = math.nextafter(gain, draw(st.sampled_from((-math.inf, math.inf))))
        assume(math.isfinite(gain))
    return gain, pain


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(_gain_pain(), min_size=1, max_size=20))
def test_negative_npv_is_bcr_below_one(pairs):
    gains, pains = (np.array(column) for column in zip(*pairs))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.testing.assert_array_equal(gains - pains < 0.0, gains / pains < 1.0)
        for gain, pain in zip(gains, pains):  # numpy scalars: x / 0 gives inf or nan, not an error
            assert (gain - pain < 0.0) == (gain / pain < 1.0)


def test_run_stress_vectorized_matches_literal_path(canonical_dist):
    slip_dist = build_quantile_dist(
        [(0.2, 1.0), (0.5, 1.27)], floor_x=0.7, mean_target=1.44
    )
    model = AppraisalModel(
        capex=CashFlowStream.of([(0.0, 700.0), (1.0, 300.0)]),
        benefits=CashFlowStream.of([(float(t), 180.0) for t in range(2, 14)]),
        om_costs=CashFlowStream.of([(float(t), 11.0) for t in range(2, 14)]),
        discount_rate=0.09,
    )
    config = StressConfig(
        n_trials=200,
        seed=31,
        capex_dist=canonical_dist,
        schedule_dist=slip_dist,
        est_duration_years=6.0,
        shortfall=0.11,
    )
    result = run_stress(model, config)

    # each trial's draws through run_stress's inverse CDF, quantile_array, of the same uniforms:
    # scalar quantile can differ from it by a few ulps, enough to flip a trial at BCR 1
    def draws(dist, tag):
        return dist.quantile_array(np.array([_rng.uniform_at(31, tag, i)
                                             for i in range(config.n_trials)])).tolist()

    npvs, n_broken = [], 0
    for k, slip in zip(draws(canonical_dist, CAPEX_TAG), draws(slip_dist, SCHEDULE_TAG)):
        delay = max(slip - 1.0, 0.0) * 6.0
        stressed = apply_stress(model, cost_mult=k, benefit_mult=1.0 - 0.11, delay_years=delay)
        npvs.append(npv(stressed))
        if bcr(stressed) < 1.0:
            n_broken += 1
    assert result.p_break == n_broken / config.n_trials
    assert result.mean_npv == pytest.approx(math.fsum(npvs) / len(npvs), rel=1e-9)
    s = sorted(npvs)
    assert list(result.npv_quantiles) == list(DEFAULT_NPV_QUANTILES)
    for p, q in result.npv_quantiles.items():
        h = (len(s) - 1) * p
        lo = int(h)
        assert q == pytest.approx(s[lo] + (h - lo) * (s[lo + 1] - s[lo]), rel=1e-9)


def test_run_stress_p_break_monotone_in_base_bcr(canonical_dist):
    p_breaks = []
    for target in (1.0, 1.2, 1.4, 1.7, 2.0):
        config = StressConfig(n_trials=20_000, seed=9, capex_dist=canonical_dist)
        p_breaks.append(run_stress(bcr_model(target), config).p_break)
    assert all(a >= b for a, b in zip(p_breaks, p_breaks[1:]))


def test_run_stress_shortfall_distribution(canonical_dist):
    shortfall_dist = build_quantile_dist(
        [(0.5, 0.11)], floor_x=0.001, tail_shape=-0.25, tail_scale=0.04
    )
    assert 0.11 + 0.04 / 0.25 <= 1.0  # bounded support, endpoint 0.27
    model = bcr_model(1.4)
    config = StressConfig(
        n_trials=5000, seed=3, capex_dist=near_degenerate_dist(1.0), shortfall=shortfall_dist
    )
    result = run_stress(model, config)
    # median shortfall 0.11 cuts the BCR to 1.4 * 0.89 > 1, and the bounded
    # tail keeps the worst shortfall below 1 - 1/1.4, so no trial breaks...
    assert shortfall_dist.quantile(0.999999) < 1 - 1 / 1.4
    assert result.p_break == 0.0
    # ...but the mean NPV reflects the average shortfall
    assert result.mean_npv < npv(model)


def test_stress_config_validation(canonical_dist):
    with pytest.raises(InputError):
        StressConfig(n_trials=0, seed=1, capex_dist=canonical_dist)
    with pytest.raises(InputError, match="est_duration_years"):
        StressConfig(n_trials=10, seed=1, capex_dist=canonical_dist,
                     schedule_dist=near_degenerate_dist(1.2))
    with pytest.raises(InputError, match="shortfall"):
        StressConfig(n_trials=10, seed=1, capex_dist=canonical_dist, shortfall=1.0)
    with pytest.raises(InputError, match="support"):
        unbounded = build_quantile_dist([(0.5, 0.2)], floor_x=0.01,
                                        tail_shape=0.1, tail_scale=0.1)
        StressConfig(n_trials=10, seed=1, capex_dist=canonical_dist, shortfall=unbounded)
    for duration in (math.inf, math.nan, -1.0):
        with pytest.raises(InputError, match="finite est_duration_years"):
            StressConfig(n_trials=10, seed=1, capex_dist=canonical_dist,
                         schedule_dist=near_degenerate_dist(1.2), est_duration_years=duration)
    with pytest.raises(InputError, match="est_duration_years applies only with a schedule"):
        StressConfig(n_trials=10, seed=1, capex_dist=canonical_dist, est_duration_years=8.6)


def test_stress_config_caps_trials_before_allocating(canonical_dist):
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="n_trials"):
            StressConfig(n_trials=MAX_TRIALS + 1, seed=1, capex_dist=canonical_dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert StressConfig(n_trials=MAX_TRIALS, seed=1, capex_dist=canonical_dist).n_trials == MAX_TRIALS


def test_stress_result_serialization_shape(canonical_dist):
    config = StressConfig(n_trials=100, seed=11, capex_dist=canonical_dist)
    result = run_stress(bcr_model(1.4), config)
    doc = result.to_dict()
    assert set(doc) == {"p_break", "p_break_se", "npv_quantiles", "mean_npv", "n_trials", "seed"}
    assert doc["seed"] == 11 and doc["n_trials"] == 100
    csv_text = result.quantiles_csv()
    assert csv_text.startswith("p,npv\n")
    assert len(csv_text.strip().splitlines()) == 1 + len(result.npv_quantiles)
    # each level is written as str(p), which reads back as the same float where :g would not
    odd = result._replace(npv_quantiles={0.30000000000000004: 1.0, 123456789.0: 2.0})
    assert list(odd.to_dict()["npv_quantiles"]) == ["0.30000000000000004", "123456789.0"]
    assert odd.quantiles_csv() == "p,npv\n0.30000000000000004,1.0\n123456789.0,2.0\n"


# ---------------------------------------------------------------------------
# analytic break probability


def test_p_break_analytic_anchor(canonical_dist):
    assert p_break_analytic(canonical_dist, 1.4) == pytest.approx(0.47, abs=1e-12)


def test_p_break_analytic_floor(canonical_dist):
    assert p_break_analytic(canonical_dist, 0.4) == 1.0
    assert p_break_analytic(canonical_dist, 0.2) == 1.0


def test_p_break_analytic_between_anchors_mc_oracle(canonical_dist):
    k = 1.6
    expected = p_break_analytic(canonical_dist, k)
    draws = canonical_dist.quantile_array(_rng.uniforms(123, CAPEX_TAG, 0, 10_000_000))
    p_mc = float(np.mean(draws >= k))
    se = math.sqrt(expected * (1 - expected) / draws.size)
    assert abs(p_mc - expected) <= 3 * se


def test_p_break_analytic_domain(canonical_dist):
    with pytest.raises(InputError):
        p_break_analytic(canonical_dist, 0.0)


# ---------------------------------------------------------------------------
# calibrated tail sampling (heavy-tail aware)


def test_calibrated_mean_recovered_from_large_sample(canonical_dist):
    draws = canonical_dist.quantile_array(_rng.uniforms(2024, CAPEX_TAG, 0, 10_000_000))
    sample_mean = float(draws.mean())
    se = float(draws.std(ddof=1)) / math.sqrt(draws.size)
    assert abs(sample_mean - canonical_dist.mean()) <= 4 * se
    # trimmed-mean convergence: compare against the analytic trimmed mean
    p_trim = 0.999
    cutoff = canonical_dist.quantile(p_trim)
    trimmed = draws[draws <= cutoff]
    analytic_trimmed = canonical_dist.partial_mean(p_trim) / p_trim
    trimmed_se = float(trimmed.std(ddof=1)) / math.sqrt(trimmed.size)
    assert abs(float(trimmed.mean()) - analytic_trimmed) <= 6 * trimmed_se


# ---------------------------------------------------------------------------
# sensitivity grid


def test_grid_identity_cell():
    model = build_stylized_model()
    grid = sensitivity_grid(model, benefit_mults=[1.0], cost_mults=[1.0])
    assert grid.bcr[0][0] == bcr(model)
    assert grid.irr[0][0] == irr(net_stream(model))


def test_grid_pattern_on_irr_15_model():
    # level benefits over 30 years sized so the IRR is exactly 15%
    rate = 0.15
    annuity = (1 - (1 + rate) ** -30) / rate
    model = AppraisalModel(
        capex=CashFlowStream(((0.0, 100.0),)),
        benefits=CashFlowStream.of([(float(t), 100.0 / annuity) for t in range(1, 31)]),
        discount_rate=0.11,
    )
    grid = sensitivity_grid(model, benefit_mults=[0.85, 1.0, 1.15], cost_mults=[1.0, 1.15])
    assert grid.irr[0][1] == pytest.approx(0.15, abs=1e-9)
    for row in grid.irr:  # IRR rises along the benefit axis
        assert all(a < b for a, b in zip(row, row[1:]))
    for j in range(3):  # IRR falls along the cost axis
        col = [row[j] for row in grid.irr]
        assert all(a > b for a, b in zip(col, col[1:]))


def test_grid_random_models_match_cell_recomputation():
    rng = np.random.default_rng(44)
    for _ in range(10):
        model = random_model(rng)
        b_mults = sorted(rng.uniform(0.6, 1.4, size=3))
        k_mults = sorted(rng.uniform(0.8, 1.6, size=3))
        grid = sensitivity_grid(model, b_mults, k_mults)
        pv_b, pv_c, pv_o = model.pv_benefits, model.pv_capex, model.pv_om
        for i, k in enumerate(k_mults):
            for j, b in enumerate(b_mults):
                stressed = apply_stress(model, cost_mult=k, benefit_mult=b)
                assert grid.bcr[i][j] == b * pv_b / (k * pv_c + pv_o)
                assert grid.bcr[i][j] == pytest.approx(bcr(stressed), rel=1e-12)
                assert grid.irr[i][j] == irr(net_stream(stressed))


def test_grid_monotonicity_randomized():
    rng = np.random.default_rng(52)
    count = 0
    while count < 100:
        outlay = float(rng.uniform(100, 400))
        entries = [(float(t), float(rng.uniform(20, 90))) for t in range(1, int(rng.integers(4, 12)))]
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


def test_grid_absent_irr_cell_still_returned():
    # all-positive net stream in every scenario: no IRR anywhere
    model = AppraisalModel(
        capex=CashFlowStream(((0.0, 1.0),)),
        benefits=CashFlowStream.of([(1.0, 500.0)]),
        discount_rate=0.1,
    )
    grid = sensitivity_grid(model, benefit_mults=[1.0, 1.1], cost_mults=[1.0])
    assert all(v is None for row in grid.irr for v in row)
    assert all(v > 1 for row in grid.bcr for v in row)
    assert "," in grid.to_csv()


def test_grid_empty_multiplier_lists():
    model = build_stylized_model()
    assert sensitivity_grid(model, [], [1.0, 2.0]).bcr == ((), ())
    grid = sensitivity_grid(model, [1.0], [])
    assert grid.irr == grid.bcr == () and grid.to_csv() == "cost_mult\\benefit_mult,1.0\n"


def test_grid_validation():
    with pytest.raises(InputError):
        sensitivity_grid(build_stylized_model(), [0.0], [1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="positive and finite"):
            sensitivity_grid(build_stylized_model(), [bad, 1.0], [1.0])
        with pytest.raises(InputError, match="positive and finite"):
            sensitivity_grid(build_stylized_model(), [1.0], [1.0, bad])


def test_grid_caps_cells_before_computing_any():
    model = build_stylized_model()
    mults = [1.0 + i / 1000 for i in range(101)]
    started = time.perf_counter()
    with pytest.raises(InputError, match=f"cap of {MAX_GRID_TERMS}"):
        sensitivity_grid(model, mults, [1.0] * 100)  # 10,001 cells
    assert time.perf_counter() - started < 0.5


def test_grid_caps_cells_times_entries_before_computing_any():
    # 100 cells of 3,201 entries (1 capex, 3,200 benefits, no O&M) is 320,100 terms
    model = AppraisalModel(capex=CashFlowStream.of([(0.0, 1e6)]),
                           benefits=CashFlowStream.of((1.0 + i / 100, 1.0) for i in range(3200)),
                           discount_rate=0.05)
    dam = build_stylized_model()  # 31 entries, counted as 32: the cap stays at 10,000 cells
    assert sum(len(leg.entries) for leg in (dam.benefits, dam.capex, dam.om_costs)) == 31
    assert 10_000 * 32 == MAX_GRID_TERMS
    mults = [1.0 + i / 1000 for i in range(10)]
    started = time.perf_counter()
    with pytest.raises(InputError, match=f"320100 cells x .* the cap of {MAX_GRID_TERMS}"):
        sensitivity_grid(model, mults, mults)
    assert time.perf_counter() - started < 0.5
    # a model under 32 entries counts 32 a cell: it keeps the 10,000-cell cap
    with pytest.raises(InputError, match=f"323200 cells x cash-flow entries"):
        sensitivity_grid(bcr_model(1.4), [1.0] * 101, [1.0] * 100)


# ---------------------------------------------------------------------------
# contingency sizing


def test_contingency_median_coverage(canonical_dist):
    result = size_contingency(bcr_model(1.4), canonical_dist, 0.50)
    assert result.contingency == pytest.approx(0.27, abs=1e-12)


def test_contingency_p80_do_not_proceed(canonical_dist):
    result = size_contingency(bcr_model(1.4), canonical_dist, 0.80)
    assert result.contingency == pytest.approx(0.99, abs=1e-12)
    assert result.adjusted_bcr == pytest.approx(1.4 / 1.99, rel=1e-9)
    assert result.adjusted_bcr == pytest.approx(0.704, abs=1e-3)
    assert not result.proceed
    assert result.to_dict()["decision"] == "do-not-proceed"


def test_contingency_degenerate_distribution():
    model = bcr_model(1.4)
    result = size_contingency(model, near_degenerate_dist(1.0), 0.50)
    assert result.contingency == 0.0
    assert result.adjusted_bcr == pytest.approx(bcr(model), rel=1e-12)
    assert result.proceed


def test_contingency_validation(canonical_dist):
    with pytest.raises(InputError):
        size_contingency(bcr_model(1.4), canonical_dist, 1.0)


# ---------------------------------------------------------------------------
# present values: computed once, when the model is built


def test_present_values_computed_once_per_model(monkeypatch, canonical_dist):
    calls = []
    present_value = CashFlowStream.present_value

    def counted(stream, rate):
        calls.append(rate)
        return present_value(stream, rate)

    monkeypatch.setattr(CashFlowStream, "present_value", counted)
    model = AppraisalModel(
        capex=CashFlowStream(((0.0, 100.0), (1.0, 20.0))),
        benefits=CashFlowStream.of((float(t), 30.0) for t in range(2, 12)),
        om_costs=CashFlowStream.of((float(t), 2.0) for t in range(2, 12)),
        discount_rate=0.07,
    )
    assert len(calls) == 3
    npv(model)
    bcr(model)
    bcr(model, 1.3, 0.9)
    break_even_overrun(model, 0.1)
    break_even_delay(model)
    size_contingency(model, canonical_dist, 0.8)
    config = StressConfig(2000, 5, canonical_dist, resolve_dist("big-dam-schedule"), 6.0, 0.1)
    run_stress(model, config)
    assert len(calls) == 3
