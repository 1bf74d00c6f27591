import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragilis.cashflow import (
    IRR_BRACKET,
    AppraisalModel,
    CashFlowStream,
    apply_stress,
    appraise,
    bcr,
    break_even_delay,
    break_even_overrun,
    discount_factor,
    irr,
    model_from_dict,
    model_to_dict,
    net_stream,
    npv,
    payoff_curve,
)
from fragilis.datasets import build_stylized_model, resolve_dist
from fragilis.errors import ComputeError, InputError
from fragilis.stress import StressConfig, run_stress, sensitivity_grid

from conftest import random_model, result_json


def simple_model(capex, benefits, rate, om=None):
    return AppraisalModel(
        capex=CashFlowStream.of(capex),
        benefits=CashFlowStream.of(benefits),
        om_costs=CashFlowStream.of(om or ()),
        discount_rate=rate,
    )


# ---------------------------------------------------------------------------
# discount_factor


def test_discount_factor_zero_rate():
    assert discount_factor(0.0, 5.0) == 1.0


def test_discount_factor_time_zero():
    assert discount_factor(0.10, 0.0) == 1.0


def test_discount_factor_hand_value():
    assert discount_factor(0.10, 2.0) == pytest.approx(1.0 / 1.21, rel=1e-12)


def test_discount_factor_domain_error():
    with pytest.raises(InputError):
        discount_factor(-1.0, 1.0)
    with pytest.raises(InputError):
        discount_factor(-1.5, 1.0)


def test_discount_factor_non_finite_time_is_input_error():
    for rate, t in ((0.1, math.nan), (0.1, math.inf), (-0.5, math.inf), (0.1, -math.inf)):
        with pytest.raises(InputError, match="non-finite cash flow entry"):
            discount_factor(rate, t)


def test_discount_factor_overflow_is_compute_error():
    with pytest.raises(ComputeError, match="overflows a float"):
        discount_factor(-0.99, 200.0)


def test_discount_factor_reports_a_bad_time_before_a_bad_rate():
    with pytest.raises(InputError, match="time must be >= 0"):
        discount_factor(-2.0, -1.0)
    with pytest.raises(InputError, match="discount rate must exceed -1"):
        discount_factor(-2.0, 1.0)


def test_discount_factor_is_the_power_bit_for_bit():
    for rate in (-0.99, -0.5, -1e-9, 0.0, 0.03, 0.07, 0.1, 1.0, 10.0):
        for t in (0.0, 0.25, 1.0, 7.5, 30.0, 100.0):
            assert discount_factor(rate, t) == (1.0 + rate) ** -t


def test_discount_factor_decreasing_in_t():
    factors = [discount_factor(0.07, t) for t in np.linspace(0, 40, 50)]
    assert all(a > b for a, b in zip(factors, factors[1:]))


# ---------------------------------------------------------------------------
# npv / bcr


def test_npv_hand_value():
    m = simple_model([(0, 100)], [(1, 60), (2, 60)], 0.10)
    assert npv(m) == pytest.approx(-100 + 60 / 1.1 + 60 / 1.21, rel=1e-12)
    assert npv(m) == pytest.approx(4.132231, abs=1e-6)


def test_npv_symmetric_zero():
    for r in (0.0, 0.05, 0.2):
        m = simple_model([(0, 100)], [(0, 100)], r)
        assert npv(m) == 0.0


def test_npv_zero_rate_is_plain_sum():
    m = simple_model([(0, 80), (1, 20)], [(3, 45), (9, 77)], 0.0, om=[(2, 5)])
    assert npv(m) == pytest.approx(45 + 77 - 80 - 20 - 5, rel=1e-13)


def test_bcr_reference_ratio():
    m = simple_model([(0, 100)], [(0, 140)], 0.08)
    assert bcr(m) == pytest.approx(1.4, rel=1e-12)


def test_bcr_identity():
    m = simple_model([(2, 55)], [(2, 55)], 0.12)
    assert bcr(m) == 1.0


def test_bcr_discounted_hand_value():
    m = simple_model([(0, 100)], [(1, 121)], 0.10)
    assert bcr(m) == pytest.approx(1.10, rel=1e-12)


def test_model_requires_positive_pain():
    with pytest.raises(InputError):
        simple_model([(0, 0.0)], [(1, 10)], 0.1)


def test_model_rejects_negative_amounts():
    with pytest.raises(InputError):
        simple_model([(0, -5.0)], [(1, 10)], 0.1)


def test_stream_rejects_unsorted_and_negative_time():
    with pytest.raises(InputError):
        CashFlowStream(((2.0, 1.0), (1.0, 1.0)))
    with pytest.raises(InputError):
        CashFlowStream(((-1.0, 1.0),))
    assert CashFlowStream(()).present_value(0.1) == 0.0  # an empty leg is valid and worth 0


def test_present_value_bad_rate_is_input_error():
    # checked once a call, before the overflow check: not a ComputeError
    with pytest.raises(InputError):
        CashFlowStream(((1.0, 1.0),)).present_value(-1.0)


def test_present_value_inf_minus_inf_is_compute_error():
    # at rate -0.5 both terms overflow, to inf and -inf; fsum raises ValueError on them
    with pytest.raises(ComputeError, match="overflows a float"):
        CashFlowStream(((1.0, 1e308), (1.0, -1e308))).present_value(-0.5)


# ---------------------------------------------------------------------------
# present value and irr against literal per-entry oracles


def pv_oracle(entries, rate):
    """Present value in the per-entry form: one discount factor per entry, each checking
    the rate and the time, summed by math.fsum. None where the value leaves the float range."""
    def factor(t):
        if not rate > -1.0:
            raise InputError(f"discount rate must exceed -1, got {rate}")
        if t < 0:
            raise InputError(f"time must be >= 0, got {t}")
        return (1.0 + rate) ** -t
    try:
        total = math.fsum(a * factor(t) for t, a in entries)
    except (OverflowError, ValueError):
        return None
    return total if math.isfinite(total) else None


def pv_or_none(stream, rate):
    try:
        return stream.present_value(rate)
    except ComputeError:
        return None


def irr_oracle(entries):
    """irr's scan of 513 rates and its bisection, written out over pv_oracle."""
    lo, hi = IRR_BRACKET
    step = (hi - lo) / 512
    a, fa = lo, None
    for i in range(513):
        b = lo + i * step
        fb = pv_oracle(entries, b)
        if fb is None:
            continue
        if fb == 0.0:
            return b
        if fa is not None and (fa < 0.0) != (fb < 0.0):
            while b - a > 1e-12:
                mid = 0.5 * (a + b)
                fm = pv_oracle(entries, mid)
                if fm == 0.0:
                    return mid
                if (fa < 0.0) != (fm < 0.0):
                    b = mid
                else:
                    a, fa = mid, fm
            return 0.5 * (a + b)
        a, fa = b, fb
    return None


SCAN_RATES = [IRR_BRACKET[0] + i * ((IRR_BRACKET[1] - IRR_BRACKET[0]) / 512) for i in range(513)]

# the stylized dam's net stream as is and under multipliers, no-root cells included
DAM_CELLS = [(1.0, 1.0), (1.3, 0.8), (0.7, 1.2), (0.001, 1000.0), (1000.0, 0.001), (2.0, 0.5)]

_streams = st.lists(
    st.tuples(st.floats(0.0, 200.0), st.floats(-1e6, 1e6, allow_subnormal=False)),
    min_size=1, max_size=8,
).map(CashFlowStream.of)


def test_present_value_matches_per_entry_oracle_on_the_dam_at_every_scan_rate():
    model = build_stylized_model()
    for k, b in DAM_CELLS:
        stream = net_stream(model, k, b)
        for rate in SCAN_RATES:
            assert pv_or_none(stream, rate) == pv_oracle(stream.entries, rate), (k, b, rate)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(_streams)
def test_present_value_matches_per_entry_oracle_at_every_scan_rate(stream):
    for rate in SCAN_RATES:
        assert pv_or_none(stream, rate) == pv_oracle(stream.entries, rate), rate


def test_irr_matches_the_literal_scan_and_bisect_on_the_dam():
    model = build_stylized_model()
    for k, b in DAM_CELLS:
        stream = net_stream(model, k, b)
        assert irr(stream) == irr_oracle(stream.entries), (k, b)
    assert irr(net_stream(model, 0.001, 1000.0)) is None


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(_streams)
def test_irr_matches_the_literal_scan_and_bisect(stream):
    assert irr(stream) == irr_oracle(stream.entries)


# ---------------------------------------------------------------------------
# irr


def test_irr_one_period():
    rate = irr(CashFlowStream.of([(0, -100), (1, 110)]))
    assert rate == pytest.approx(0.10, abs=1e-9)


def test_irr_two_period_quadratic():
    # -100 + 60x + 60x^2 = 0 in x = 1/(1+r)
    x = (-60 + math.sqrt(60**2 + 4 * 60 * 100)) / (2 * 60)
    expected = 1.0 / x - 1.0
    rate = irr(CashFlowStream.of([(0, -100), (1, 60), (2, 60)]))
    assert rate == pytest.approx(expected, abs=1e-9)
    assert rate == pytest.approx(0.1307, abs=1e-3)


def test_irr_money_losing_stream_has_negative_root():
    # -100 + 50/(1+r) = 0 at r = -0.5, inside the search bracket: a project
    # returning half its outlay has an IRR of -50%, not an undefined one
    rate = irr(CashFlowStream.of([(0, -100), (1, 50)]))
    assert rate == pytest.approx(-0.5, abs=1e-9)


def test_irr_absent_when_no_sign_change():
    # all-negative stream: NPV < 0 on the whole bracket
    assert irr(CashFlowStream.of([(0, -100), (1, -50)])) is None


def test_irr_root_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        stream = CashFlowStream.of(
            [(0.0, -float(rng.uniform(50, 400)))]
            + [(float(t), float(rng.uniform(10, 120))) for t in range(1, int(rng.integers(2, 9)))]
        )
        rate = irr(stream)
        if rate is None:
            continue
        scale = sum(abs(a) for _, a in stream.entries)
        assert abs(stream.present_value(rate)) <= 1e-6 * scale


def test_irr_polynomial_oracle_integer_times():
    # integer-time streams make NPV * (1+r)^T a polynomial in 1/(1+r):
    # np.roots provides an independent root set to compare against
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(200):
        horizon = int(rng.integers(2, 7))
        amounts = [-float(rng.uniform(50, 300))] + [
            float(rng.uniform(5, 120)) for _ in range(horizon)
        ]
        stream = CashFlowStream.of([(float(t), a) for t, a in enumerate(amounts)])
        rate = irr(stream)
        coeffs = amounts[::-1]  # polynomial in x = 1/(1+r), highest degree first
        roots = np.roots(coeffs)
        real = [
            1.0 / x.real - 1.0
            for x in roots
            if abs(x.imag) < 1e-9 and 1.0 / 11.0 <= x.real
        ]
        candidates = sorted(r for r in real if -0.99 < r <= 10.0)
        if rate is None:
            assert not candidates
            continue
        checked += 1
        assert candidates
        assert rate == pytest.approx(candidates[0], abs=1e-7)
    assert checked > 150


# ---------------------------------------------------------------------------
# payoff curve


def test_payoff_pain_dominates():
    m = simple_model([(0, 60), (0, 40)], [(0, 50), (0, 30)], 0.0)
    curve = payoff_curve(m)
    assert curve.gains_desc == (50.0, 30.0)
    assert curve.pains_desc == (60.0, 40.0)
    assert curve.fragility_index == 0


def test_payoff_equal_streams_absent():
    m = simple_model([(0, 50), (1, 30)], [(0, 50), (1, 30)], 0.07)
    assert payoff_curve(m).fragility_index is None


def _payoff_index_oracle(gains, pains):
    gains = sorted(gains, reverse=True)
    pains = sorted(pains, reverse=True)
    if sum(pains) <= sum(gains):
        return None
    for k in range(max(len(gains), len(pains))):
        g = sum(gains[: k + 1])
        p = sum(pains[: k + 1])
        if p > g:
            return k
    return None


def test_payoff_three_entry_mixed_case():
    m = simple_model([(0, 45), (1, 45), (2, 45)], [(0, 50), (1, 40), (2, 30)], 0.0)
    curve = payoff_curve(m)
    assert curve.fragility_index == _payoff_index_oracle([50, 40, 30], [45, 45, 45])


def test_payoff_brute_force_randomized():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = random_model(rng)
        curve = payoff_curve(m)
        gains = [a * (1 + m.discount_rate) ** -t for t, a in m.benefits.entries if a != 0]
        pains = [
            a * (1 + m.discount_rate) ** -t
            for t, a in m.capex.entries + m.om_costs.entries
            if a != 0
        ]
        assert curve.fragility_index == _payoff_index_oracle(gains, pains)
        assert all(a >= b for a, b in zip(curve.gains_desc, curve.gains_desc[1:]))
        assert all(a <= b for a, b in zip(curve.cum_pain, curve.cum_pain[1:]))


def test_payoff_running_totals_are_exact_prefix_sums():
    # 50,000 amounts across many binades; an fsum per prefix is quadratic (about 30 s on 2 CPUs)
    rng = np.random.default_rng(20)
    n = 50_000
    times = np.sort(rng.uniform(0.0, 40.0, n)).tolist()
    m = simple_model([(0, 1.0)], zip(times, rng.lognormal(0.0, 4.0, n).tolist()), 0.05)
    started = time.perf_counter()
    curve = payoff_curve(m)
    assert time.perf_counter() - started < 5.0
    for i in [0, n - 1, *rng.choice(n, 300, replace=False).tolist()]:
        assert curve.cum_gain[i] == math.fsum(curve.gains_desc[: i + 1])
    assert curve.cum_pain == (1.0,)


# ---------------------------------------------------------------------------
# break-even overrun


def test_break_even_overrun_equals_bcr_without_om():
    m = simple_model([(0, 100)], [(0, 140)], 0.1)
    result = break_even_overrun(m)
    assert result.k_star == pytest.approx(1.4, rel=1e-12)
    assert not result.broken_regardless
    # with zero O&M and zero shortfall the identity k* == BCR is exact
    rng = np.random.default_rng(71)
    for _ in range(50):
        m2 = random_model(rng, with_om=False)
        assert break_even_overrun(m2).k_star == bcr(m2)


def test_break_even_overrun_with_om():
    # PV(ben)=140, PV(om)=20, PV(capex)=80 at r=0
    m = simple_model([(0, 80)], [(0, 140)], 0.0, om=[(0, 20)])
    result = break_even_overrun(m)
    assert result.k_star == pytest.approx(1.5, rel=1e-12)
    # cross-check: binary search on the capex multiplier until npv == 0
    lo, hi = 0.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if npv(apply_stress(m, cost_mult=mid)) > 0:
            lo = mid
        else:
            hi = mid
    assert result.k_star == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def test_break_even_overrun_with_shortfall():
    m = simple_model([(0, 100)], [(0, 140)], 0.05)
    result = break_even_overrun(m, benefit_shortfall=0.11)
    assert result.k_star == pytest.approx(1.4 * 0.89, rel=1e-12)
    assert result.k_star == pytest.approx(1.246, abs=1e-3)


def test_break_even_overrun_broken_regardless():
    m = simple_model([(0, 100)], [(0, 50)], 0.0, om=[(0, 60)])
    result = break_even_overrun(m)
    assert result.k_star == 0.0
    assert result.broken_regardless


def test_break_even_overrun_domain_error():
    m = AppraisalModel(
        capex=CashFlowStream(()),
        benefits=CashFlowStream.of([(1, 10)]),
        om_costs=CashFlowStream.of([(0, 5)]),
        discount_rate=0.1,
    )
    with pytest.raises(InputError):
        break_even_overrun(m)


# ---------------------------------------------------------------------------
# apply_stress


def test_apply_stress_identity():
    m = simple_model([(0, 100), (1, 50)], [(2, 60), (3, 60)], 0.08, om=[(2, 5)])
    same = apply_stress(m, 1.0, 1.0, 0.0)
    assert same == m


def test_apply_stress_joint_cell():
    m = simple_model([(0, 100)], [(1, 60)], 0.1, om=[(1, 4)])
    stressed = apply_stress(m, cost_mult=1.15, benefit_mult=0.85, delay_years=0.0)
    assert stressed.capex.entries == ((0.0, 100 * 1.15),)
    assert stressed.benefits.entries == ((1.0, 60 * 0.85),)
    assert stressed.om_costs.entries == ((1.0, 4.0),)


def test_apply_stress_pure_shift():
    m = simple_model([(0, 100)], [(1, 42)], 0.1)
    stressed = apply_stress(m, 1.0, 1.0, 3.0)
    assert stressed.benefits.entries == ((4.0, 42.0),)
    assert stressed.capex.entries == ((0.0, 100.0),)  # capex never shifts


def test_net_stream_multipliers_match_apply_stress():
    rng = np.random.default_rng(61)
    for _ in range(60):
        m = random_model(rng)
        for k, b in ((1.0, 1.0), (1.3, 0.85), (0.9, 1.2)):
            assert net_stream(m, k, b) == net_stream(apply_stress(m, k, b))


def test_apply_stress_overflow_is_compute_error():
    # scaled is the one place an amount is multiplied, so both paths fail alike
    m = simple_model([(0, 1000), (1, 50)], [(2, 600), (3, 600)], 0.08)
    for stressed in (lambda: apply_stress(m, cost_mult=1e306), lambda: net_stream(m, 1e306)):
        with pytest.raises(ComputeError, match="a scaled cash flow amount overflows a float"):
            stressed()


@pytest.mark.parametrize("mults", [(math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0)])
def test_apply_stress_rejects_nan_and_negative_multipliers(mults):
    m = simple_model([(0, 100)], [(1, 60)], 0.1)
    with pytest.raises(InputError, match="stress multipliers must be >= 0"):
        apply_stress(m, *mults)


@pytest.mark.parametrize("delay", [-1.0, math.nan])
def test_apply_stress_rejects_negative_and_nan_delay(delay):
    m = simple_model([(0, 100)], [(1, 60)], 0.1)
    with pytest.raises(InputError, match="delay must be >= 0"):
        apply_stress(m, delay_years=delay)
    # the multipliers are checked first, the delay before an overflowing scale
    with pytest.raises(InputError, match="stress multipliers must be >= 0"):
        apply_stress(m, cost_mult=math.nan, delay_years=delay)
    with pytest.raises(InputError, match="delay must be >= 0"):
        apply_stress(m, cost_mult=1e307, benefit_mult=1e307, delay_years=delay)


# ---------------------------------------------------------------------------
# break-even delay


def test_break_even_delay_closed_form():
    annuity = (1 - 1.11**-30) / 0.11
    m = simple_model(
        [(0, 1000)], [(float(t), 1400 / annuity) for t in range(1, 31)], 0.11
    )
    result = break_even_delay(m)
    assert not result.already_at_threshold
    assert result.years == pytest.approx(math.log(1.4) / math.log(1.11), abs=1e-6)
    assert result.years == pytest.approx(3.224, abs=1e-3)


def test_break_even_delay_at_threshold():
    m = simple_model([(0, 100)], [(0, 100)], 0.1)
    result = break_even_delay(m)
    assert result.years == 0.0
    assert result.already_at_threshold


def test_break_even_delay_zero_rate_absent():
    m = simple_model([(0, 100)], [(1, 140)], 0.0)
    result = break_even_delay(m)
    assert result.years is None
    assert not result.already_at_threshold


def test_break_even_delay_closed_form_property():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 100:
        m = random_model(rng, r_range=(0.01, 0.25), with_om=False)
        if bcr(m) <= 1.0:
            continue
        result = break_even_delay(m)
        expected = math.log(bcr(m)) / math.log(1.0 + m.discount_rate)
        assert abs(result.years - expected) < 1e-5
        checked += 1


def test_break_even_delay_with_om_property():
    # delay shifts O&M with the benefits, so d* must reach BCR 1 on the literal
    # stressed model, not only in the O&M-free closed form above
    rng = np.random.default_rng(5)
    checked = with_om = 0
    while checked < 200:
        m = random_model(rng, r_range=(0.01, 0.25))
        if bcr(m) <= 1.0:
            continue
        d_star = break_even_delay(m).years
        assert abs(bcr(apply_stress(m, delay_years=d_star)) - 1.0) < 1e-9
        checked += 1
        with_om += m.pv_om > 0.0
    assert with_om >= 100


# ---------------------------------------------------------------------------
# invariants


def test_sign_equivalence_randomized():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        m = random_model(rng)
        positive = npv(m) > 0
        assert (bcr(m) > 1) == positive
        assert (payoff_curve(m).fragility_index is None) == positive


def test_threshold_consistency_randomized():
    rng = np.random.default_rng(17)
    count = 0
    while count < 1000:
        m = random_model(rng)
        s = float(rng.uniform(0.0, 0.5))
        k = break_even_overrun(m, s)
        if k.broken_regardless or k.k_star == 0.0:
            continue
        stressed = apply_stress(m, cost_mult=k.k_star, benefit_mult=1.0 - s)
        assert bcr(stressed) == pytest.approx(1.0, rel=1e-9)
        count += 1


def test_bcr_monotone_in_stress():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = random_model(rng, r_range=(0.01, 0.25))
        ks = [0.5, 1.0, 1.5, 2.5]
        bs = [0.5, 0.9, 1.0, 1.3]
        ds = [0.0, 1.0, 4.0, 10.0]
        bcr_k = [bcr(apply_stress(m, cost_mult=k)) for k in ks]
        assert all(a >= b - 1e-12 for a, b in zip(bcr_k, bcr_k[1:]))
        bcr_b = [bcr(apply_stress(m, benefit_mult=b)) for b in bs]
        assert all(a <= b + 1e-12 for a, b in zip(bcr_b, bcr_b[1:]))
        bcr_d = [bcr(apply_stress(m, delay_years=d)) for d in ds]
        assert all(a >= b - 1e-12 for a, b in zip(bcr_d, bcr_d[1:]))


def test_irr_npv_residual_invariant():
    # single-sign-change streams with positive undiscounted totals have their
    # unique root at r > 0, where the NPV slope is mild enough for the
    # residual check to be meaningful in float64
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 200:
        outlay = float(rng.uniform(100, 400))
        horizon = int(rng.integers(3, 15))
        entries = [(0.0, -outlay)] + [
            (float(t), float(rng.uniform(10, 120))) for t in range(1, horizon + 1)
        ]
        stream = CashFlowStream.of(entries)
        if math.fsum(a for _, a in stream.entries) <= 0:
            continue
        rate = irr(stream)
        assert rate is not None
        scale = sum(abs(a) for _, a in stream.entries)
        assert abs(stream.present_value(rate)) <= 1e-6 * scale
        checked += 1


# ---------------------------------------------------------------------------
# appraise + serialization


def test_appraise_composes_fields():
    m = simple_model([(0, 100)], [(1, 60), (2, 60)], 0.10)
    result = appraise(m)
    assert result.npv == npv(m)
    assert result.bcr == bcr(m)
    assert result.break_even_overrun == break_even_overrun(m).k_star
    assert result.irr == pytest.approx(0.130662, abs=1e-5)


def test_appraise_delay_absent_when_broken():
    m = simple_model([(0, 100)], [(1, 60)], 0.10)
    assert bcr(m) < 1
    result = appraise(m)
    assert result.break_even_delay is None


def test_model_json_round_trip():
    m = simple_model([(0, 100.5), (1.5, 20.25)], [(2, 60.125)], 0.0825, om=[(3, 1.75)])
    doc = model_to_dict(m)
    back = model_from_dict(doc)
    assert back == m


def test_model_json_empty_om_means_zero():
    doc = {
        "discount_rate": 0.1,
        "base_year": 2000,
        "capex": [{"t": 0, "amount": 10}],
        "om": [],
        "benefits": [{"t": 1, "amount": 20}],
    }
    m = model_from_dict(doc)
    assert m.om_costs.entries == ()
    assert m.pv_om == 0.0
    # the stylized dam with "om": [] and with one zero O&M entry: every figure has the same
    # bits (repr tells -0.0 from 0.0), across appraise, payoff_curve, a grid with no-root
    # cells (cost x 0.001, benefit x 1000) and a seeded full-shape stress run
    doc = model_to_dict(build_stylized_model())
    assert doc["om"] == []
    empty = model_from_dict(doc)
    zero = model_from_dict({**doc, "om": [{"t": 0, "amount": 0}]})
    assert len(zero.om_costs.entries) == 1
    config = StressConfig(20_001, 3, resolve_dist("big-dam"), resolve_dist("big-dam-schedule"),
                          8.6, 0.11)

    def figures(model):
        grid = sensitivity_grid(model, [1.0, 1000.0], [0.001, 1.0])
        return (repr(appraise(model)), repr(appraise(model, 0.2)), repr(payoff_curve(model)),
                repr(grid), result_json(run_stress(model, config)))

    assert figures(empty) == figures(zero)
    assert None in sensitivity_grid(empty, [1000.0], [0.001]).irr[0]
