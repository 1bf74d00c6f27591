"""Deterministic appraisal math for a single capital project.

Discounting, NPV, benefit-to-cost ratio, IRR, the sorted gain/pain payoff
curve, and the two break-even fragility thresholds: the capex overrun
multiplier and the benefit/O&M delay at which the project's BCR hits 1.

AppraisalModel computes its three present values B (benefits), C (capex)
and O (O&M) once, at construction. npv, bcr and both break-evens are each
one formula over them, as are the stressed figures in stress.py. Only irr
(at each rate it tries) and payoff_curve (entry by entry) discount again.
A CashFlowStream checks its entry times when built, present_value checks the
rate once a call, and discount_factor is a one-entry stream's present value.
Every present value and every ratio over them goes through errors.finite: a
sum past the float range or a divisor of 0 raises ComputeError, not inf.

Conventions (documented, not configurable):
  * discrete annual compounding (1 + r) ** -t, fractional t allowed;
  * delay shifts benefits and O&M in time but leaves capex on its original
    schedule (upfront costs are sunk when the delay materializes);
  * a project "breaks" when discounted pain exceeds discounted gain, i.e.
    BCR < 1, equivalently NPV < 0.

All types are immutable; all operations are pure.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, repeat
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import ComputeError, Frozen, InputError, checked, finite, load_json

IRR_BRACKET = (-0.99, 10.0)
_IRR_SCAN_SEGMENTS = 512
_IRR_TOL = 1e-12
_UNIT = 1 << 1074  # every finite float is a whole number of 2**-1074 units


def discount_factor(rate: float, t: float) -> float:
    """(1 + rate) ** -t, the present value of one unit paid t years out, as a one-entry stream."""
    return CashFlowStream(((t, 1.0),)).present_value(rate)


@checked
class CashFlowStream(NamedTuple):
    """Dated amounts in constant base-year currency.

    Entries are (time in years from the decision date, amount) pairs, kept
    sorted by ascending time. Amounts may carry either sign at this level;
    AppraisalModel restricts signs per stream role. A stream may be empty (a
    leg with no cash flows); its present value is then 0.0.
    """

    entries: tuple[tuple[float, float], ...]

    def _check(self) -> None:
        prev_t = -math.inf
        for t, amount in self.entries:
            if not (math.isfinite(t) and math.isfinite(amount)):
                raise InputError(f"non-finite cash flow entry ({t}, {amount})")
            if t < 0:
                raise InputError(f"cash flow time must be >= 0, got {t}")
            if t < prev_t:
                raise InputError("cash flow entries must be sorted by ascending time")
            prev_t = t

    @staticmethod
    def of(entries: Iterable[tuple[float, float]]) -> "CashFlowStream":
        """Build from any iterable, sorting by time."""
        return CashFlowStream(tuple(sorted((float(t), float(a)) for t, a in entries)))

    def present_value(self, rate: float) -> float:
        """Sum of amounts times (1 + rate) ** -t, exact by math.fsum, so independent of
        entry order. A rate at or below -1 raises InputError (each entry time is >= 0 by
        construction), and a term or sum past the float range, ComputeError."""
        if not rate > -1.0:
            raise InputError(f"discount rate must exceed -1, got {rate}")
        return finite(f"present value at rate {rate} overflows a float",
                      lambda: math.fsum(a * (1.0 + rate) ** -t for t, a in self.entries))

    def scaled(self, factor: float) -> "CashFlowStream":
        """Every amount times factor. One past the float range raises ComputeError."""
        entries = tuple((t, a * factor) for t, a in self.entries)
        if not all(math.isfinite(a) for _, a in entries):
            raise ComputeError("a scaled cash flow amount overflows a float")
        return CashFlowStream(entries)

    def shifted(self, years: float) -> "CashFlowStream":
        if not years >= 0:
            raise InputError(f"delay must be >= 0, got {years}")
        return CashFlowStream(tuple((t + years, a) for t, a in self.entries))


def _require_nonnegative(stream: CashFlowStream, role: str) -> None:
    for t, a in stream.entries:
        if a < 0:
            raise InputError(f"{role} amounts must be >= 0, got {a} at t={t}")


class AppraisalModel(Frozen):
    """A project's real cash flows plus its real discount rate.

    capex and om_costs are pain, benefits are gain; all amounts >= 0 and in
    the same constant base-year currency. Total discounted pain must be
    positive.

    pv_benefits, pv_capex and pv_om (B, C, O) are the streams' present values
    at discount_rate, computed once after the amount checks; the first one
    rejects a rate at or below -1. They are derived, so they take no part in
    equality, hashing, repr or pickling. A model is immutable.
    """

    _fields = ("capex", "benefits", "discount_rate", "om_costs", "base_year")
    __slots__ = (*_fields, "pv_benefits", "pv_capex", "pv_om")

    def __init__(self, capex: CashFlowStream, benefits: CashFlowStream, discount_rate: float,
                 om_costs: CashFlowStream = CashFlowStream(()), base_year: int = 0) -> None:
        for name, value in zip(self._fields, (capex, benefits, discount_rate, om_costs, base_year)):
            object.__setattr__(self, name, value)
        self.__post_init__()  # perfbench counts model builds at this name

    def __post_init__(self) -> None:
        _require_nonnegative(self.capex, "capex")
        _require_nonnegative(self.om_costs, "O&M")
        _require_nonnegative(self.benefits, "benefit")
        r = self.discount_rate
        object.__setattr__(self, "pv_benefits", self.benefits.present_value(r))
        object.__setattr__(self, "pv_capex", self.capex.present_value(r))
        object.__setattr__(self, "pv_om", self.om_costs.present_value(r))
        pain = finite("present value of pain is not a finite float",
                      lambda: math.fsum((self.pv_capex, self.pv_om)))
        if not pain > 0.0:
            raise InputError("present value of total pain must be positive")


def npv(model: AppraisalModel) -> float:
    """Discounted benefits minus discounted capex and O&M: B - C - O."""
    return math.fsum((model.pv_benefits, -model.pv_capex, -model.pv_om))


def bcr(model: AppraisalModel, cost_mult: float = 1.0, benefit_mult: float = 1.0) -> float:
    """Gain-to-pain ratio b*B / (k*C + O), with capex scaled by cost_mult = k
    and benefits by benefit_mult = b as apply_stress scales them. Below 1 the
    project is broken."""
    return finite("BCR is not a finite float", lambda: benefit_mult * model.pv_benefits
                  / math.fsum((cost_mult * model.pv_capex, model.pv_om)))


def net_stream(
    model: AppraisalModel, cost_mult: float = 1.0, benefit_mult: float = 1.0
) -> CashFlowStream:
    """Merged signed stream (benefits positive, costs negative), for IRR, with capex and benefit
    amounts scaled as apply_stress scales them. One past the float range raises ComputeError."""
    legs = (model.benefits.scaled(benefit_mult), model.capex.scaled(-cost_mult),
            model.om_costs.scaled(-1.0))
    return CashFlowStream.of(entry for leg in legs for entry in leg.entries)


def irr(stream: CashFlowStream) -> float | None:
    """Smallest rate in [-0.99, 10] where the stream's NPV crosses zero.

    Scans the bracket left to right for a sign change, then bisects. Scan
    points where the NPV overflows a float (low rates on far cash flows) are
    skipped. Returns None when the NPV never changes sign on the bracket.
    Streams with several sign reversals can have several roots; by convention
    the smallest is returned.
    """
    lo, hi = IRR_BRACKET
    step = (hi - lo) / _IRR_SCAN_SEGMENTS
    a, fa = lo, None
    for i in range(_IRR_SCAN_SEGMENTS + 1):
        b = lo + i * step
        try:
            fb = stream.present_value(b)
        except ComputeError:
            continue
        if fb == 0.0:
            return b
        if fa is not None and (fa < 0.0) != (fb < 0.0):
            return _bisect(stream.present_value, a, b, fa)
        a, fa = b, fb
    return None


def _bisect(f, a: float, b: float, fa: float) -> float:
    while b - a > _IRR_TOL:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


class PayoffCurve(NamedTuple):
    """Sorted, discounted gain and pain amounts with their running totals.

    fragility_index is the 0-based event count at which cumulative pain first
    exceeds cumulative gain when both curves are read in parallel (the shorter
    curve staying flat at its total once exhausted). It is present exactly
    when total pain exceeds total gain, i.e. when BCR < 1.
    """

    gains_desc: tuple[float, ...]
    pains_desc: tuple[float, ...]
    cum_gain: tuple[float, ...]
    cum_pain: tuple[float, ...]
    fragility_index: int | None


def payoff_curve(model: AppraisalModel) -> PayoffCurve:
    """Discount every entry, sort gains and pains descending, and locate the
    point of fragility where cumulative pain overtakes cumulative gain.
    Zero amounts are not cash-flow events and are dropped."""
    def curve(entries):  # the discounted amounts, descending, and their running totals
        r = model.discount_rate
        amounts = sorted((a * (1.0 + r) ** -t for t, a in entries if a != 0.0), reverse=True)
        # one exact running sum, rounded once per entry: each prefix's math.fsum
        units = (n * (_UNIT // d) for n, d in map(float.as_integer_ratio, amounts))
        return tuple(amounts), tuple(total / _UNIT for total in accumulate(units))

    gains, cum_gain = curve(model.benefits.entries)
    pains, cum_pain = curve(model.capex.entries + model.om_costs.entries)
    total_gain = cum_gain[-1] if cum_gain else 0.0
    total_pain = cum_pain[-1] if cum_pain else 0.0

    index: int | None = None
    if total_pain > total_gain:  # so pain leads once both curves reach their totals
        pairs = zip(chain(cum_gain, repeat(total_gain)), chain(cum_pain, repeat(total_pain)))
        index = next(k for k, (g, p) in enumerate(pairs) if p > g)
    return PayoffCurve(gains, pains, cum_gain, cum_pain, index)


class BreakEvenOverrun(NamedTuple):
    """Capex multiplier at which BCR reaches 1, with its degenerate flag."""

    k_star: float
    broken_regardless: bool  # True when no capex level saves the project


def break_even_overrun(model: AppraisalModel, benefit_shortfall: float = 0.0) -> BreakEvenOverrun:
    """Capex overrun ratio k* at which the project's BCR falls to 1.

    k* = (PV(benefits) * (1 - shortfall) - PV(om)) / PV(capex), holding O&M
    and shortfall-adjusted benefits fixed. A negative solution means the
    project is broken at any capex level (O&M alone outweighs the adjusted
    benefits); then k* is reported as 0 with broken_regardless set.
    """
    if not 0.0 <= benefit_shortfall < 1.0:
        raise InputError(f"benefit shortfall must be in [0, 1), got {benefit_shortfall}")
    if model.pv_capex <= 0.0:
        raise InputError("break-even overrun undefined: PV(capex) is zero")
    surplus = model.pv_benefits * (1.0 - benefit_shortfall) - model.pv_om
    if surplus < 0.0:
        return BreakEvenOverrun(0.0, True)
    k_star = finite("break-even overrun is not a finite float", lambda: surplus / model.pv_capex)
    return BreakEvenOverrun(k_star, False)


def apply_stress(
    model: AppraisalModel,
    cost_mult: float = 1.0,
    benefit_mult: float = 1.0,
    delay_years: float = 0.0,
) -> AppraisalModel:
    """Stressed copy of the model.

    Capex amounts are scaled by cost_mult on their original schedule; benefit
    amounts are scaled by benefit_mult and shifted delay_years later along
    with the O&M schedule (amounts unchanged). A scaled amount past the
    float range raises ComputeError.
    """
    if not (cost_mult >= 0 and benefit_mult >= 0):  # NaN fails too
        raise InputError("stress multipliers must be >= 0")
    return AppraisalModel(  # shift before scaling: a bad delay is reported before an overflow
        benefits=model.benefits.shifted(delay_years).scaled(benefit_mult),
        capex=model.capex.scaled(cost_mult),
        om_costs=model.om_costs.shifted(delay_years),
        discount_rate=model.discount_rate,
        base_year=model.base_year,
    )


class BreakEvenDelay(NamedTuple):
    """Delay (years) at which BCR reaches 1; None when delay cannot break it."""

    years: float | None
    already_at_threshold: bool  # BCR <= 1 before any delay


def break_even_delay(model: AppraisalModel) -> BreakEvenDelay:
    """Smallest delay d >= 0 with BCR(apply_stress(model, 1, 1, d)) = 1.

    A delay of d years scales B and O by x = (1+r)**-d, so BCR = x*B / (C + x*O)
    reaches 1 at x = C / (B - O): d* = log((B - O) / C) / log1p(r). BCR <= 1 at
    d=0 reports 0 years with the threshold flag; a non-positive discount rate
    or zero capex makes delay harmless, reported as None.
    """
    if bcr(model) <= 1.0:
        return BreakEvenDelay(0.0, True)
    pv_c, r = model.pv_capex, model.discount_rate
    if r <= 0.0 or pv_c == 0.0:
        return BreakEvenDelay(None, False)
    years = finite("break-even delay is not a finite float",
                   lambda: math.log((model.pv_benefits - model.pv_om) / pv_c) / math.log1p(r))
    return BreakEvenDelay(years, False)


class AppraisalResult(NamedTuple):
    """Headline appraisal figures for one model.

    break_even_delay is None when BCR <= 1 (already at or past the threshold)
    and also when the discount rate is non-positive (a delay then costs
    nothing). irr is None when the net stream's NPV never changes sign on the
    search bracket.
    """

    npv: float
    bcr: float
    irr: float | None
    break_even_overrun: float
    break_even_delay: float | None
    broken_regardless_of_capex: bool = False


def appraise(model: AppraisalModel, benefit_shortfall: float = 0.0) -> AppraisalResult:
    """Run the full deterministic appraisal: NPV, BCR, IRR, both break-evens."""
    overrun = break_even_overrun(model, benefit_shortfall)
    delay = break_even_delay(model)
    d_star = None if delay.already_at_threshold else delay.years
    return AppraisalResult(npv(model), bcr(model), irr(net_stream(model)), overrun.k_star,
                           d_star, overrun.broken_regardless)


# ---------------------------------------------------------------------------
# JSON document form: {discount_rate, base_year, capex, om, benefits} with
# each stream as a list of {t, amount} objects.


def _stream_to_obj(stream: CashFlowStream) -> list[dict]:
    return [{"t": t, "amount": a} for t, a in stream.entries]


def _stream_from_obj(obj, name: str) -> CashFlowStream:
    if not isinstance(obj, list):
        raise InputError(f"stream {name!r} must be a list of {{t, amount}} objects")
    entries = []
    for i, item in enumerate(obj):
        try:
            entries.append((float(item["t"]), float(item["amount"])))
        except (KeyError, TypeError, ValueError, OverflowError):
            raise InputError(f"stream {name!r} entry {i} malformed: {item!r}") from None
    return CashFlowStream.of(entries)


def model_to_dict(model: AppraisalModel) -> dict:
    return {
        "discount_rate": model.discount_rate,
        "base_year": model.base_year,
        "capex": _stream_to_obj(model.capex),
        "om": _stream_to_obj(model.om_costs),
        "benefits": _stream_to_obj(model.benefits),
    }


def model_from_dict(doc: dict) -> AppraisalModel:
    try:
        rate = float(doc["discount_rate"])
        base_year = int(doc.get("base_year", 0))
        capex = doc["capex"]
        om = doc.get("om", [])
        benefits = doc["benefits"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed appraisal model document: {exc}") from None
    return AppraisalModel(
        capex=_stream_from_obj(capex, "capex"),
        benefits=_stream_from_obj(benefits, "benefits"),
        om_costs=_stream_from_obj(om, "om"),
        discount_rate=rate,
        base_year=base_year,
    )


def load_model(path: str | Path) -> AppraisalModel:
    return model_from_dict(load_json(path, "model file"))
