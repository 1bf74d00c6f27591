"""Deterministic appraisal math for a single capital project.

Discounting, NPV, benefit-to-cost ratio, IRR, the sorted gain/pain payoff
curve, and the two break-even fragility thresholds: the capex overrun
multiplier and the benefit/O&M delay at which the project's BCR hits 1.

AppraisalModel computes its three present values B (benefits), C (capex)
and O (O&M) once, at construction. npv, bcr and both break-evens are each
one formula over them, as are the stressed figures in stress.py. Only irr
(at each rate it tries) and payoff_curve (entry by entry) discount again.
A ratio whose pain sum overflows, whose divisor is 0 or whose value leaves
the float range raises ComputeError rather than returning inf.

Conventions (documented, not configurable):
  * discrete annual compounding (1 + r) ** -t, fractional t allowed;
  * delay shifts benefits and O&M in time but leaves capex on its original
    schedule (upfront costs are sunk when the delay materializes);
  * a project "breaks" when discounted pain exceeds discounted gain, i.e.
    BCR < 1, equivalently NPV < 0.

All types are immutable; all operations are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .errors import ComputeError, InputError

IRR_BRACKET = (-0.99, 10.0)
_IRR_SCAN_SEGMENTS = 512
_IRR_TOL = 1e-12


def discount_factor(rate: float, t: float) -> float:
    """(1 + rate) ** -t, the present value of one unit paid t years out."""
    if not rate > -1.0:
        raise InputError(f"discount rate must exceed -1, got {rate}")
    if t < 0:
        raise InputError(f"time must be >= 0, got {t}")
    return (1.0 + rate) ** -t


@dataclass(frozen=True, slots=True)
class CashFlowStream:
    """Dated amounts in constant base-year currency.

    Entries are (time in years from the decision date, amount) pairs, kept
    sorted by ascending time. Amounts may carry either sign at this level;
    AppraisalModel restricts signs per stream role.
    """

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise InputError("cash flow stream must have at least one entry")
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

    @staticmethod
    def zero() -> "CashFlowStream":
        """Canonical all-zero stream, used for projects with no O&M."""
        return CashFlowStream(((0.0, 0.0),))

    def present_value(self, rate: float) -> float:
        """Sum of discounted amounts. math.fsum keeps the result exact, so it
        is independent of entry order. A term or sum past the float range
        raises ComputeError."""
        try:
            terms = [a * discount_factor(rate, t) for t, a in self.entries]
            pv = math.fsum(terms) if all(map(math.isfinite, terms)) else math.nan
        except OverflowError:  # from a discount factor or fsum's running total
            pv = math.nan
        if not math.isfinite(pv):
            raise ComputeError(f"present value at rate {rate} overflows a float")
        return pv

    def total(self) -> float:
        return math.fsum(a for _, a in self.entries)

    def scaled(self, factor: float) -> "CashFlowStream":
        return CashFlowStream(tuple((t, a * factor) for t, a in self.entries))

    def shifted(self, years: float) -> "CashFlowStream":
        if years < 0:
            raise InputError(f"time shift must be >= 0, got {years}")
        return CashFlowStream(tuple((t + years, a) for t, a in self.entries))


def _finite(what: str, compute: Callable[[], float]) -> float:
    """compute(), the one check on every ratio over the present values: a sum
    that overflows, a zero divisor or a result that is not a finite float
    raises ComputeError."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):  # from fsum's running total or a division
        value = math.nan
    if not math.isfinite(value):
        raise ComputeError(f"{what} is not a finite float")
    return value


def _require_nonnegative(stream: CashFlowStream, role: str) -> None:
    for t, a in stream.entries:
        if a < 0:
            raise InputError(f"{role} amounts must be >= 0, got {a} at t={t}")


@dataclass(frozen=True, slots=True)
class AppraisalModel:
    """A project's real cash flows plus its real discount rate.

    capex and om_costs are pain, benefits are gain; all amounts >= 0 and in
    the same constant base-year currency. Total discounted pain must be
    positive. om_costs=None means the project has no O&M leg.

    pv_benefits, pv_capex and pv_om (B, C, O) are the streams' present values
    at discount_rate, computed once after the input checks. They are derived,
    so they take no part in equality or repr.
    """

    capex: CashFlowStream
    benefits: CashFlowStream
    discount_rate: float
    om_costs: CashFlowStream = field(default_factory=CashFlowStream.zero)
    base_year: int = 0
    pv_benefits: float = field(init=False, repr=False, compare=False)
    pv_capex: float = field(init=False, repr=False, compare=False)
    pv_om: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.om_costs is None:
            object.__setattr__(self, "om_costs", CashFlowStream.zero())
        if not self.discount_rate > -1.0:
            raise InputError(f"discount rate must exceed -1, got {self.discount_rate}")
        _require_nonnegative(self.capex, "capex")
        _require_nonnegative(self.om_costs, "O&M")
        _require_nonnegative(self.benefits, "benefit")
        r = self.discount_rate
        object.__setattr__(self, "pv_benefits", self.benefits.present_value(r))
        object.__setattr__(self, "pv_capex", self.capex.present_value(r))
        object.__setattr__(self, "pv_om", self.om_costs.present_value(r))
        pain = _finite("present value of pain", lambda: math.fsum((self.pv_capex, self.pv_om)))
        if not pain > 0.0:
            raise InputError("present value of total pain must be positive")


def npv(model: AppraisalModel) -> float:
    """Discounted benefits minus discounted capex and O&M: B - C - O."""
    return math.fsum((model.pv_benefits, -model.pv_capex, -model.pv_om))


def bcr(model: AppraisalModel, cost_mult: float = 1.0, benefit_mult: float = 1.0) -> float:
    """Gain-to-pain ratio b*B / (k*C + O), with capex scaled by cost_mult = k
    and benefits by benefit_mult = b as apply_stress scales them. Below 1 the
    project is broken."""
    return _finite("BCR", lambda: benefit_mult * model.pv_benefits
                   / math.fsum((cost_mult * model.pv_capex, model.pv_om)))


def net_stream(
    model: AppraisalModel, cost_mult: float = 1.0, benefit_mult: float = 1.0
) -> CashFlowStream:
    """Merged signed stream (benefits positive, costs negative), for IRR, with
    capex and benefit amounts scaled as apply_stress scales them."""
    entries = [(t, benefit_mult * a) for t, a in model.benefits.entries]
    entries += [(t, -(cost_mult * a)) for t, a in model.capex.entries]
    entries += [(t, -a) for t, a in model.om_costs.entries]
    return CashFlowStream.of(entries)


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


@dataclass(frozen=True, slots=True)
class PayoffCurve:
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
    r = model.discount_rate
    gains = sorted(
        (a * discount_factor(r, t) for t, a in model.benefits.entries if a != 0.0),
        reverse=True,
    )
    pains = sorted(
        (
            a * discount_factor(r, t)
            for t, a in model.capex.entries + model.om_costs.entries
            if a != 0.0
        ),
        reverse=True,
    )
    cum_gain = tuple(math.fsum(gains[: i + 1]) for i in range(len(gains)))
    cum_pain = tuple(math.fsum(pains[: i + 1]) for i in range(len(pains)))
    total_gain = cum_gain[-1] if cum_gain else 0.0
    total_pain = cum_pain[-1] if cum_pain else 0.0

    index: int | None = None
    if total_pain > total_gain:
        for k in range(max(len(cum_gain), len(cum_pain))):
            g = cum_gain[k] if k < len(cum_gain) else total_gain
            p = cum_pain[k] if k < len(cum_pain) else total_pain
            if p > g:
                index = k
                break
    return PayoffCurve(tuple(gains), tuple(pains), cum_gain, cum_pain, index)


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
    return BreakEvenOverrun(_finite("break-even overrun", lambda: surplus / model.pv_capex), False)


def apply_stress(
    model: AppraisalModel,
    cost_mult: float = 1.0,
    benefit_mult: float = 1.0,
    delay_years: float = 0.0,
) -> AppraisalModel:
    """Stressed copy of the model.

    Capex amounts are scaled by cost_mult on their original schedule; benefit
    amounts are scaled by benefit_mult and shifted delay_years later along
    with the O&M schedule (amounts unchanged).
    """
    if cost_mult < 0 or benefit_mult < 0:
        raise InputError("stress multipliers must be >= 0")
    if delay_years < 0:
        raise InputError(f"delay must be >= 0, got {delay_years}")
    return AppraisalModel(
        capex=model.capex.scaled(cost_mult),
        benefits=model.benefits.scaled(benefit_mult).shifted(delay_years),
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
    years = _finite("break-even delay",
                    lambda: math.log((model.pv_benefits - model.pv_om) / pv_c) / math.log1p(r))
    return BreakEvenDelay(years, False)


@dataclass(frozen=True, slots=True)
class AppraisalResult:
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
    return AppraisalResult(
        npv=npv(model),
        bcr=bcr(model),
        irr=irr(net_stream(model)),
        break_even_overrun=overrun.k_star,
        break_even_delay=d_star,
        broken_regardless_of_capex=overrun.broken_regardless,
    )


# ---------------------------------------------------------------------------
# JSON document form: {discount_rate, base_year, capex, om, benefits} with
# each stream as a list of {t, amount} objects.


def _stream_to_obj(stream: CashFlowStream) -> list[dict]:
    return [{"t": t, "amount": a} for t, a in stream.entries]


def _stream_from_obj(obj, name: str) -> CashFlowStream:
    if not isinstance(obj, list):
        raise InputError(f"stream {name!r} must be a list of {{t, amount}} objects")
    if not obj:  # an empty array means "no cash flows on this leg"
        return CashFlowStream.zero()
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
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
            raise InputError(f"model file {path} is not valid JSON: {exc}") from None
    return model_from_dict(doc)
