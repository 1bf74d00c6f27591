"""Monte Carlo stress testing of an appraisal against fat-tailed overruns.

Each trial draws a capex overrun multiplier, an optional schedule slippage
(converted to years of delay), and an optional benefit shortfall, applies
them to the model, and tests whether the BCR falls below 1. Trial draws are
counter-based, a pure function of (seed, trial index, variable tag), so
results are bit-identical no matter how trials are chunked.

Under the stress semantics (capex scaled in place, benefits and O&M shifted
together), per-trial NPV and BCR reduce exactly to three present values:

    gain = b * x * B,   pain = k * C + x * O,   x = (1+r)**-d
    npv = gain - pain,  bcr = gain / pain

where B, C, O are the unstressed present values of benefits, capex, and O&M,
which AppraisalModel computes once when it is built. run_stress's
_trial_arrays evaluates gain - pain over them vectorized and keeps the NPV
alone (with pain >= 0, BCR < 1 exactly when NPV < 0), while sensitivity_grid
and size_contingency take cashflow.bcr with the multipliers and x = 1. Only the
grid's IRR needs a stressed cash flow stream, which net_stream builds with the
cell's multipliers. Tests check both against apply_stress.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _rng
from .cashflow import AppraisalModel, bcr, irr, net_stream
from .dists import QuantileDistribution, dist_from_dict
from .errors import ComputeError, InputError
from .refclass import sorted_quantile

CAPEX_TAG = 1
SCHEDULE_TAG = 2
SHORTFALL_TAG = 3

DEFAULT_NPV_QUANTILES = (0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95)
_CHUNK = 262_144  # trials per span; bounds the per-span draw and evaluation temporaries
_MIN_EXP = -1073  # frexp exponent of the smallest subnormal, 2**-1074 = 0.5 * 2**-1073
_LOW_BITS = 26  # mantissa bits in the low half; the high half keeps the other 27

MAX_TRIALS = 100_000_000
"""Largest n_trials a StressConfig accepts. run_stress keeps 8 bytes per
trial (one NPV array, sorted in place) plus 11-19 MB of per-span
temporaries: 0.8 GB at this cap. (tracemalloc peaks at 4M trials: 42.8 MB
capex only, 46.7 MB full shape, 50.9 MB with a shortfall distribution.)"""


@dataclass(frozen=True, slots=True)
class StressConfig:
    """Inputs of one stress run.

    schedule_dist draws slippage ratios; delay years are derived as
    (slippage - 1) * est_duration_years, floored at zero (early completion is
    not credited). shortfall is either a fixed fraction in [0, 1) or a
    distribution whose support must stay inside (0, 1), which requires a
    bounded (negative-shape) tail.
    """

    n_trials: int
    seed: int
    capex_dist: QuantileDistribution
    schedule_dist: QuantileDistribution | None = None
    est_duration_years: float | None = None
    shortfall: float | QuantileDistribution = 0.0

    def __post_init__(self) -> None:
        if not 1 <= self.n_trials <= MAX_TRIALS:
            raise InputError(f"n_trials must be in [1, {MAX_TRIALS}], got {self.n_trials}")
        if self.schedule_dist is not None:
            duration = self.est_duration_years
            if duration is None or not 0 < duration < math.inf:  # NaN fails too
                raise InputError(
                    "schedule stress needs a finite est_duration_years > 0 to turn "
                    f"slippage into delay, got {duration}"
                )
        elif self.est_duration_years is not None:
            raise InputError("est_duration_years applies only with a schedule_dist; none given")
        if isinstance(self.shortfall, QuantileDistribution):
            upper = _support_upper(self.shortfall)
            if not upper <= 1.0:
                raise InputError(
                    f"shortfall distribution support must stay within (0, 1); "
                    f"upper endpoint is {upper}"
                )
        elif not 0.0 <= float(self.shortfall) < 1.0:
            raise InputError(f"fixed shortfall must be in [0, 1), got {self.shortfall}")

    def to_dict(self) -> dict:
        doc: dict = {
            "n_trials": self.n_trials,
            "seed": self.seed,
            "capex_dist": self.capex_dist.to_dict(),
        }
        if self.schedule_dist is not None:
            doc["schedule_dist"] = self.schedule_dist.to_dict()
            doc["est_duration_years"] = self.est_duration_years
        if isinstance(self.shortfall, QuantileDistribution):
            doc["shortfall"] = self.shortfall.to_dict()
        else:
            doc["shortfall"] = float(self.shortfall)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "StressConfig":
        try:
            shortfall_doc = doc.get("shortfall", 0.0)
            return StressConfig(
                n_trials=int(doc["n_trials"]),
                seed=int(doc["seed"]),
                capex_dist=dist_from_dict(doc["capex_dist"]),
                schedule_dist=(
                    dist_from_dict(doc["schedule_dist"]) if "schedule_dist" in doc else None
                ),
                est_duration_years=doc.get("est_duration_years"),
                shortfall=(
                    dist_from_dict(shortfall_doc)
                    if isinstance(shortfall_doc, dict)
                    else float(shortfall_doc)
                ),
            )
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed stress config document: {exc}") from None


def _support_upper(dist: QuantileDistribution) -> float:
    if dist.tail.shape >= 0.0:
        return math.inf
    return dist.anchor_xs[-1] + dist.tail.scale / -dist.tail.shape


@dataclass(frozen=True, slots=True)
class StressResult:
    """Aggregates of one stress run; npv_quantiles maps p to money."""

    p_break: float
    p_break_se: float
    npv_quantiles: dict[float, float]
    mean_npv: float
    n_trials: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "p_break": self.p_break,
            "p_break_se": self.p_break_se,
            "npv_quantiles": {f"{p:g}": v for p, v in self.npv_quantiles.items()},
            "mean_npv": self.mean_npv,
            "n_trials": self.n_trials,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def quantiles_csv(self) -> str:
        lines = ["p,npv"]
        lines += [f"{p:g},{v!r}" for p, v in sorted(self.npv_quantiles.items())]
        return "\n".join(lines) + "\n"


def _trial_arrays(
    config: StressConfig, model: AppraisalModel, start: int, stop: int
) -> np.ndarray:
    """NPVs of trial indices [start, stop), via the PV factorization of the
    model's unstressed present values (B, C, O)."""

    def draw(dist: QuantileDistribution, tag: int) -> np.ndarray:
        return dist.sample_array(_rng.uniforms(config.seed, tag, start, stop))

    k = draw(config.capex_dist, CAPEX_TAG)
    x = 1.0  # inputs that do not vary stay scalars; broadcasting gives the same bits
    if config.schedule_dist is not None:
        slippage = draw(config.schedule_dist, SCHEDULE_TAG)
        x = (1.0 + model.discount_rate) ** -(
            np.maximum(slippage - 1.0, 0.0) * config.est_duration_years
        )
    if isinstance(config.shortfall, QuantileDistribution):
        s = draw(config.shortfall, SHORTFALL_TAG)
    else:
        s = float(config.shortfall)
    return (1.0 - s) * x * model.pv_benefits - (k * model.pv_capex + x * model.pv_om)


class _ExactSum:
    """Exact sum of float64 values added span by span, rounded once at the end.

    A small superaccumulator (Neal 2015, arXiv:1505.05571) in numpy. frexp
    writes each value as m * 2**e; the integer mantissa m * 2**53 splits into
    a high part floor(m * 2**27) and a low part of 26 bits, and each part is
    summed per exponent with a float bincount. Every partial sum is a whole
    number of units below 2**53 (spans of at most 2**26 values), so those
    sums are exact, and int64 buckets carry them across spans (up to 2**36
    values). value() joins the buckets into one Python integer and divides it
    by a power of two, which rounds correctly, half to even, so it returns
    the same float as math.fsum over all the values, in any order or split.
    """

    def __init__(self) -> None:
        n_exps = 1024 - _MIN_EXP + 1  # frexp exponents of finite doubles
        self._high = np.zeros(n_exps, dtype=np.int64)  # units of 2**(e - 27)
        self._low = np.zeros(n_exps, dtype=np.int64)  # units of 2**(e - 53)

    def add(self, values: np.ndarray) -> None:
        if not np.isfinite(values).all():
            raise ComputeError("a trial NPV is not finite: the stressed cash flows overflow")
        m, e = np.frexp(values)
        bucket = np.add(e, -_MIN_EXP, dtype=np.intp)
        low = np.multiply(m, 2.0 ** (53 - _LOW_BITS), out=m)  # exact; in place: one array fewer
        high = np.floor(low)
        low -= high  # a multiple of 2**-26 in [0, 1)
        sums = np.bincount(bucket, weights=high)
        self._high[: len(sums)] += sums.astype(np.int64)
        sums = np.bincount(bucket, weights=low) * 2.0**_LOW_BITS
        self._low[: len(sums)] += sums.astype(np.int64)

    def value(self) -> float:
        total = 0  # in units of 2**(_MIN_EXP - 53)
        for b in np.flatnonzero(self._high | self._low).tolist():
            total += ((int(self._high[b]) << _LOW_BITS) + int(self._low[b])) << b
        try:
            return total / (1 << (53 - _MIN_EXP))
        except OverflowError:
            raise ComputeError("the sum of the trial NPVs overflows a float") from None


def run_stress(model: AppraisalModel, config: StressConfig) -> StressResult:
    """Monte Carlo break probability and NPV distribution for a model.

    Trials are evaluated serially in spans of _CHUNK into one NPV array. The
    counter-based draws and order-insensitive aggregation make the result
    bit-identical for any chunking: the mean is an exact sum (_ExactSum, equal
    to math.fsum of all NPVs) filled span by span; p_break (the share of negative
    NPVs) and the DEFAULT_NPV_QUANTILES come from one in-place sort of the array.
    A non-finite trial NPV, or a sum outside the float range, raises ComputeError.
    """
    n = config.n_trials
    npvs = np.empty(n)
    total = _ExactSum()
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        with np.errstate(over="ignore", invalid="ignore"):  # total.add rejects non-finite NPVs
            npvs[start:stop] = _trial_arrays(config, model, start, stop)
        total.add(npvs[start:stop])

    npvs.sort()
    p_break = int(np.searchsorted(npvs, 0.0)) / n
    se = math.sqrt(p_break * (1.0 - p_break) / n)
    quantiles = dict(zip(DEFAULT_NPV_QUANTILES, sorted_quantile(npvs, DEFAULT_NPV_QUANTILES)))
    return StressResult(p_break, se, quantiles, total.value() / n, n, config.seed)


def p_break_analytic(dist: QuantileDistribution, k_star: float) -> float:
    """Break probability of a pure capex stress in closed form: the chance
    the overrun multiplier reaches the break-even ratio, 1 - CDF(k*)."""
    if not k_star > 0:
        raise InputError(f"break-even ratio must be positive, got {k_star}")
    return 1.0 - dist.cdf(k_star)


@dataclass(frozen=True, slots=True)
class GridCell:
    irr: float | None
    bcr: float


@dataclass(frozen=True, slots=True)
class SensitivityGrid:
    """Appraisal outcomes across joint benefit/cost multiplier scenarios.

    Rows follow cost_mults, columns follow benefit_mults, in the order given.
    Cells where the stressed net stream has no IRR carry irr=None.
    """

    benefit_mults: tuple[float, ...]
    cost_mults: tuple[float, ...]
    cells: tuple[tuple[GridCell, ...], ...]

    def to_dict(self) -> dict:
        return {
            "benefit_mults": list(self.benefit_mults),
            "cost_mults": list(self.cost_mults),
            "irr": [[c.irr for c in row] for row in self.cells],
            "bcr": [[c.bcr for c in row] for row in self.cells],
        }

    def to_csv(self) -> str:
        header = "cost_mult\\benefit_mult," + ",".join(f"{b:g}" for b in self.benefit_mults)
        lines = [header]
        for k, row in zip(self.cost_mults, self.cells):
            cells = ",".join("" if c.irr is None else repr(c.irr) for c in row)
            lines.append(f"{k:g},{cells}")
        return "\n".join(lines) + "\n"


def sensitivity_grid(
    model: AppraisalModel,
    benefit_mults: Sequence[float],
    cost_mults: Sequence[float],
) -> SensitivityGrid:
    """IRR and BCR, bcr(model, k, b) = b*B / (k*C + O) over the model's present
    values, for every (cost mult k, benefit mult b) pair."""
    benefit_mults = tuple(float(b) for b in benefit_mults)
    cost_mults = tuple(float(k) for k in cost_mults)
    if not all(0.0 < m < math.inf for m in benefit_mults + cost_mults):  # NaN fails too
        raise InputError("grid multipliers must be positive and finite")
    cells = tuple(
        tuple(GridCell(irr(net_stream(model, k, b)), bcr(model, k, b)) for b in benefit_mults)
        for k in cost_mults
    )
    return SensitivityGrid(benefit_mults, cost_mults, cells)


@dataclass(frozen=True, slots=True)
class ContingencyResult:
    """Budget uplift sized to a coverage quantile of the overrun distribution."""

    coverage: float
    contingency: float  # capex uplift fraction, quantile(p) - 1
    adjusted_bcr: float
    proceed: bool

    def to_dict(self) -> dict:
        return {
            "coverage": self.coverage,
            "contingency": self.contingency,
            "adjusted_bcr": self.adjusted_bcr,
            "decision": "proceed" if self.proceed else "do-not-proceed",
        }


def size_contingency(
    model: AppraisalModel, capex_dist: QuantileDistribution, coverage: float
) -> ContingencyResult:
    """Contingency at a coverage level and the BCR after funding it.

    The uplift c = quantile(coverage) - 1 restates the budget at the chosen
    percentile of the overrun distribution; the project clears appraisal only
    if its BCR stays above 1 with capex scaled by (1 + c), i.e. if
    bcr(model, 1 + c) = B / ((1 + c)*C + O) > 1, over the model's present values.
    """
    if not 0.0 < coverage < 1.0:
        raise InputError(f"coverage must lie strictly inside (0, 1), got {coverage}")
    c = capex_dist.quantile(coverage) - 1.0
    adjusted = bcr(model, 1.0 + c)
    return ContingencyResult(coverage, c, adjusted, adjusted > 1.0)
