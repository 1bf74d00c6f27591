"""Monte Carlo stress testing of an appraisal against fat-tailed overruns.

Each trial draws a capex overrun multiplier, an optional schedule slippage
(converted to years of delay), and an optional benefit shortfall, applies
them to the model, and tests whether the BCR falls below 1. Trial draws are
counter-based, a pure function of (seed, trial index, variable tag), so
the NPV array, and every aggregate run_stress takes over the whole of it,
is bit-identical no matter how trials are chunked or how many threads
evaluate the chunks.

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

import math
import os
from dataclasses import asdict, dataclass
from typing import Sequence

from . import _rng
from .cashflow import AppraisalModel, bcr, irr, net_stream
from .dists import QuantileDistribution
from .errors import ComputeError, InputError

CAPEX_TAG = 1
SCHEDULE_TAG = 2
SHORTFALL_TAG = 3

DEFAULT_NPV_QUANTILES = (0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95)
_CHUNK = 65_536  # trials per span; bounds the per-span draw and evaluation temporaries
_WORKERS = (  # threads that evaluate spans at once: the CPUs this process may run on
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

MAX_TRIALS = 100_000_000
"""Largest n_trials a StressConfig accepts. run_stress keeps 8 bytes per
trial (one NPV array, sorted in place) plus 3-5 MB of span temporaries per
worker thread: 0.8 GB at this cap. (tracemalloc peaks at 4M trials on 2
workers: 37.5 MB capex only, 39.5 MB full shape, 41.5 MB with a shortfall
distribution.)"""

MAX_GRID_TERMS = 320_000
"""Largest cells x cash-flow entries (over the three legs) sensitivity_grid computes,
checked before any cell: a cell's IRR discounts every entry at each rate it tries, up
to 513 scan rates and then bisection. A cell counts at least 32 entries, since each
present value also has a fixed cost of about that many entries; so the stylized dam
(31 entries: 30 benefits and 1 capex) and every smaller model keep a cap of 10,000
cells, and a larger model costs less per entry. The worst case the cap admits is the
dam with no root in any cell: every cell scans all 513 rates, 2.5-4.1 ms a cell; a
100 x 100 grid of them took 33 s (2 CPUs, Python 3.11)."""


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
            upper = self.shortfall.support_upper()
            if not upper <= 1.0:
                raise InputError(
                    f"shortfall distribution support must stay within (0, 1); "
                    f"upper endpoint is {upper}"
                )
        elif not 0.0 <= float(self.shortfall) < 1.0:
            raise InputError(f"fixed shortfall must be in [0, 1), got {self.shortfall}")


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
        quantiles = {f"{p:g}": v for p, v in self.npv_quantiles.items()}
        return {**asdict(self), "npv_quantiles": quantiles}

    def quantiles_csv(self) -> str:
        lines = ["p,npv"]
        lines += [f"{p:g},{v!r}" for p, v in sorted(self.npv_quantiles.items())]
        return "\n".join(lines) + "\n"


def _trial_arrays(
    config: StressConfig, model: AppraisalModel, start: int, stop: int
) -> np.ndarray:
    """NPVs of trial indices [start, stop), via the PV factorization of the
    model's unstressed present values (B, C, O)."""
    import numpy as np

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


def worker_count(n_trials: int) -> int:
    """Threads run_stress evaluates n_trials on: one per usable CPU, and no
    more than there are spans of _CHUNK trials."""
    return min(_WORKERS, -(-n_trials // _CHUNK))


def run_stress(model: AppraisalModel, config: StressConfig) -> StressResult:
    """Monte Carlo break probability and NPV distribution for a model.

    Trials are evaluated in spans of _CHUNK on worker_count(n) threads, each
    span into its own slice of one NPV array, which is then sorted in place.
    numpy releases the GIL inside its ufuncs, so spans run at once, and as
    every draw is a pure function of (seed, trial index, tag) and the slices
    are disjoint, the array, and so the result, is bit-identical for any
    chunking and any worker count. p_break (the share of negative NPVs) and
    the DEFAULT_NPV_QUANTILES are read from the sorted array, and the mean is
    one numpy pairwise sum over it (within a few ulps of math.fsum). A
    non-finite trial NPV, or a sum outside the float range, makes that sum
    non-finite and raises ComputeError.
    """
    from concurrent.futures import ThreadPoolExecutor  # ~5 ms; kept out of `import fragilis`

    # refclass before numpy: imported after it, it raised the stress command's peak RSS by ~1 MB
    from .refclass import sorted_quantile

    import numpy as np

    n = config.n_trials
    npvs = np.empty(n)

    def fill(start: int) -> None:
        stop = min(start + _CHUNK, n)
        # errstate is context-local, so each worker enters its own; the finite-sum check reports
        with np.errstate(over="ignore", invalid="ignore"):
            npvs[start:stop] = _trial_arrays(config, model, start, stop)

    with ThreadPoolExecutor(worker_count(n)) as pool:
        list(pool.map(fill, range(0, n, _CHUNK)))  # reading every result re-raises a worker's error
    npvs.sort()
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(npvs.sum())
    if not math.isfinite(total):  # the sorted ends say which; NaN sorts last
        if math.isfinite(npvs[0]) and math.isfinite(npvs[-1]):
            raise ComputeError("the sum of the trial NPVs overflows a float")
        raise ComputeError("a trial NPV is not finite: the stressed cash flows overflow")
    p_break = int(np.searchsorted(npvs, 0.0)) / n
    se = math.sqrt(p_break * (1.0 - p_break) / n)
    quantiles = dict(zip(DEFAULT_NPV_QUANTILES, sorted_quantile(npvs, DEFAULT_NPV_QUANTILES)))
    return StressResult(p_break, se, quantiles, total / n, n, config.seed)


def p_break_analytic(dist: QuantileDistribution, k_star: float) -> float:
    """Break probability of a pure capex stress in closed form: the chance
    the overrun multiplier reaches the break-even ratio, 1 - CDF(k*)."""
    if not k_star > 0:
        raise InputError(f"break-even ratio must be positive, got {k_star}")
    return 1.0 - dist.cdf(k_star)


@dataclass(frozen=True, slots=True)
class SensitivityGrid:
    """Appraisal outcomes across joint benefit/cost multiplier scenarios.

    irr and bcr are tables with one row per cost mult and one column per
    benefit mult, in the order given; irr[i][j] is None where the stressed
    net stream has no IRR.
    """

    benefit_mults: tuple[float, ...]
    cost_mults: tuple[float, ...]
    irr: tuple[tuple[float | None, ...], ...]
    bcr: tuple[tuple[float, ...], ...]

    def to_csv(self) -> str:
        lines = ["cost_mult\\benefit_mult," + ",".join(f"{b:g}" for b in self.benefit_mults)]
        for k, row in zip(self.cost_mults, self.irr):
            cells = ",".join("" if v is None else repr(v) for v in row)
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
    legs = (model.benefits, model.capex, model.om_costs)
    entries = max(32, sum(len(leg.entries) for leg in legs))  # see MAX_GRID_TERMS
    if (terms := len(benefit_mults) * len(cost_mults) * entries) > MAX_GRID_TERMS:
        raise InputError(f"grid has {terms} cells x cash-flow entries, more than the cap of "
                         f"{MAX_GRID_TERMS}")
    # cell by cell in row order, IRR before BCR: the first figure that fails names the error
    rows = [[(irr(net_stream(model, k, b)), bcr(model, k, b)) for b in benefit_mults]
            for k in cost_mults]
    irrs = tuple(tuple(i for i, _ in row) for row in rows)
    bcrs = tuple(tuple(c for _, c in row) for row in rows)
    return SensitivityGrid(benefit_mults, cost_mults, irrs, bcrs)


@dataclass(frozen=True, slots=True)
class ContingencyResult:
    """Budget uplift sized to a coverage quantile of the overrun distribution."""

    coverage: float
    contingency: float  # capex uplift fraction, quantile(p) - 1
    adjusted_bcr: float
    proceed: bool

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["decision"] = "proceed" if doc.pop("proceed") else "do-not-proceed"
        return doc


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
