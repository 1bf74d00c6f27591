"""Nonparametric machinery for analyzing reference-class ratio samples.

Four procedures: Gaussian kernel density traces, the two-sample Mann-Whitney
U test (exact by counting rank sums for n + m <= 31, tie-corrected normal
approximation above), one-way ANOVA F across groups, and an OLS slope
trend F test. p-values for the F tests go through a continued-fraction
regularized incomplete beta kept to better than 1e-10 relative error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import (ComputeError, DegenerateSampleError, InputError, checked_fsum, finite,
                     sorted_quantile)

KDE_GRID_POINTS = 512
KDE_SPAN_BANDWIDTHS = 4.0
_KDE_REACH = 38.7  # window half-width in bandwidths: |z| >= 38.69 past it, where exp gives 0.0
EXACT_U_LIMIT = 31  # exact U test when n + m <= this: <= 5 ms at the worst split
_NON_FINITE = "sample contains non-finite values"


# ---------------------------------------------------------------------------
# Kernel density


@dataclass(frozen=True, slots=True)
class DensityTrace:
    """Gaussian-kernel density evaluated on a uniform grid spanning the data
    range plus four bandwidths on each side."""

    grid: tuple[float, ...]
    density: tuple[float, ...]
    bandwidth: float

    def to_csv(self) -> str:
        lines = ["value,density"] + [f"{v!r},{d!r}" for v, d in zip(self.grid, self.density)]
        return "\n".join(lines) + "\n"


def _finite(sample: Sequence[float]):
    """sample as a float array, checked finite. numpy loads here, on first use:
    the U, F and trend tests never need it."""
    import numpy as np

    data = np.asarray(sample, dtype=float)
    if not np.all(np.isfinite(data)):
        raise InputError(_NON_FINITE)
    return data


def silverman_bandwidth(sample: Sequence[float]) -> float:
    """0.9 * min(sd, IQR/1.34) * n**-0.2, with the usual fallback to sd when
    the IQR is degenerate. Zero for a zero-variance sample; a ComputeError
    when a squared deviation overflows, since the rule then has no scale."""
    import numpy as np

    data = _finite(sample)
    n = len(data)
    if n < 2:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        sd = finite("sample spread overflows the float range; pass an explicit bandwidth",
                    lambda: float(np.std(data, ddof=1)))
    q25, q75 = sorted_quantile(np.sort(data), (0.25, 0.75))  # sorted() takes ~70x longer
    iqr = q75 - q25
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * n ** (-0.2)


def kde(sample: Sequence[float], bandwidth: float | None = None) -> DensityTrace:
    """Gaussian kernel density estimate on a 512-point grid.

    The default bandwidth follows Silverman's rule; a zero-variance sample
    has no data-driven scale, so an explicit bandwidth is then required.

    The densities are bit-identical to the dense form, which fills a 512 x n
    kernel matrix and sums each row. Here one reused n-long row holds a grid
    row's kernels in sample order, so memory is O(n). A contiguous 1-D sum
    runs the same pairwise tree as each row of a C-contiguous axis-1 sum, and
    -0.5 * (z * z) equals the dense form's (-0.5 * z) * z wherever z * z is a
    normal float (elsewhere exp gives 1.0 or 0.0 either way).

    Each grid row g computes exp only on its window of the sorted sample: the
    x with fl(g - R) <= x <= fl(g + R), R = fl(38.7 h), found by searchsorted.
    The window is scattered into the row through the sort's permutation. The
    grid is sorted and rounding is monotone, so window starts never decrease,
    and zeroing the part of the previous windows below this one's start
    leaves +0.0 everywhere outside the window: the dense form's kernel there
    too. An x below the window lies below the float nearest g - R, so
    g - x > R exactly; since rounding is monotone, fl(g - x) >= R and
    |z| = fl(fl(g - x) / h) >= fl(fl(38.7 h) / h) >= 38.69 (38.7 h is a normal
    float, as kde rejects h below 2.2e-309), so -0.5 z**2 <= -748.4, where exp
    returns +0.0 (it does below -745.14, past |z| = 38.61). Above the window
    likewise. Lanes that yield exp's 0.0 take its slow path (14 ns a lane against
    0.8 ns on an AVX-512 Xeon), so the window stops just past where exp's values
    end. An
    infinite 38.7 h, or a bound past the float range, excludes nothing. The
    window runs the dense form's own operations on the same operands, and
    numpy's exp gives each lane the same result whatever its neighbours are,
    so each row holds the same values in the same places and sums to the
    same bits. The windows cost a few numpy calls per row, about 3 ms a call
    whatever n: a 5-value sample takes about 3 ms where the dense form took
    0.3 ms, while a fat-tailed 10,000-value sample, whose kernels mostly
    underflow down exp's slow path, takes about 8 ms instead of 60 ms.
    """
    if len(sample) < 1:
        raise InputError("kde requires at least one observation")
    import numpy as np

    data = _finite(sample)
    h = silverman_bandwidth(data) if bandwidth is None else float(bandwidth)
    if not h > 0:
        if bandwidth is None:
            raise DegenerateSampleError(
                "sample has zero variance; pass an explicit bandwidth"
            )
        raise InputError(f"bandwidth must be positive, got {bandwidth}")
    lo = float(data.min()) - KDE_SPAN_BANDWIDTHS * h
    hi = float(data.max()) + KDE_SPAN_BANDWIDTHS * h
    if not math.isfinite(hi - lo):  # an infinite h, or a grid span past the float range
        raise InputError(f"bandwidth must be finite with a finite grid span, got {h}")
    if not math.isfinite(1.0 / (h * math.sqrt(2.0 * math.pi))):  # peak kernel height
        raise InputError(f"bandwidth is too small for a finite density, got {h}")
    norm = len(sample) * h * math.sqrt(2.0 * math.pi)
    if not math.isfinite(norm):  # every density would divide to 0.0
        raise InputError(f"bandwidth {h} times the sample size {len(sample)} overflows the "
                         "density's normalizer")
    grid = np.linspace(lo, hi, KDE_GRID_POINTS)
    order = np.argsort(data, kind="stable")
    xs = data[order]
    dens = np.empty(KDE_GRID_POINTS)
    row = np.zeros(len(data))
    scratch = np.empty(len(data))
    # g +- 38.7 h may overflow (the window is then the whole sample), and so may z / h or
    # z * z (exp(-inf) is 0.0 either way)
    with np.errstate(over="ignore"):
        reach = _KDE_REACH * h
        starts = np.searchsorted(xs, grid - reach, "left").tolist()
        stops = np.searchsorted(xs, grid + reach, "right").tolist()
        left = 0
        for i, (g, a, z) in enumerate(zip(grid.tolist(), starts, stops)):
            row[order[left:a]] = 0.0  # what the previous windows left below this one
            left = a
            t = scratch[:z - a]
            np.subtract(g, xs[a:z], out=t)
            t /= h
            np.multiply(t, t, out=t)
            t *= -0.5
            np.exp(t, out=t)
            row[order[a:z]] = t
            dens[i] = row.sum()
    dens /= norm
    return DensityTrace(tuple(grid.tolist()), tuple(dens.tolist()), h)


# ---------------------------------------------------------------------------
# Test results


class TestResult(NamedTuple):
    """A test statistic with its p-value and provenance.

    method is "exact" when the p-value comes from the exact reference
    distribution (labelings counted by rank sum for U, the F distribution for
    F tests) and "normal_approx" for the large-sample U approximation.
    """

    statistic: float
    p_value: float
    method: str
    n: int
    m: int

    def to_dict(self) -> dict:
        return self._asdict()


# ---------------------------------------------------------------------------
# Mann-Whitney U


def _midranks(pooled: Sequence[float]) -> tuple[list[float], float]:
    """1-based midranks of pooled, in input order, and the tie term
    sum(t**3 - t) over runs of t equal values, from one sorted pass.
    Midranks are half-integers, so sums of them are exact."""
    order = sorted(range(len(pooled)), key=pooled.__getitem__)
    ranks = [0.0] * len(pooled)
    tie_term = 0.0
    below = 0
    for _, run in itertools.groupby(order, key=pooled.__getitem__):
        members = list(run)
        t = len(members)
        for i in members:
            ranks[i] = below + (t + 1) / 2.0
        tie_term += t**3 - t
        below += t
    return ranks, tie_term


def _exact_two_sided_p(ranks: Sequence[float], n: int, u_obs: float) -> float:
    """Two-sided permutation p-value: the share of the C(N, n) labelings
    whose U is at least as far from its center as u_obs. Doubled midranks are
    integers, so one pass over the items counts labelings exactly by doubled
    rank sum: counts[j][s] holds the j-subsets with sum s (a 0/1 knapsack, j
    running down and kept only while it can still reach n)."""
    size = len(ranks)
    counts: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n)]
    for i, rank in enumerate(ranks):
        r = round(2 * rank)
        for j in range(min(i + 1, n), max(0, n - size + i), -1):
            row = counts[j]
            for s, c in counts[j - 1].items():
                row[s + r] = row.get(s + r, 0) + c
    center = n * (size + 1)  # the doubled rank sum at U = n(N - n)/2
    dev = abs(round(2 * u_obs) + n * (n + 1) - center)
    hits = sum(c for s, c in counts[n].items() if abs(s - center) >= dev)
    return hits / math.comb(size, n)


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Two-sample Mann-Whitney U test.

    The statistic is U for x: the number of (x_i, y_j) pairs with x_i > y_j
    plus half the ties, computed as the sum of x's midranks in the pooled
    sample minus n(n+1)/2. For n + m <= EXACT_U_LIMIT (31) the two-sided
    p-value is exact, with ties, by counting labelings by rank sum; above
    that it uses the normal approximation with tie and continuity correction.
    """
    n, m = len(x), len(y)
    if n < 1 or m < 1:
        raise InputError("both samples must be non-empty")
    pooled = list(x) + list(y)
    if any(math.isnan(v) for v in pooled):
        raise InputError("samples must not contain NaN")
    ranks, tie_term = _midranks(pooled)
    u = sum(ranks[:n]) - n * (n + 1) / 2.0

    if n + m <= EXACT_U_LIMIT:
        p = _exact_two_sided_p(ranks, n, u)
        return TestResult(u, p, "exact", n, m)

    total = n + m
    mean = n * m / 2.0
    var = (n * m / 12.0) * ((total + 1) - tie_term / (total * (total - 1)))
    if var <= 0:
        return TestResult(u, 1.0, "normal_approx", n, m)  # all values tied
    diff = u - mean
    z = (abs(diff) - 0.5) / math.sqrt(var)  # continuity correction
    z = max(z, 0.0)
    p = min(1.0, 2.0 * _normal_sf(z))
    return TestResult(u, p, "normal_approx", n, m)


def overrun_bias_samples(ratios: Sequence[float]) -> tuple[list[float], list[float]]:
    """Split ratios into overrun magnitudes (ratio - 1 for ratios above 1)
    and underrun magnitudes (1 - ratio below 1), the comparison that asks
    whether estimate errors skew toward adverse outcomes."""
    over = [r - 1.0 for r in ratios if r > 1.0]
    under = [1.0 - r for r in ratios if r < 1.0]
    return over, under


# ---------------------------------------------------------------------------
# F distribution via regularized incomplete beta


def _betacf(a: float, b: float, x: float) -> float:
    """Lentz continued fraction for the incomplete beta (Numerical Recipes
    form), iterated until the step is below 1e-15."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        # the even then the odd term of step m, each one Lentz update
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ComputeError(f"incomplete beta failed to converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) to better than 1e-10 relative error for a, b > 0."""
    if not (a > 0 and b > 0):
        raise InputError("incomplete beta requires a, b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_sf(f_value: float, df1: float, df2: float) -> float:
    """Survival function of the F(df1, df2) distribution."""
    if f_value <= 0.0:
        return 1.0
    x = df2 / (df2 + df1 * f_value)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)


# ---------------------------------------------------------------------------
# One-way ANOVA and trend test


def one_way_f(groups: Sequence[Sequence[float]]) -> TestResult:
    """Classical one-way ANOVA F across two or more groups.

    statistic is MS_between / MS_within with an F(k-1, N-k) p-value. All
    groups being internally constant leaves no within-group variance and the
    ratio undefined.
    """
    if len(groups) < 2:
        raise InputError("one-way F requires at least two groups")
    sizes = [len(g) for g in groups]
    if any(s < 1 for s in sizes):
        raise InputError("every group must be non-empty")
    k = len(groups)
    total_n = sum(sizes)
    if total_n <= k:
        raise InputError("total observations must exceed the number of groups")
    if not all(map(math.isfinite, itertools.chain.from_iterable(groups))):
        raise InputError(_NON_FINITE)
    sums = [checked_fsum(g) for g in groups]
    grand = checked_fsum(sums) / total_n
    means = [total / size for total, size in zip(sums, sizes)]
    ss_between = checked_fsum(len(g) * (mu - grand) ** 2 for g, mu in zip(groups, means))
    ss_within = checked_fsum(
        checked_fsum((v - mu) ** 2 for v in g) for g, mu in zip(groups, means)
    )
    df1, df2 = k - 1, total_n - k
    if ss_within == 0.0:
        raise DegenerateSampleError("zero within-group variance in every group")
    f_value = (ss_between / df1) / (ss_within / df2)
    return TestResult(f_value, f_sf(f_value, df1, df2), "exact", total_n, k)


class TrendResult(NamedTuple):
    """OLS slope of y on x with the F = t**2 test of a zero slope."""

    statistic: float  # F with (1, n-2) df
    p_value: float
    method: str
    n: int
    slope: float
    intercept: float
    r_squared: float

    def to_dict(self) -> dict:
        return self._asdict()


def trend_f(x: Sequence[float], y: Sequence[float]) -> TrendResult:
    """Test for a linear time trend: OLS slope of y on x and its F statistic.

    A perfect nonconstant fit reports F = inf, p = 0; a constant y reports a
    zero slope with F = 0, p = 1.
    """
    n = len(x)
    if n != len(y):
        raise InputError("x and y must have equal length")
    if n < 3:
        raise InputError("trend test requires at least 3 points")
    if not all(map(math.isfinite, itertools.chain(x, y))):
        raise InputError(_NON_FINITE)
    xbar = checked_fsum(x) / n
    ybar = checked_fsum(y) / n
    sxx = checked_fsum((xi - xbar) ** 2 for xi in x)
    if sxx == 0.0:
        raise InputError("all x values are equal; trend undefined")
    sxy = checked_fsum((xi - xbar) * (yi - ybar) for xi, yi in zip(x, y))
    syy = checked_fsum((yi - ybar) ** 2 for yi in y)
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    rss = checked_fsum((yi - (intercept + slope * xi)) ** 2 for xi, yi in zip(x, y))
    if syy == 0.0:  # constant response
        return TrendResult(0.0, 1.0, "exact", n, 0.0, ybar, 0.0)
    r2 = 1.0 - rss / syy
    if rss == 0.0:
        return TrendResult(math.inf, 0.0, "exact", n, slope, intercept, 1.0)
    f_value = slope * slope * sxx / (rss / (n - 2))
    return TrendResult(f_value, f_sf(f_value, 1, n - 2), "exact", n, slope, intercept, r2)
