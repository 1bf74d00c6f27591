"""Independent reference computations the benchmark checks fragilis against.

Each oracle recomputes a result by another route than the package: numpy
instead of Python loops, ranks instead of pair counts, a deterministic
quadrature instead of Monte Carlo. None of them calls the function it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def present_value(entries, rate: float, shift: float = 0.0) -> float:
    """PV of (t, amount) pairs, every time shifted by `shift` years."""
    if not len(entries):
        return 0.0
    arr = np.asarray(entries, dtype=float)
    return float(np.sum(arr[:, 1] * (1.0 + rate) ** -(arr[:, 0] + shift)))


def full_p_break(b: float, c: float, o: float, rate: float, capex_dist, schedule_dist,
                 duration: float, shortfall: float, panels: int = 600, order: int = 8) -> float:
    """P(BCR < 1) under capex + schedule slippage + fixed shortfall by 1-D
    Gauss-Legendre quadrature over the slippage quantile level u.

    For a fixed slippage the delay discount x is fixed, and the project
    breaks exactly when the capex multiplier exceeds
    k*(x) = ((1 - s) x B - x O) / C, so P = integral over u of 1 - F_k(k*).
    Uses only the public scalar quantile and cdf of the distributions.
    """

    def integrand(u: float) -> float:
        slip = schedule_dist.quantile(u)
        x = (1.0 + rate) ** -(max(slip - 1.0, 0.0) * duration)
        k_star = ((1.0 - shortfall) * x * b - x * o) / c
        return 1.0 if k_star <= 0.0 else 1.0 - capex_dist.cdf(k_star)

    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        total += half * math.fsum(w * integrand(mid + half * z) for z, w in zip(nodes, weights))
    return float(total)


def midranks(values) -> np.ndarray:
    """Ranks 1..n with ties given their average rank."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="mergesort")
    sorted_v = v[order]
    _, start, counts = np.unique(sorted_v, return_index=True, return_counts=True)
    avg = start + (counts + 1) / 2.0
    ranks = np.empty(len(v))
    ranks[order] = np.repeat(avg, counts)
    return ranks


def u_statistic(x, y) -> float:
    """Mann-Whitney U of x by the rank-sum identity U = R_x - n(n+1)/2."""
    n = len(x)
    ranks = midranks(np.concatenate([np.asarray(x, float), np.asarray(y, float)]))
    return float(ranks[:n].sum() - n * (n + 1) / 2.0)


def exact_u_p_value(x, y) -> float:
    """Two-sided exact p of U by enumerating every split of the pooled ranks."""
    n, total = len(x), len(x) + len(y)
    ranks = midranks(np.concatenate([np.asarray(x, float), np.asarray(y, float)]))
    combos = np.array(list(itertools.combinations(range(total), n)))
    us = ranks[combos].sum(axis=1) - n * (n + 1) / 2.0
    center = n * (total - n) / 2.0
    observed = abs(ranks[:n].sum() - n * (n + 1) / 2.0 - center)
    return float(np.count_nonzero(np.abs(us - center) >= observed) / len(us))


def sample_quantile(values, p: float) -> float:
    """Linear interpolation between order statistics, h = (n - 1) p."""
    s = np.sort(np.asarray(values, dtype=float))
    h = (len(s) - 1) * p
    lo = min(int(math.floor(h)), len(s) - 2)
    return float(s[lo] + (h - lo) * (s[lo + 1] - s[lo]))


def kde(sample, grid_points: int = 512, span: float = 4.0) -> tuple[np.ndarray, np.ndarray, float]:
    """Gaussian KDE with Silverman's bandwidth, evaluated point by point."""
    data = np.asarray(sample, dtype=float)
    n = len(data)
    sd = float(np.std(data, ddof=1))
    iqr = sample_quantile(data, 0.75) - sample_quantile(data, 0.25)
    h = 0.9 * (min(sd, iqr / 1.34) if iqr > 0 else sd) * n ** -0.2
    grid = np.linspace(data.min() - span * h, data.max() + span * h, grid_points)
    norm = n * h * math.sqrt(2.0 * math.pi)
    dens = np.array([np.exp(-0.5 * ((g - data) / h) ** 2).sum() / norm for g in grid])
    return grid, dens, h


def one_way_f(groups) -> float:
    arrays = [np.asarray(g, dtype=float) for g in groups]
    pooled = np.concatenate(arrays)
    grand = pooled.mean()
    between = sum(len(a) * (a.mean() - grand) ** 2 for a in arrays)
    within = sum(((a - a.mean()) ** 2).sum() for a in arrays)
    k, n = len(arrays), len(pooled)
    return float((between / (k - 1)) / (within / (n - k)))


def trend(x, y) -> tuple[float, float]:
    """(slope, F) of an OLS fit of y on x."""
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    design = np.column_stack([np.ones_like(xa), xa])
    (intercept, slope), *_ = np.linalg.lstsq(design, ya, rcond=None)
    rss = float(((ya - intercept - slope * xa) ** 2).sum())
    sxx = float(((xa - xa.mean()) ** 2).sum())
    return float(slope), float(slope * slope * sxx / (rss / (len(xa) - 2)))


def within_4se(estimate: float, se: float, exact: float) -> bool:
    """A Monte Carlo estimate against an oracle; the 1e-9 floor absorbs the
    oracle's rounding when every trial agrees and the SE is 0."""
    return abs(estimate - exact) <= max(4.0 * se, 1e-9)


def close(a: float, b: float, rel: float, scale: float | None = None) -> bool:
    """|a - b| within rel of `scale` (default: the larger magnitude)."""
    ref = max(abs(a), abs(b)) if scale is None else abs(scale)
    return abs(a - b) <= rel * ref
