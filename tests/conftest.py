"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from fragilis.cashflow import AppraisalModel, CashFlowStream
from fragilis.datasets import BIG_DAM_ANCHORS, BIG_DAM_FLOOR, BIG_DAM_MEAN
from fragilis.dists import QuantileDistribution, build_quantile_dist
from fragilis.stress import StressResult


def random_model(rng: np.random.Generator, r_range=(0.0, 0.25), with_om=True) -> AppraisalModel:
    """Random but valid appraisal model: upfront-ish capex, positive benefits,
    optional light O&M."""
    n_capex = int(rng.integers(1, 4))
    capex = CashFlowStream.of(
        (rng.uniform(0.0, 2.0), rng.uniform(50.0, 500.0)) for _ in range(n_capex)
    )
    n_ben = int(rng.integers(2, 12))
    benefits = CashFlowStream.of(
        (rng.uniform(1.0, 30.0), rng.uniform(10.0, 200.0)) for _ in range(n_ben)
    )
    n_om = int(rng.integers(0, 4)) if with_om else 0
    om = CashFlowStream.of((rng.uniform(1.0, 30.0), rng.uniform(0.0, 20.0)) for _ in range(n_om))
    return AppraisalModel(
        capex=capex,
        benefits=benefits,
        om_costs=om,
        discount_rate=float(rng.uniform(*r_range)),
    )


def result_json(result: StressResult) -> str:
    """A stress result's document as stress.json lays it out: indented, keys sorted."""
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


def quantile_oracle(values, p):
    """Brute-force type 7 quantile of values at level p, from a sorted copy."""
    s = sorted(values)
    h = (len(s) - 1) * p
    lo = math.floor(h)
    if lo == h:  # a whole position is its order statistic
        return s[lo]
    a, b, f = s[lo], s[lo + 1], h - lo
    return a + f * (b - a) if math.isfinite(b - a) else (1 - f) * a + f * b


def u_pairwise(x, y):
    """Brute-force U oracle: pairs with x_i > y_j plus half the tied pairs."""
    gt = sum(1 for a in x for b in y if a > b)
    eq = sum(1 for a in x for b in y if a == b)
    return gt + 0.5 * eq


def mwu_enumeration_oracle(x, y):
    """Independent full-enumeration permutation oracle: double-loop U on
    every labeling of the pooled values."""
    pooled = list(x) + list(y)
    n, m = len(x), len(y)
    center = n * m / 2.0

    def u_of(ix):
        gx = [pooled[i] for i in ix]
        gy = [pooled[i] for i in range(n + m) if i not in set(ix)]
        return u_pairwise(gx, gy)

    u_obs = u_of(tuple(range(n)))
    dev = abs(u_obs - center)
    combos = list(itertools.combinations(range(n + m), n))
    hits = sum(1 for ix in combos if abs(u_of(ix) - center) >= dev)
    return u_obs, hits / len(combos)


def near_degenerate_dist(value: float) -> QuantileDistribution:
    """All mass within ~1e-9 of one value; stands in for a point mass."""
    return build_quantile_dist(
        [(0.5, value)], floor_x=value * (1.0 - 1e-9), tail_shape=0.0, tail_scale=1e-12
    )


@pytest.fixture(scope="session")
def canonical_dist() -> QuantileDistribution:
    return build_quantile_dist(BIG_DAM_ANCHORS, BIG_DAM_FLOOR, mean_target=BIG_DAM_MEAN)
