import math

import numpy as np
import pytest
from scipy import integrate

from fragilis.datasets import BIG_DAM_ANCHORS, BIG_DAM_FLOOR, BIG_DAM_MEAN
from fragilis.dists import (
    GeneralizedParetoTail,
    build_quantile_dist,
    dist_from_dict,
)
from fragilis.errors import CalibrationError, InputError

from conftest import near_degenerate_dist


# ---------------------------------------------------------------------------
# construction and anchors


def test_canonical_anchors_reproduced_exactly(canonical_dist):
    for p, x in BIG_DAM_ANCHORS:
        assert canonical_dist.quantile(p) == x
        assert canonical_dist.sample(p) == x


def test_canonical_published_quantiles(canonical_dist):
    assert canonical_dist.quantile(0.50) == 1.27
    assert canonical_dist.quantile(0.80) == 1.99
    assert canonical_dist.quantile(0.90) == 3.07
    assert canonical_dist.cdf(1.40) == pytest.approx(0.53, abs=1e-12)


def test_single_anchor_identity():
    dist = build_quantile_dist([(0.5, 1.0)], floor_x=0.5, tail_shape=0.1, tail_scale=0.4)
    assert dist.quantile(0.5) == 1.0


def test_calibrated_mean_hits_target(canonical_dist):
    assert canonical_dist.mean_target == BIG_DAM_MEAN
    assert abs(canonical_dist.mean() - BIG_DAM_MEAN) <= 1e-6 * BIG_DAM_MEAN


def test_mean_matches_numeric_quadrature(canonical_dist):
    points = [p for p, _ in BIG_DAM_ANCHORS]
    value, err = integrate.quad(
        canonical_dist.quantile, 0.0005, 0.9995, points=points, limit=300
    )
    # add the analytic sliver below 0.0005 and above 0.9995
    value += canonical_dist.partial_mean(0.0005)
    value += canonical_dist.mean() - canonical_dist.partial_mean(0.9995)
    assert value == pytest.approx(canonical_dist.mean(), rel=1e-5)


def test_gpd_tail_closed_form_oracle(canonical_dist):
    xi = canonical_dist.tail.shape
    sigma = canonical_dist.tail.scale
    p_last, x_last = 0.90, 3.07
    u = 0.99
    q = (u - p_last) / (1 - p_last)
    expected = x_last + sigma / xi * ((1 - q) ** -xi - 1)
    got = canonical_dist.quantile(u)
    assert got > 3.07
    assert got == pytest.approx(expected, rel=1e-12)


def test_non_monotone_anchors_rejected():
    with pytest.raises(InputError):
        build_quantile_dist([(0.5, 1.5), (0.7, 1.2)], 0.4, tail_shape=0.1, tail_scale=0.5)
    with pytest.raises(InputError):
        build_quantile_dist([(0.5, 1.5), (0.5, 1.8)], 0.4, tail_shape=0.1, tail_scale=0.5)
    with pytest.raises(InputError):
        build_quantile_dist([(0.5, 0.3)], 0.4, tail_shape=0.1, tail_scale=0.5)


def test_tail_parameter_validation():
    with pytest.raises(InputError):
        GeneralizedParetoTail(1.0, 0.5)
    with pytest.raises(InputError):
        GeneralizedParetoTail(0.2, 0.0)


def test_calibration_infeasible_errors():
    with pytest.raises(CalibrationError, match="infinite mean"):
        build_quantile_dist(BIG_DAM_ANCHORS, BIG_DAM_FLOOR, mean_target=50.0)
    with pytest.raises(CalibrationError, match="below the minimum"):
        build_quantile_dist(BIG_DAM_ANCHORS, BIG_DAM_FLOOR, mean_target=1.30)


def test_calibration_requires_exactly_one_tail_spec():
    with pytest.raises(InputError):
        build_quantile_dist(BIG_DAM_ANCHORS, 0.4, tail_shape=0.1, tail_scale=0.5, mean_target=2.0)
    with pytest.raises(InputError):
        build_quantile_dist(BIG_DAM_ANCHORS, 0.4, tail_shape=0.1)
    with pytest.raises(InputError):
        build_quantile_dist(BIG_DAM_ANCHORS, 0.4)


# ---------------------------------------------------------------------------
# quantile / CDF properties


def test_inverse_cdf_strictly_monotone(canonical_dist):
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        u1, u2 = sorted(rng.uniform(1e-9, 1 - 1e-9, size=2))
        if u1 == u2:
            continue
        assert canonical_dist.quantile(u1) < canonical_dist.quantile(u2)


def test_cdf_quantile_round_trip(canonical_dist):
    for p in [i / 100 for i in range(1, 100)]:
        assert canonical_dist.cdf(canonical_dist.quantile(p)) == pytest.approx(p, abs=1e-9)


def test_quantile_cdf_round_trip_values(canonical_dist):
    for x in (0.5, 0.9, 1.1, 1.27, 1.5, 1.99, 2.5, 3.07, 5.0, 20.0):
        p = canonical_dist.cdf(x)
        if 0 < p < 1:
            assert canonical_dist.quantile(p) == pytest.approx(x, rel=1e-9)


def test_cdf_below_floor_is_zero(canonical_dist):
    assert canonical_dist.cdf(0.39) == 0.0
    assert canonical_dist.cdf(BIG_DAM_FLOOR) == 0.0


def test_sample_domain_errors(canonical_dist):
    for u in (0.0, 1.0, -0.1, 1.7, math.nan):
        with pytest.raises(InputError):
            canonical_dist.sample(u)
        with pytest.raises(InputError):
            canonical_dist.quantile(u)
        with pytest.raises(InputError):
            canonical_dist.quantile_array(np.array([0.5, u]))
    with pytest.raises(InputError):
        canonical_dist.cdf(math.nan)


def test_bounded_negative_shape_tail():
    dist = build_quantile_dist([(0.5, 0.11)], floor_x=0.01, tail_shape=-0.5, tail_scale=0.2)
    endpoint = 0.11 + 0.2 / 0.5
    assert dist.quantile(0.999999) < endpoint
    assert dist.cdf(endpoint) == 1.0
    assert dist.cdf(endpoint + 1.0) == 1.0


def test_exponential_tail_branch():
    dist = build_quantile_dist([(0.5, 1.0)], floor_x=0.5, tail_shape=0.0, tail_scale=0.3)
    # GPD with shape 0 is the exponential: Q(u) = x + sigma * -log((1-u)/(1-p))
    u = 0.95
    expected = 1.0 + 0.3 * -math.log((1 - u) / 0.5)
    assert dist.quantile(u) == pytest.approx(expected, rel=1e-12)
    assert dist.cdf(expected) == pytest.approx(u, abs=1e-12)
    assert dist.mean() == pytest.approx(
        dist.body_mean() + 0.5 * (1.0 + 0.3), rel=1e-12
    )


def test_near_degenerate_helper():
    dist = near_degenerate_dist(1.0)
    assert dist.quantile(0.5) == 1.0
    assert abs(dist.quantile(0.01) - 1.0) < 1e-8
    assert abs(dist.quantile(0.99) - 1.0) < 1e-8


def test_partial_mean_converges_to_mean(canonical_dist):
    lo = canonical_dist.partial_mean(0.5)
    mid = canonical_dist.partial_mean(0.9)
    hi = canonical_dist.partial_mean(0.99999999)
    assert lo < mid < hi < canonical_dist.mean()
    # the top 1e-8 of mass still carries ~0.3% of the mean under this tail;
    # convergence is power-law, not exponential
    assert hi == pytest.approx(canonical_dist.mean(), rel=1e-2)
    assert mid == pytest.approx(canonical_dist.body_mean(), rel=1e-12)


def test_partial_mean_matches_quadrature(canonical_dist):
    for p_hi in (0.3, 0.53, 0.8, 0.97):
        value, _ = integrate.quad(
            canonical_dist.quantile, 1e-7, p_hi,
            points=[p for p, _ in BIG_DAM_ANCHORS if p < p_hi], limit=200,
        )
        assert canonical_dist.partial_mean(p_hi) == pytest.approx(value, rel=1e-5)


# ---------------------------------------------------------------------------
# serialization


def test_dist_round_trip_resolved_tail(canonical_dist):
    doc = canonical_dist.to_dict()
    back = dist_from_dict(doc)
    assert back.anchor_ps == canonical_dist.anchor_ps
    assert back.anchor_xs == canonical_dist.anchor_xs
    assert back.floor_x == canonical_dist.floor_x
    assert back.tail == canonical_dist.tail
    assert back.mean_target == canonical_dist.mean_target


def test_dist_from_calibration_spec(canonical_dist):
    doc = {
        "anchors": [{"p": p, "x": x} for p, x in BIG_DAM_ANCHORS],
        "floor_x": BIG_DAM_FLOOR,
        "tail": {"calibrate_mean": BIG_DAM_MEAN},
    }
    dist = dist_from_dict(doc)
    assert dist.tail == canonical_dist.tail
    assert dist.mean_target == BIG_DAM_MEAN


def test_dist_malformed_documents():
    with pytest.raises(InputError):
        dist_from_dict({"anchors": []})
    with pytest.raises(InputError):
        dist_from_dict({"anchors": [{"p": 0.5, "x": 1.0}], "floor_x": 0.4, "tail": {}})
