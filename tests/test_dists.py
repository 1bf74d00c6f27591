import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from fragilis import _rng
from fragilis.datasets import BIG_DAM_ANCHORS, BIG_DAM_FLOOR, BIG_DAM_MEAN, resolve_dist
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
    for x in (math.nan, math.inf):
        with pytest.raises(InputError, match="finite"):
            build_quantile_dist([(0.5, 1.5), (0.7, x)], 0.4, tail_shape=0.1, tail_scale=0.5)


def test_tail_parameter_validation():
    for shape, scale in ((1.0, 0.5), (0.2, 0.0), (-math.inf, 0.5), (0.2, math.inf), (0.2, math.nan)):
        with pytest.raises(InputError):
            GeneralizedParetoTail(shape, scale)


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
            canonical_dist.quantile(u)
        with pytest.raises(InputError):
            canonical_dist.quantile_array(np.array([0.5, u]))
    with pytest.raises(InputError):
        canonical_dist.cdf(math.nan)


def _quantile_array_oracle(dist, p):
    """The searchsorted and boolean-mask inverse CDF that quantile_array
    replaced, kept as its bit-level reference."""
    p = np.asarray(p, dtype=float)
    ps, xs = (np.asarray(nodes, dtype=float) for nodes in dist._nodes())
    log_xs = np.log(xs)
    p_last = ps[-1]
    out = np.empty_like(p)
    body = p <= p_last
    if np.any(body):
        pb = p[body]
        idx = np.searchsorted(ps, pb, side="left")
        lo = idx - 1
        frac = (pb - ps[lo]) / (ps[idx] - ps[lo])
        out[body] = np.exp(log_xs[lo] + frac * (log_xs[idx] - log_xs[lo]))
        exact = ps[idx] == pb
        out_body = out[body]
        out_body[exact] = xs[idx][exact]
        out[body] = out_body
    tail = ~body
    if np.any(tail):
        q = (p[tail] - p_last) / (1.0 - p_last)
        if dist.tail.shape == 0.0:
            excess = -dist.tail.scale * np.log1p(-q)
        else:
            excess = dist.tail.scale / dist.tail.shape * ((1.0 - q) ** -dist.tail.shape - 1.0)
        out[tail] = xs[-1] + excess
    return out


def _oracle_dists():
    return {
        "big-dam": resolve_dist("big-dam"),
        "big-dam-schedule": resolve_dist("big-dam-schedule"),
        "one anchor, zero shape": build_quantile_dist(
            [(0.5, 1.0)], floor_x=0.5, tail_shape=0.0, tail_scale=0.3),
        "one anchor, negative shape": build_quantile_dist(
            [(0.5, 0.11)], floor_x=0.001, tail_shape=-0.25, tail_scale=0.04),
        # exp(log(3.0)) != 3.0, so only pinning returns that anchor exactly
        "anchor at 1e-300, positive shape": build_quantile_dist(
            [(1e-300, 1.0), (0.3, 3.0), (0.999, 9.0)], floor_x=0.2,
            tail_shape=0.9, tail_scale=5.0),
        # a last segment one ulp wide: tail levels run its slope far past the float range
        "one-ulp last segment": build_quantile_dist(
            [(0.5, 1.0), (float(np.nextafter(0.5, 1.0)), 2.0)], floor_x=0.5,
            tail_shape=0.3, tail_scale=0.1),
    }


@pytest.mark.parametrize("name", list(_oracle_dists()))
def test_quantile_array_bit_identical_to_oracle(name):
    dist = _oracle_dists()[name]
    anchors = np.array(dist.anchor_ps)
    levels = np.concatenate([
        anchors,
        np.nextafter(anchors, 0.0),
        np.nextafter(anchors, 1.0),
        [5e-324, 1e-300, 1e-16, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53, np.nextafter(1.0, 0.0)],
        _rng.uniforms(3, 1, 0, 20_000),
        1.0 - _rng.uniforms(4, 1, 0, 2_000) * 1e-9,
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = dist.quantile_array(levels)
    expected = _quantile_array_oracle(dist, levels)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    for p, x in zip(dist.anchor_ps, dist.anchor_xs):
        assert dist.quantile(p) == x
    # any input shape, as before: a 2-D block and a 0-d level
    block = levels[:600].reshape(20, 30)
    assert np.array_equal(dist.quantile_array(block), _quantile_array_oracle(dist, block))
    scalar = dist.quantile_array(np.float64(0.7))
    assert scalar.shape == () and scalar == _quantile_array_oracle(dist, np.float64(0.7))


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
