import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from fragilis import _rng
from fragilis.datasets import BIG_DAM_ANCHORS, BIG_DAM_FLOOR, BIG_DAM_MEAN, resolve_dist
from fragilis.dists import (
    GeneralizedParetoTail,
    QuantileDistribution,
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


def test_anchor_lists_of_different_lengths_rejected(canonical_dist):
    with pytest.raises(InputError, match="differ in length"):
        QuantileDistribution((0.5, 0.7), (1.5,), 0.4, canonical_dist.tail)


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
    # 10,000 sorted pairs drawn in one call, then one quantile_array per column
    u = np.sort(np.random.default_rng(77).uniform(1e-9, 1 - 1e-9, size=(10_000, 2)), axis=1)
    u1, u2 = u[u[:, 0] < u[:, 1]].T
    assert np.all(canonical_dist.quantile_array(u1) < canonical_dist.quantile_array(u2))


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
        with pytest.raises(InputError, match="p_hi must lie strictly inside"):
            canonical_dist.partial_mean(u)
    with pytest.raises(InputError):
        canonical_dist.cdf(math.nan)


def test_quantile_rejects_levels_as_quantile_array_does(canonical_dist):
    for p in (0.0, -0.0, 1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InputError) as one:
            canonical_dist.quantile(p)
        with pytest.raises(InputError) as array:
            canonical_dist.quantile_array(np.array([p]))
        assert str(one.value) == str(array.value), p


def test_quantile_at_a_level_rounded_onto_the_tail_end():
    # with this last anchor, the tail level of the largest p below 1 rounds to q = 1
    p_last, p = 0.45056625543445067, math.nextafter(1.0, 0.0)
    assert (p - p_last) / (1.0 - p_last) == 1.0
    for shape in (0.4, 0.0, -0.5):
        dist = build_quantile_dist([(p_last, 2.0)], floor_x=1.0, tail_shape=shape, tail_scale=0.3)
        with np.errstate(divide="ignore"):
            expected = float(dist.quantile_array(np.array([p]))[0])
        assert dist.quantile(p) == expected == dist.support_upper(), shape


def _quantile_mp(dist, p):
    """The piecewise inverse CDF at float level p, evaluated by mpmath at 50 digits."""
    ps, xs = (tuple(map(mpmath.mpf, nodes)) for nodes in dist._nodes())
    p = mpmath.mpf(p)
    if p > ps[-1]:
        q = (p - ps[-1]) / (1 - ps[-1])
        shape, scale = mpmath.mpf(dist.tail.shape), mpmath.mpf(dist.tail.scale)
        if shape == 0:
            return xs[-1] - scale * mpmath.log1p(-q)
        return xs[-1] + scale / shape * ((1 - q) ** -shape - 1)
    hi = 1 + sum(p > node for node in ps[1:-1])
    if ps[hi] == p:
        return xs[hi]
    lo = hi - 1
    log_lo, log_hi = mpmath.log(xs[lo]), mpmath.log(xs[hi])
    return mpmath.exp(log_lo + (p - ps[lo]) / (ps[hi] - ps[lo]) * (log_hi - log_lo))


@pytest.mark.parametrize("name", ["big-dam", "big-dam-schedule"])
def test_quantile_within_3_ulps_of_50_digit_oracle(name):
    dist = resolve_dist(name)
    anchors = np.array(dist.anchor_ps)
    levels = np.concatenate([
        anchors,
        np.nextafter(anchors, 0.0),
        np.nextafter(anchors, 1.0),
        _rng.uniforms(5, 1, 0, 400),
        1.0 - _rng.uniforms(6, 1, 0, 100) * 1e-9,
    ])
    arrays = dist.quantile_array(levels).tolist()
    # measured, quantile and quantile_array: 2.31 and 2.31 (big-dam), 2.15 and 2.28 (schedule)
    worst = [0.0, 0.0]
    with mpmath.workdps(50):
        for p, from_array in zip(levels.tolist(), arrays):
            exact = _quantile_mp(dist, p)
            ulp = math.ulp(float(exact))
            for k, got in enumerate((dist.quantile(p), from_array)):
                worst[k] = max(worst[k], float(abs(got - exact)) / ulp)
    assert max(worst) <= 3.0, worst


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


def _cdf_oracle(dist, x):
    """The searchsorted CDF that cdf replaced, kept as its bit-level reference."""
    ps, xs = dist._nodes()
    if x <= dist.floor_x:
        return 0.0
    if x >= xs[-1]:
        p_last = float(ps[-1])
        return p_last + (1.0 - p_last) * dist.tail.cdf_excess(x - float(xs[-1]))
    idx = int(np.searchsorted(xs, x, side="left"))
    if xs[idx] == x:
        return float(ps[idx])
    lo = idx - 1
    frac = math.log(x / xs[lo]) / math.log(xs[idx] / xs[lo])
    return float(ps[lo] + frac * (ps[idx] - ps[lo]))


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
    # quantile runs the same formula on libm, whose exp, log and pow differ from numpy's X86_V4
    # loops: measured at most 2 ulps from quantile_array (4 on big-dam-schedule's tail) on 3-5%
    # of levels, and none on X86_V3 or baseline loops
    ones = [dist.quantile(p) for p in levels.tolist()]
    assert all(type(one) is float for one in ones)
    ulps = np.abs(np.array(ones).view(np.int64) - got.view(np.int64))  # values are all positive
    assert ulps.max() <= 4, levels[ulps.argmax()]
    # any input shape, as before: a 2-D block and a 0-d level
    block = levels[:600].reshape(20, 30)
    assert np.array_equal(dist.quantile_array(block), _quantile_array_oracle(dist, block))
    scalar = dist.quantile_array(np.float64(0.7))
    assert scalar.shape == () and scalar == _quantile_array_oracle(dist, np.float64(0.7))


@pytest.mark.parametrize("name", list(_oracle_dists()))
def test_cdf_bit_identical_to_oracle(name):
    dist = _oracle_dists()[name]
    nodes = np.array(dist._nodes()[1])
    upper = dist.support_upper()
    ends = []
    if upper < math.inf:  # the bounded tail's endpoint and points either side of it
        ends = [upper, np.nextafter(upper, 0.0), np.nextafter(upper, np.inf), upper + 1.0]
    points = np.concatenate([
        nodes,
        np.nextafter(nodes, 0.0),
        np.nextafter(nodes, np.inf),
        [dist.floor_x, *ends],
        dist.quantile_array(_rng.uniforms(3, 2, 0, 20_000)),
    ])
    for x in points.tolist():
        got, expected = dist.cdf(x), _cdf_oracle(dist, x)
        assert type(got) is float and got.hex() == expected.hex(), x
    if dist.tail.shape >= 0.0:
        assert upper == math.inf
    else:
        assert upper == dist.anchor_xs[-1] + dist.tail.scale / -dist.tail.shape
        assert dist.cdf(upper) == 1.0


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


@pytest.mark.parametrize("shape", [-0.5, 0.0, 0.3, 0.714])
def test_partial_mean_excess_integrates_quantile_excess(shape):
    tail = GeneralizedParetoTail(shape, 0.8)
    assert tail.partial_mean_excess(0.0) == 0.0
    for q in (0.1, 0.5, 0.9, 0.99):
        value, _ = integrate.quad(lambda t: float(tail.quantile_excess(t)), 0.0, q)
        assert tail.partial_mean_excess(q) == pytest.approx(value, rel=1e-9)


def test_partial_mean_matches_quadrature(canonical_dist):
    for p_hi in (0.3, 0.53, 0.8, 0.97):
        value, _ = integrate.quad(
            canonical_dist.quantile, 1e-7, p_hi,
            points=[p for p, _ in BIG_DAM_ANCHORS if p < p_hi], limit=200,
        )
        assert canonical_dist.partial_mean(p_hi) == pytest.approx(value, rel=1e-5)


def _partial_mean_mp(dist, p):
    """The integral of the piecewise inverse CDF over (0, p) at float level p, in closed
    form by mpmath at 50 digits: a segment's quantile is xa e^(s t) for s in (0, 1)."""
    ps, xs = (tuple(map(mpmath.mpf, nodes)) for nodes in dist._nodes())
    p, total = mpmath.mpf(p), mpmath.mpf(0)
    for pa, xa, pb, xb in zip(ps, xs, ps[1:], xs[1:]):
        top = min(p, pb)
        t = (top - pa) / (pb - pa) * mpmath.log(xb / xa)
        total += (top - pa) * xa * mpmath.expm1(t) / t
        if p <= pb:
            return total
    q = (p - ps[-1]) / (1 - ps[-1])
    shape, scale = mpmath.mpf(dist.tail.shape), mpmath.mpf(dist.tail.scale)
    excess = scale / shape * ((1 - (1 - q) ** (1 - shape)) / (1 - shape) - q)
    return total + (1 - ps[-1]) * (xs[-1] * q + excess)


@pytest.mark.parametrize("name", ["big-dam", "big-dam-schedule"])
def test_partial_mean_just_above_a_node_within_3_ulps_of_50_digit_oracle(name):
    # a partial segment's mean was (x_top - xa) / log(x_top / xa), which cancels as
    # x_top nears xa: 1.3e14 ulps off just above the floor. Measured worst here: 0.88
    # (big-dam) and 1.55 (schedule) ulps, and 2.07 and 2.43 at 3,000 random levels
    dist = resolve_dist(name)
    levels = [math.nextafter(node, 1.0) if d == 0.0 else node + d
              for node in dist._nodes()[0] for d in (0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-4)]
    levels += _rng.uniforms(7, 1, 0, 40).tolist()
    worst = 0.0
    with mpmath.workdps(50):
        for p in levels:
            exact = _partial_mean_mp(dist, p)
            worst = max(worst, float(abs(dist.partial_mean(p) - exact)) / math.ulp(float(exact)))
    assert worst <= 3.0, worst


# ---------------------------------------------------------------------------
# serialization


def test_dist_round_trip_resolved_tail(canonical_dist):
    tail = canonical_dist.tail
    doc = {
        "anchors": [{"p": p, "x": x} for p, x in BIG_DAM_ANCHORS],
        "floor_x": BIG_DAM_FLOOR,
        "tail": {"shape": tail.shape, "scale": tail.scale},
    }
    back = dist_from_dict(doc)
    assert back.anchor_ps == canonical_dist.anchor_ps
    assert back.anchor_xs == canonical_dist.anchor_xs
    assert back.floor_x == canonical_dist.floor_x
    assert back.tail == tail


def test_dist_from_calibration_spec(canonical_dist):
    doc = {
        "anchors": [{"p": p, "x": x} for p, x in BIG_DAM_ANCHORS],
        "floor_x": BIG_DAM_FLOOR,
        "tail": {"calibrate_mean": BIG_DAM_MEAN},
    }
    dist = dist_from_dict(doc)
    assert dist.tail == canonical_dist.tail


def test_dist_malformed_documents():
    with pytest.raises(InputError):
        dist_from_dict({"anchors": []})
    with pytest.raises(InputError):
        dist_from_dict({"anchors": [{"p": 0.5, "x": 1.0}], "floor_x": 0.4, "tail": {}})
