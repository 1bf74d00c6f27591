"""Fat-tailed overrun distributions built from published quantile anchors.

The inverse CDF is pieced together from a log-linear body through the anchor
points (starting at a positive floor at p=0) and a generalized-Pareto upper
tail above the last anchor. The tail can be given explicitly as (shape,
scale) or calibrated: the scale is pinned by matching the quantile slope at
the junction (which makes the density continuous there) and the shape is
solved so the analytic mean of the composed distribution hits a target.

The inverse CDF has two bodies kept side by side: quantile_array, numpy over
every level of an array (the stress draws), and quantile, plain Python on libm
for one level, so the commands that read a single quantile never load numpy.
Both run the same formula in the same order; they agree exactly at every
anchor and within a few ulps elsewhere (at most 4 in the tests). The mean,
CDF, and partial expectations all have closed forms, so Monte Carlo output
can be checked against analytic values.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import CalibrationError, InputError, checked, load_json

MAX_TAIL_SHAPE = 0.99  # calibrated shapes live in (0, 0.99); >= 1 means infinite mean


@checked
class GeneralizedParetoTail(NamedTuple):
    """GPD exceedance model above the last anchor.

    shape < 1 keeps the mean finite; negative shapes give a bounded tail with
    supremum threshold + scale/|shape|.
    """

    shape: float
    scale: float

    def _check(self) -> None:
        if not -math.inf < self.shape < 1.0:
            raise InputError(f"tail shape must be finite and < 1, got {self.shape}")
        if not 0.0 < self.scale < math.inf:
            raise InputError(f"tail scale must be finite and > 0, got {self.scale}")

    def cdf_excess(self, excess: float) -> float:
        if excess <= 0.0:
            return 0.0
        if self.shape == 0.0:
            return -math.expm1(-excess / self.scale)
        inner = 1.0 + self.shape * excess / self.scale
        if inner <= 0.0:  # beyond the bounded-tail endpoint
            return 1.0
        return 1.0 - inner ** (-1.0 / self.shape)

    def mean_excess(self) -> float:
        return self.scale / (1.0 - self.shape)

    def quantile_excess(self, q: float | np.ndarray) -> float | np.ndarray:
        """Excess over the threshold at tail level q in [0, 1): a float by math, or
        each level of an array by numpy."""
        if self.shape != 0.0:
            return self.scale / self.shape * ((1.0 - q) ** -self.shape - 1.0)
        if isinstance(q, float):
            return -self.scale * math.log1p(-q)
        import numpy as np

        return -self.scale * np.log1p(-q)

    def partial_mean_excess(self, q: float) -> float:
        """Integral of quantile_excess over tail levels (0, q), for q in [0, 1)."""
        w = 1.0 - q
        if self.shape == 0.0:
            return self.scale * (w * math.log(w) - w + 1.0)
        return self.scale / self.shape * ((1.0 - w ** (1.0 - self.shape)) / (1.0 - self.shape) - q)


@checked
class QuantileDistribution(NamedTuple):
    """Distribution over positive ratios pinned to (probability, value) anchors.

    anchor_ps / anchor_xs are strictly increasing; floor_x is the value at
    p=0. Between consecutive nodes the quantile function is exponential in p
    (linear in log value); above the last anchor it follows the GPD tail.
    """

    anchor_ps: tuple[float, ...]
    anchor_xs: tuple[float, ...]
    floor_x: float
    tail: GeneralizedParetoTail

    def _check(self) -> None:
        if not self.anchor_ps:
            raise InputError("at least one anchor required")
        if len(self.anchor_ps) != len(self.anchor_xs):
            raise InputError("anchor probability/value lists differ in length")
        if not self.floor_x > 0.0:
            raise InputError(f"floor value must be positive, got {self.floor_x}")
        prev_p, prev_x = 0.0, self.floor_x
        for p, x in zip(self.anchor_ps, self.anchor_xs):
            if not 0.0 < p < 1.0:
                raise InputError(f"anchor probability must be in (0, 1), got {p}")
            if p <= prev_p and prev_p != 0.0:
                raise InputError("anchor probabilities must be strictly increasing")
            if not prev_x < x < math.inf:  # NaN fails too
                raise InputError(
                    "anchor values must be finite, strictly increasing and above the floor"
                )
            prev_p, prev_x = p, x

    # -- quantile / CDF ------------------------------------------------------

    def _nodes(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Quantile nodes (p, x): the floor at p=0, then every anchor."""
        return (0.0, *self.anchor_ps), (self.floor_x, *self.anchor_xs)

    def quantile(self, p: float) -> float:
        """Inverse CDF at one level p in (0, 1); anchors are returned exactly.

        Plain Python on libm, never numpy: quantile_array's formula in its order
        of operations, so off the anchors the two can differ by a few ulps, as
        math.exp, math.log and pow differ from numpy's loops. Only libm rounds
        here, so the result does not change with numpy's CPU dispatch target."""
        p = float(p)
        if not 0.0 < p < 1.0:  # NaN fails the check too
            raise InputError("quantile levels must lie strictly inside (0, 1)")
        ps, xs = self._nodes()
        p_last = ps[-1]
        if p > p_last:
            q = (p - p_last) / (1.0 - p_last)
            if q == 1.0:  # a level rounded onto the tail's end, where quantile_array reads it too
                return self.support_upper()
            return xs[-1] + self.tail.quantile_excess(q)
        # Segment [ps[hi-1], ps[hi]] holding p, by quantile_array's node-count rule
        hi = 1 + sum(p > node for node in ps[1:-1])
        if ps[hi] == p:
            return xs[hi]
        lo = hi - 1
        frac = (p - ps[lo]) / (ps[hi] - ps[lo])
        log_lo = math.log(xs[lo])
        return math.exp(log_lo + frac * (math.log(xs[hi]) - log_lo))

    def quantile_array(self, p: np.ndarray) -> np.ndarray:
        """Inverse CDF at every level of p, any shape; anchors are returned exactly."""
        import numpy as np

        shape = np.shape(p)
        p = np.asarray(p, dtype=float).reshape(-1)
        if not np.all((p > 0.0) & (p < 1.0)):  # NaN fails the check too
            raise InputError("quantile levels must lie strictly inside (0, 1)")
        ps, xs = (np.asarray(nodes, dtype=float) for nodes in self._nodes())
        log_xs = np.log(xs)
        p_last = ps[-1]

        # Segment [ps[j], ps[j+1]] holding each level: the count of interior
        # nodes below it (an anchor level lands on the segment it closes).
        seg = np.zeros(p.shape, dtype=np.min_scalar_type(len(ps)))
        for node in ps[1:-1]:
            seg += p > node
        seg = seg.astype(np.intp)
        # Tail levels run on past the last segment here, possibly to inf; the
        # tail formula below overwrites them.
        with np.errstate(over="ignore"):
            frac = (p - ps[:-1].take(seg)) / np.diff(ps).take(seg)
            out = np.exp(log_xs[:-1].take(seg) + frac * np.diff(log_xs).take(seg))
        exact = np.flatnonzero(p == ps[1:].take(seg))  # pin anchors, no exp/log round trip
        out.put(exact, xs[1:].take(seg.take(exact)))

        tail = np.flatnonzero(p > p_last)
        if tail.size:
            q = (p.take(tail) - p_last) / (1.0 - p_last)
            out.put(tail, xs[-1] + self.tail.quantile_excess(q))
        return out.reshape(shape)

    def cdf(self, x: float) -> float:
        """P(X <= x), inverting the piecewise quantile function."""
        if math.isnan(x):
            raise InputError("cdf argument must be a number, got nan")
        ps, xs = self._nodes()
        if x <= self.floor_x:
            return 0.0
        if x >= xs[-1]:
            p_last = ps[-1]
            return p_last + (1.0 - p_last) * self.tail.cdf_excess(x - xs[-1])
        # Segment [xs[hi-1], xs[hi]] holding x, by quantile_array's node-count rule
        hi = 1 + sum(x > node for node in xs[1:-1])
        if xs[hi] == x:
            return ps[hi]
        lo = hi - 1
        frac = math.log(x / xs[lo]) / math.log(xs[hi] / xs[lo])
        return ps[lo] + frac * (ps[hi] - ps[lo])

    def support_upper(self) -> float:
        """Upper endpoint of the support: inf unless the tail shape is
        negative, which bounds it at x_last + scale/|shape|."""
        if self.tail.shape >= 0.0:
            return math.inf
        return self.anchor_xs[-1] + self.tail.scale / -self.tail.shape

    def sample_array(self, u: np.ndarray) -> np.ndarray:
        """quantile_array(u). Nothing in fragilis calls it: it exists only because
        perfbench probes it, and goes when that probe moves to quantile_array."""
        return self.quantile_array(u)

    # -- analytic moments ----------------------------------------------------

    def body_mean(self) -> float:
        """Mean contribution of the log-linear body, i.e. the integral of the
        quantile function from 0 to the last anchor probability."""
        return self.partial_mean(self.anchor_ps[-1])

    def mean(self) -> float:
        """Analytic mean of the composed distribution."""
        p_last = self.anchor_ps[-1]
        tail_mean = self.anchor_xs[-1] + self.tail.mean_excess()
        return self.body_mean() + (1.0 - p_last) * tail_mean

    def partial_mean(self, p_hi: float) -> float:
        """Integral of the quantile function over (0, p_hi); together with
        mean() this gives trimmed means in closed form."""
        if not 0.0 < p_hi < 1.0:
            raise InputError("p_hi must lie strictly inside (0, 1)")
        ps, xs = self._nodes()
        total = 0.0
        for (pa, xa), (pb, xb) in zip(zip(ps, xs), zip(ps[1:], xs[1:])):
            if p_hi < pb:  # the last, partial segment: the quantile over (pa, p_hi) is
                # xa e^(s t) for s in (0, 1), whose mean xa expm1(t) / t does not cancel near pa
                log_xa = math.log(xa)
                t = (p_hi - pa) / (pb - pa) * (math.log(xb) - log_xa)
                return total + (p_hi - pa) * (xa * (math.expm1(t) / t) if t else xa)
            total += (pb - pa) * ((xb - xa) / math.log(xb / xa))
            if p_hi == pb:
                return total
        # remainder lies in the tail: integrate threshold + excess quantile
        p_last = ps[-1]
        q_hi = (p_hi - p_last) / (1.0 - p_last)
        integral_excess = self.tail.partial_mean_excess(q_hi)
        return total + (1.0 - p_last) * (self.anchor_xs[-1] * q_hi + integral_excess)


def _junction_scale(dist: QuantileDistribution) -> float:
    """GPD scale that matches the body's quantile slope at the junction of
    dist's last two nodes, making the density continuous across it."""
    (*_, p_prev, p_last), (*_, x_prev, x_last) = dist._nodes()
    slope = x_last * math.log(x_last / x_prev) / (p_last - p_prev)
    return (1.0 - p_last) * slope


def build_quantile_dist(
    anchors: Sequence[tuple[float, float]],
    floor_x: float,
    tail_shape: float | None = None,
    tail_scale: float | None = None,
    mean_target: float | None = None,
) -> QuantileDistribution:
    """Assemble a QuantileDistribution from anchors plus a tail choice.

    Pass (tail_shape, tail_scale) for an explicit tail, or mean_target to
    calibrate one: the scale follows from slope continuity at the junction
    and the shape is solved in (0, 0.99) so the analytic mean equals the
    target. Calibration fails if the target needs an infinite-mean tail
    (shape >= 1) or is below what the minimal tail already delivers.
    """
    anchors = sorted((float(p), float(x)) for p, x in anchors)
    ps = tuple(p for p, _ in anchors)
    xs = tuple(x for _, x in anchors)

    explicit = tail_shape is not None or tail_scale is not None
    if explicit and mean_target is not None:
        raise InputError("give either an explicit tail or a mean target, not both")
    if explicit:
        if tail_shape is None or tail_scale is None:
            raise InputError("explicit tail needs both shape and scale")
        return QuantileDistribution(ps, xs, floor_x, GeneralizedParetoTail(tail_shape, tail_scale))
    if mean_target is None:
        raise InputError("tail unspecified: give (shape, scale) or a mean target")

    # the probe validates the anchors before _junction_scale reads them; its
    # body mean does not depend on the tail
    probe = QuantileDistribution(ps, xs, floor_x, GeneralizedParetoTail(0.5, 1.0))
    body = probe.body_mean()
    sigma = _junction_scale(probe)
    p_last, x_last = ps[-1], xs[-1]
    tail_mass = 1.0 - p_last

    def mean_for(shape: float) -> float:
        return body + tail_mass * (x_last + sigma / (1.0 - shape))

    lo_mean = mean_for(1e-12)
    hi_mean = mean_for(MAX_TAIL_SHAPE)
    if mean_target >= hi_mean:
        raise CalibrationError(
            f"mean target {mean_target} unattainable: needs tail shape >= {MAX_TAIL_SHAPE} "
            f"(mean would have to exceed {hi_mean:.6g}; shape >= 1 means an infinite mean)"
        )
    if mean_target <= lo_mean:
        raise CalibrationError(
            f"mean target {mean_target} below the minimum {lo_mean:.6g} reachable with "
            "the slope-matched tail scale"
        )
    # mean_for is strictly increasing in shape: solve directly
    shape = 1.0 - sigma * tail_mass / (mean_target - body - tail_mass * x_last)
    dist = QuantileDistribution(ps, xs, floor_x, GeneralizedParetoTail(shape, sigma))
    achieved = dist.mean()
    if abs(achieved - mean_target) > 1e-6 * abs(mean_target):
        raise CalibrationError(
            f"calibration drifted: achieved mean {achieved} vs target {mean_target}"
        )
    return dist


def dist_from_dict(doc: dict) -> QuantileDistribution:
    """Build from the JSON document form; accepts either a resolved tail
    {shape, scale} or a calibration request {calibrate_mean}."""
    try:
        anchors = [(float(a["p"]), float(a["x"])) for a in doc["anchors"]]
        floor_x = float(doc["floor_x"])
        tail = doc["tail"]
        if not isinstance(tail, dict):
            raise TypeError(f"tail must be an object, got {tail!r}")
        if "calibrate_mean" in tail:
            tail_args = {"mean_target": float(tail["calibrate_mean"])}
        else:
            tail_args = {"tail_shape": float(tail["shape"]), "tail_scale": float(tail["scale"])}
    except KeyError as exc:
        raise InputError(f"malformed distribution document: missing {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed distribution document: {exc}") from None
    return build_quantile_dist(anchors, floor_x, **tail_args)


def load_dist(path: str | Path) -> QuantileDistribution:
    return dist_from_dict(load_json(path, "distribution file"))
