import math
import re

import pytest

from fragilis.charts import MARGIN_L, MARGIN_R, WIDTH, _ticks, line_chart
from fragilis.stats import kde


def test_one_value_axis_spans_one_unit():
    svg = line_chart([("a", [3.0], [2.0])], "t", "x", "y")
    assert ">3</text>" in svg and ">4</text>" in svg


def test_one_value_axis_spans_one_ulp_where_one_unit_rounds_away():
    # 1e17 + 1.0 rounds back to 1e17, so a one-unit span would divide by zero
    for x in (1e17, -1e17, 2.0**1000):
        svg = line_chart([("a", [x, x], [0.0, 1.0])], "t", "x", "y")
        assert svg.startswith("<svg") and svg.endswith("</svg>\n")


def test_tick_labels_gain_digits_until_distinct():
    # :g gives 1e+06 for every tick here
    svg = line_chart([("a", [1000000.1, 1000000.5], [0.0, 1.0])], "t", "x", "y")
    for label in ("1000000.1", "1000000.2", "1000000.3", "1000000.4", "1000000.5"):
        assert f">{label}</text>" in svg
    assert ">1e+06</text>" not in svg


def _tick_positions(svg: str, axis: str) -> list[tuple[float, str]]:
    """(pixel, label) of each tick on the x axis (centred labels) or the y axis (end-anchored)."""
    anchor, coord = ("middle", "x") if axis == "x" else ("end", "y")
    found = re.findall(rf'<text x="([-\d.]+)" y="([-\d.]+)" text-anchor="{anchor}" '
                       rf'font-family="sans-serif" font-size="11">([^<]*)</text>', svg)
    return [(float(x if coord == "x" else y), label) for x, y, label in found]


def test_ticks_on_a_subnormal_axis():
    # (hi - lo) / 6 underflows to 0 here, and 10.0 ** -324 does too
    assert _ticks(0.0, 5e-324) == [0.0]
    svg = line_chart([("a", [1.0, 2.0], [0.0, 5e-324])], "t", "x", "y")
    assert [label for _, label in _tick_positions(svg, "y")] == ["0"]


def test_ticks_keep_the_digits_of_a_tiny_step():
    # rounding at 12 places put every tick of this axis at 0
    ticks = _ticks(0.0, 1e-300)
    assert ticks == [0.0, 2e-301, 4e-301, 6e-301, 8e-301, 1e-300]
    svg = line_chart([("a", [1.0, 2.0], [0.0, 1e-300])], "t", "x", "y")
    labels = [label for _, label in _tick_positions(svg, "y")]
    assert labels == ["0", "2e-301", "4e-301", "6e-301", "8e-301", "1e-300"]


def test_ticks_lie_inside_a_narrow_density_axis():
    trace = kde([1.0, 1.0000000000006], bandwidth=1e-14)
    lo, hi = trace.grid[0], trace.grid[-1]
    ticks = _ticks(lo, hi)
    assert ticks and all(lo <= t <= hi for t in ticks) and len(set(ticks)) == len(ticks)
    svg = line_chart([("d", trace.grid, trace.density)], "t", "x", "y")
    drawn = _tick_positions(svg, "x")
    assert all(MARGIN_L <= px <= WIDTH - MARGIN_R for px, _ in drawn)
    assert len({px for px, _ in drawn}) == len({label for _, label in drawn}) == len(drawn)


def test_ticks_past_2_53_are_distinct_floats():
    # an integer step once gave the ints 1e17, +5, +10 and +15: four ticks on two floats
    ticks = _ticks(1e17, 1e17 + 16)
    assert ticks == [1e17, math.nextafter(1e17, math.inf)]
    assert all(type(t) is float for t in ticks)


def test_a_tick_at_zero_reads_0_not_minus_0():
    # round(-2.2e-16, 1) is -0.0, which :g prints as -0
    ticks = _ticks(-0.6080463632260644, 0.42875404104918546)
    assert ticks == [-0.6, -0.4, -0.2, 0.0, 0.2, 0.4]
    assert math.copysign(1.0, ticks[3]) == 1.0
    svg = line_chart([("a", [-0.6080463632260644, 0.42875404104918546], [0.0, 1.0])], "t", "x", "y")
    assert [label for _, label in _tick_positions(svg, "x")] == ["-0.6", "-0.4", "-0.2", "0", "0.2", "0.4"]


def test_an_axis_wider_than_the_float_range_is_a_value_error():
    # 1e308 - (-1e308) is inf: no scale or tick exists for that axis
    for xs, ys in (([0.0, 1.0], [-1e308, 1e308]), ([-1e308, 1e308], [0.0, 1.0])):
        with pytest.raises(ValueError, match="axis span exceeds the float range"):
            line_chart([("a", xs, ys)], "t", "x", "y")
