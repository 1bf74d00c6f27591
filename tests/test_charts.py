from fragilis.charts import line_chart


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
