import math
import re
import xml.etree.ElementTree as ET

import pytest

from magictrap import svg
from magictrap.errors import InvalidArgumentError

NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?|nan|inf")


def plot(tmp_path, series):
    path = tmp_path / "plot.svg"
    svg.line_plot(path, series, "x", "y")
    return path.read_text(encoding="utf-8")


def coordinates(text):
    """Every number in a position attribute of the document."""
    values = []
    for element in ET.fromstring(text).iter():
        for name in ("x", "y", "d", "transform"):
            values += [float(v) for v in NUMBER.findall(element.get(name, ""))]
    return values


def tick_labels(text, anchor):
    """The tick labels of one axis: 'middle' for x, 'end' for y."""
    return [e.text for e in ET.fromstring(text).iter()
            if e.tag.endswith("text") and e.get("text-anchor") == anchor
            and e.get("font-size") == "11"]


def assert_finite(text):
    values = coordinates(text)
    assert values and all(map(math.isfinite, values))


@pytest.mark.parametrize("xs,ys", [
    ([0.0, 1.0], [0.0, 1.7e308]),         # the 5 % padding overflows
    ([0.0, 1.0], [-1e308, 1e308]),        # the width overflows
    ([1e20, 1e20], [1.0, 2.0]),           # x_lo + 1.0 is x_lo
    ([0.0, math.nan, 1.0], [1.0, 2.0, 3.0]),
    ([0.0, math.inf], [1.0, 2.0])])
def test_unplottable_range_is_invalid_argument(tmp_path, xs, ys):
    with pytest.raises(InvalidArgumentError):
        svg.line_plot(tmp_path / "plot.svg", [("a", xs, ys)], "x", "y")
    assert not (tmp_path / "plot.svg").exists()


def test_degenerate_x_range_spans_one_unit(tmp_path):
    text = plot(tmp_path, [("", [5.0, 5.0], [1.0, 2.0])])
    assert_finite(text)
    assert tick_labels(text, "middle") == ["5", "5.2", "5.4", "5.6", "5.8", "6"]


@pytest.mark.parametrize("value,first,last", [(3.0, "3", "6"), (0.0, "0", "1"),
                                              (-2.0, "-2", "0")])
def test_degenerate_y_range_widens_by_its_value(tmp_path, value, first, last):
    text = plot(tmp_path, [("", [0.0, 1.0], [value, value])])
    assert_finite(text)
    labels = tick_labels(text, "end")
    assert (labels[0], labels[-1]) == (first, last)


@pytest.mark.parametrize("ys", [
    [1e20, 1e20 + 16384],   # a tick step below half an ulp of the ticks
    [0.0, 5e-324]])         # a width of one subnormal
def test_extreme_y_ranges_draw_finite_coordinates(tmp_path, ys):
    assert_finite(plot(tmp_path, [("", [0.0, 1.0], ys)]))


def test_non_finite_y_is_skipped(tmp_path):
    text = plot(tmp_path, [("", [0.0, 1.0, 2.0, 3.0],
                            [1.0, math.nan, math.inf, 2.0])])
    assert_finite(text)
    (curve,) = [e.get("d") for e in ET.fromstring(text).iter()
                if e.get("stroke-width") == "1.5"]
    assert curve.split()[::3] == ["M", "L"]


def test_two_series_with_a_legend(tmp_path):
    text = plot(tmp_path, [("data", [0.0, 1.0, 2.0], [0.1, 0.9, 0.4]),
                           ("fit", [0.0, 2.0], [0.2, 0.5])])
    assert_finite(text)
    root = ET.fromstring(text)
    curves = [e.get("stroke") for e in root.iter() if e.get("stroke-width") == "1.5"]
    # a curve and a legend swatch per series, one color each
    assert curves == [svg._COLORS[0]] * 2 + [svg._COLORS[1]] * 2
    assert [e.text for e in root.iter() if e.text in ("data", "fit")] == ["data", "fit"]


def test_repeated_calls_write_identical_bytes(tmp_path):
    series = [("a", [0.0, 0.5, 1.0], [0.3, math.nan, -0.2]), ("", [0.0, 1.0], [0.0, 0.1])]
    first = tmp_path / "first.svg"
    second = tmp_path / "second.svg"
    svg.line_plot(first, series, "x", "y")
    svg.line_plot(second, series, "x", "y")
    assert first.read_bytes() == second.read_bytes()
