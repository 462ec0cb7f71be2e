import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import svg_line_plot_reference, write_csv_reference

from coherentlab.reporting import _nice_ticks, svg_line_plot, write_csv


def test_csv_bytes(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(
        path,
        ["n (count)", "x, y (units)", 'say "hi"', "flag (bool)"],
        [[0, 0.1 + 0.2, 1e-05, "true"], [-7, 1e16, -0.0, "false"], [2**70, 5e-324, 1.5, "true"]],
    )
    assert path.read_bytes() == (
        b'n (count),"x, y (units)","say ""hi""",flag (bool)\n'
        b"0,0.30000000000000004,1e-05,true\n"
        b"-7,1e+16,-0.0,false\n"
        b"1180591620717411303424,5e-324,1.5,true\n"
    )


def test_one_point_plot_bytes(tmp_path):
    # a one-point series widens both empty ranges before they are ticked
    path = tmp_path / "one.svg"
    svg_line_plot(path, [([2.0], [0.5], "one point")], title="T", xlabel="x", ylabel="y")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "12037b04788dfca12e660047a20fe5d492353195af887207f9967121eae05456"
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_is_not_plotted(tmp_path, bad):
    with pytest.raises(ValueError, match="non-finite"):
        svg_line_plot(tmp_path / "bad.svg", [([0.0, 1.0], [0.5, bad], "s")],
                      title="T", xlabel="x", ylabel="y")
    assert not (tmp_path / "bad.svg").exists()


# an explicit example passes data=None and keeps its own range
@example(lo=0.0, width=5e-324, data=None)
@example(lo=-1e-310, width=5e-324, data=None)
@example(lo=-1e308, width=1e300, data=None)
@example(lo=1e16 - 4.0, width=8.0, data=None)
@settings(max_examples=2000, derandomize=True, deadline=None, database=None)
@given(lo=st.floats(allow_nan=False, allow_infinity=False),
       width=st.floats(5e-324, 1e300), data=st.data())
def test_ticks_increase_strictly_inside_the_range(lo, width, data):
    hi = lo + width
    # half the examples centre a narrow range on a round value, where the
    # 12-place rounding of the ticks merged them
    if data is not None and data.draw(st.booleans()):
        lo = data.draw(st.sampled_from([0.0, 1.0, -1e-310, 1e16]))
        hi = lo + width
    assume(math.isfinite(hi) and lo < hi)
    ticks = _nice_ticks(lo, hi)
    assert ticks and all(lo <= t <= hi for t in ticks)
    assert all(a < b for a, b in zip(ticks, ticks[1:]))


@pytest.mark.parametrize("lo, hi, expected", [
    (0.0, 1.0, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]),
    (0.0, 5e-323, [0.0, 5e-323]),
    (0.0, 5e-13, [0.0, 1e-13, 2e-13, 3.0000000000000003e-13, 4e-13, 5e-13]),
])
def test_ticks_of_unit_subnormal_and_sub_picounit_ranges(lo, hi, expected):
    assert _nice_ticks(lo, hi) == expected


@pytest.fixture(scope="module")
def writer_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


_NUMBER_CELLS = st.one_of(
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
)
_TEXT_CELLS = st.text(st.sampled_from('ab1 .,"\r\n\tü'), max_size=6)
_ROWS = st.one_of(
    st.lists(st.lists(_NUMBER_CELLS, max_size=4), max_size=6),
    st.lists(st.lists(st.one_of(_NUMBER_CELLS, st.none(), _TEXT_CELLS), max_size=4), max_size=6),
)


@example(header=["t", "x"], rows=[[-0.0, 5e-324], [1e308, -1e308]])
@example(header=[""], rows=[[None], [-0.0], [""], []])
@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(header=st.lists(_TEXT_CELLS, max_size=4), rows=_ROWS)
def test_csv_bytes_equal_the_csv_writer(writer_dir, header, rows):
    write_csv_reference(writer_dir / "reference.csv", header, rows)
    write_csv(writer_dir / "fast.csv", header, iter(rows))
    assert (writer_dir / "fast.csv").read_bytes() == (writer_dir / "reference.csv").read_bytes()


_MAX = 1.7976931348623157e308
# each axis draws all its values from one regime, so that narrow and extreme ranges occur
_REGIMES = [
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
    # a few subnormal units: the ticks are [lo, hi], so the sign of a zero end shows
    st.sampled_from([0.0, -0.0]) | st.integers(-4, 4).map(lambda k: k * 5e-324),
    st.integers(-4, 4).map(lambda k: 1.0 + k * 2.0**-52),
    st.floats(1e307, _MAX) | st.floats(-_MAX, -1e307),
    st.integers(-5, 5),
]


@st.composite
def _axis_values(draw, regime, size):
    values = draw(st.lists(regime, min_size=size, max_size=size))
    if values and draw(st.booleans()):
        values = [values[0]] * size  # a constant series
    return np.asarray(values) if draw(st.booleans()) else values


@st.composite
def _plot_series(draw):
    x_regime, y_regime = draw(st.sampled_from(_REGIMES)), draw(st.sampled_from(_REGIMES))
    series = []
    for i in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 5))
        # x and y may differ in length: the polyline stops at the shorter one
        y_size = size if draw(st.booleans()) else draw(st.integers(0, 5))
        series.append((draw(_axis_values(x_regime, size)),
                       draw(_axis_values(y_regime, y_size)), f"s{i}"))
    return series


def _plot_outcome(plot, path, series):
    """The plot's bytes, or the error it raised and whether it left a file."""
    path.unlink(missing_ok=True)
    try:
        plot(path, series, title="T", xlabel="x", ylabel="y")
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc), path.exists()
    return path.read_bytes()


@example(series=[([-0.0, 0.0], [0.0, -0.0], "zeros")])
@example(series=[([0.0, -0.0, 5e-324], [-5e-324, -0.0, 0.0], "tied zeros")])
@example(series=[([-1e308, 1e308], [1e308, -1e307], "wide"), (np.array([1.0]), [], "empty")])
@example(series=[([2.0], [0.5], "one point")])
@example(series=[([0.0, 1.0], [-1.7e308, 1.7e308], "padding overflows")])
@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(series=_plot_series())
def test_plot_bytes_equal_the_per_point_plot(writer_dir, series):
    expected = _plot_outcome(svg_line_plot_reference, writer_dir / "reference.svg", series)
    assert _plot_outcome(svg_line_plot, writer_dir / "fast.svg", series) == expected


@pytest.mark.parametrize("y", [[-1.7e308, 1.7e308], [-_MAX, 0.0], [_MAX, _MAX]])
def test_plot_whose_padded_range_overflows_is_written(tmp_path, y):
    path = tmp_path / "wide.svg"
    svg_line_plot(path, [([0.0, 1.0], y, "s")], title="T", xlabel="x", ylabel="y")
    text = path.read_text()
    points = re.search(r'<polyline points="([^"]*)"', text).group(1).split()
    # every point lies inside the frame, which spans y pixels 36 to 428
    assert all(36.0 <= float(point.split(",")[1]) <= 428.0 for point in points)
    assert "inf" not in text and "nan" not in text


@pytest.mark.parametrize("x, y", [([_MAX, _MAX], [0.0, 1.0]), ([-_MAX, -_MAX], [0.0, 1.0]),
                                  ([_MAX], [_MAX])], ids=["x_at_max", "x_at_minus_max", "max_max"])
def test_plot_of_an_empty_range_at_the_float_range_ends_is_written(writer_dir, x, y):
    # the one-unit-of-roundoff widening of an x or y range at max goes below it
    series = [(x, y, "s")]
    expected = _plot_outcome(svg_line_plot_reference, writer_dir / "reference.svg", series)
    assert _plot_outcome(svg_line_plot, writer_dir / "fast.svg", series) == expected
    text = (writer_dir / "fast.svg").read_text()
    points = re.search(r'<polyline points="([^"]*)"', text).group(1).split()
    # the frame spans x pixels 70 to 700 and y pixels 36 to 428
    for point in points:
        px, py = map(float, point.split(","))
        assert 70.0 <= px <= 700.0 and 36.0 <= py <= 428.0
    assert "inf" not in text and "nan" not in text


@example(bad=math.nan, x=[0.0], y=[0.0, 1.0], on_x=False, as_array=True)
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       x=st.lists(st.floats(-1e3, 1e3), max_size=3), y=st.lists(st.floats(-1e3, 1e3), max_size=3),
       on_x=st.booleans(), as_array=st.booleans())
def test_plot_errors_keep_their_messages_and_leave_no_file(writer_dir, bad, x, y, on_x, as_array):
    (x if on_x else y).append(bad)
    series = [(np.asarray(x), np.asarray(y), "s")] if as_array else [(x, y, "s")]
    message = "cannot plot empty series" if not (x and y) else "cannot plot non-finite values"
    expected = (ValueError, message, False)
    assert _plot_outcome(svg_line_plot_reference, writer_dir / "reference.svg", series) == expected
    assert _plot_outcome(svg_line_plot, writer_dir / "fast.svg", series) == expected
