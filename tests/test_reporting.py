import hashlib
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


@settings(max_examples=2000, derandomize=True, deadline=None, database=None)
@given(lo=st.floats(allow_nan=False, allow_infinity=False),
       width=st.floats(5e-324, 1e300), data=st.data())
def test_ticks_increase_strictly_inside_the_range(lo, width, data):
    hi = lo + width
    # half the examples centre a narrow range on a round value, where the
    # 12-place rounding of the ticks merged them
    if data.draw(st.booleans()):
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
