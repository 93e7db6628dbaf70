"""The sweep chart's SVG."""

import re

import numpy as np
import pytest

from twmotor.plotting import svg_line_chart


@pytest.mark.parametrize("x, y, ticks", [
    ([2.0, 2.0, 2.0], [0.0, 1.0, 4.0], ["2", "2.25", "2.5", "2.75", "3", "0", "1", "2", "3", "4"]),
    ([0.0, 1.0, 4.0], [5.0, 5.0, 5.0], ["0", "1", "2", "3", "4", "5", "5.25", "5.5", "5.75", "6"]),
], ids=["flat-x", "flat-y"])
def test_flat_range_widened_to_one(x, y, ticks):
    """A flat x or y range is drawn over one unit from its value, so every
    coordinate is finite and the axis keeps its 5 ticks."""
    svg = svg_line_chart(x, y, "torque", "param", "torque", "title")
    assert re.findall(r'font-size="11">([^<]*)</text>', svg)[:10] == ticks
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1)
    coords = np.array([p.split(",") for p in points.split()], dtype=float)
    assert coords.shape == (3, 2) and np.isfinite(coords).all()
