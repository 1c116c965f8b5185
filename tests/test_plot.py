"""SVG scatterplot output: structure, determinism, escaping."""

import re
import warnings

import numpy as np
import pytest

from evoknn.plot import class_palette, svg_scatter, write_svg_scatter


def sample_points():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(25, 2))
    labels = [i % 3 for i in range(25)]
    return points, labels, ["alpha", "beta", "gamma"]


def test_svg_contains_one_marker_per_sample_plus_legend():
    points, labels, names = sample_points()
    svg = svg_scatter(points, labels, names, title="demo", x_label="u", y_label="v")
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<circle ") == len(points) + len(names)
    for name in names:
        assert f">{name}</text>" in svg
    assert ">demo</text>" in svg


def test_svg_is_deterministic():
    points, labels, names = sample_points()
    assert svg_scatter(points, labels, names) == svg_scatter(points, labels, names)


def test_svg_has_no_timestamps_or_external_references():
    points, labels, names = sample_points()
    svg = svg_scatter(points, labels, names)
    for banned in ("date", "time", "http://", "href"):
        assert banned not in svg.replace('xmlns="http://www.w3.org/2000/svg"', "")


def test_svg_escapes_markup_in_names():
    points = np.array([[0.0, 0.0], [1.0, 1.0]])
    svg = svg_scatter(points, [0, 1], ["a<b", "c&d"], title="x>y")
    assert "a&lt;b" in svg and "c&amp;d" in svg and "x&gt;y" in svg
    assert "a<b" not in svg


def test_svg_handles_degenerate_extents():
    points = np.zeros((4, 2))  # all markers identical
    svg = svg_scatter(points, [0, 0, 0, 0], ["only"])
    assert svg.count("<circle ") == 5
    # a constant axis is padded by 1.0: x ticks from 4 to 6
    svg = svg_scatter(np.array([[5.0, 0.0], [5.0, 1.0]]), [0, 0], ["a"])
    ticks = re.findall(r'text-anchor="middle" font-family="sans-serif">([^<]*)<', svg)
    assert ticks == ["4", "4.5", "5", "5.5", "6"]
    # 1e20 +- 1.0 is 1e20, so that pad left a zero range and every marker
    # read cx="nan"; the pad is at least one ulp of the value
    points = np.array([[1e20, 0.0], [1e20, 1.0], [1e20, 2.0]])
    svg = svg_scatter(points, [0, 1, 0], ["a", "b"])
    assert not re.findall(r"\b(?:nan|inf)\b", svg)
    assert svg.count('cx="295.00"') == 3  # the middle of the plot


def test_palette_sizes_and_distinctness():
    for n in (1, 3, 14, 25):
        palette = class_palette(n)
        assert len(palette) == n
        assert len(set(palette)) == n
        assert all(c.startswith("#") and len(c) == 7 for c in palette)


def test_svg_rejects_bad_points():
    with pytest.raises(ValueError):
        svg_scatter(np.zeros((3, 3)), [0, 0, 0], ["a"])
    # finite points whose padded frame passes the largest double: the span
    # itself overflows, or the padded upper bound does. Every coordinate read
    # nan and the ticks nan or inf, with numpy's RuntimeWarnings on the way
    for points, axis in (([[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308]], "x"),
                         ([[0.0, 0.0], [1.79e308, 1.0]], "x"),
                         ([[0.0, 0.0], [1.0, -1.79e308]], "y")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{axis} axis, padded .* past the largest"):
                svg_scatter(np.array(points), [0] * len(points), ["a"])


def test_write_svg_scatter(tmp_path):
    points, labels, names = sample_points()
    out = tmp_path / "plot.svg"
    write_svg_scatter(out, points, labels, names)
    assert out.read_text(encoding="utf-8") == svg_scatter(points, labels, names)
