"""SVG scatterplot output: structure, determinism, escaping."""

import hashlib
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
    svg = svg_scatter(points, labels, names, x_label="u", y_label="v")
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<circle ") == len(points) + len(names)
    for name in names:
        assert f">{name}</text>" in svg
    assert ">u</text>" in svg and ">v</text>" in svg


def test_svg_is_deterministic():
    points, labels, names = sample_points()
    assert svg_scatter(points, labels, names) == svg_scatter(points, labels, names)


def test_svg_keeps_its_bytes_where_4_digit_tick_labels_are_distinct():
    # every value here is formatted by Python, none by LAPACK; the digest was
    # recorded when every tick label was written at 4 significant digits
    svg = svg_scatter(np.array([[0.0, 1.0], [2.5, -1.5], [1.25, 0.75], [-0.5, 3.0]]),
                      [0, 1, 0, 1], ["a", "b"], x_label="u", y_label="v")
    assert re.findall(r'font-size="10"[^>]*>([^<]*)<', svg) == [
        "-0.65", "0.175", "1", "1.825", "2.65", "-1.725", "-0.4875", "0.75", "1.988", "3.225"]
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "a91b364f7884e5532d297e752871594083f62849be753e70515e9f5428146da4")


def x_ticks(svg):
    """``(x position, label)`` of each x-axis tick of ``svg``."""
    return re.findall(r'<text x="([^"]*)" y="484" font-size="10"[^>]*>([^<]*)<', svg)


def test_close_ticks_get_distinct_labels():
    # five ticks across 1000.000095..1000.000205 all read "1000" at 4 digits
    svg = svg_scatter(np.array([[1000.0001, 0.0], [1000.0002, 1.0]]), [0, 1], ["a", "b"])
    ticks = x_ticks(svg)
    assert len(ticks) == 5 and len({text for _, text in ticks}) == 5
    assert [float(text) for _, text in ticks] == sorted(float(text) for _, text in ticks)


def test_svg_has_no_timestamps_or_external_references():
    points, labels, names = sample_points()
    svg = svg_scatter(points, labels, names)
    for banned in ("date", "time", "http://", "href"):
        assert banned not in svg.replace('xmlns="http://www.w3.org/2000/svg"', "")


def test_svg_escapes_markup_in_names():
    points = np.array([[0.0, 0.0], [1.0, 1.0]])
    svg = svg_scatter(points, [0, 1], ["a<b", "c&d"], x_label="x>y")
    assert "a&lt;b" in svg and "c&amp;d" in svg and "x&gt;y" in svg
    assert "a<b" not in svg


def test_svg_handles_degenerate_extents():
    points = np.zeros((4, 2))  # all markers identical
    svg = svg_scatter(points, [0, 0, 0, 0], ["only"])
    assert svg.count("<circle ") == 5
    # a constant axis is padded by 1.0: x ticks from 4 to 6
    svg = svg_scatter(np.array([[5.0, 0.0], [5.0, 1.0]]), [0, 0], ["a"])
    assert [text for _, text in x_ticks(svg)] == ["4", "4.5", "5", "5.5", "6"]
    # 1e20 +- 1.0 is 1e20, so that pad left a zero range and every marker
    # read cx="nan"; the pad is at least one ulp of the value
    points = np.array([[1e20, 0.0], [1e20, 1.0], [1e20, 2.0]])
    svg = svg_scatter(points, [0, 1, 0], ["a", "b"])
    assert not re.findall(r"\b(?:nan|inf)\b", svg)
    assert svg.count('cx="295.00"') == 3  # the middle of the plot
    # of the five ticks across that one-ulp pad, 16384, three rounded to 1e20
    # itself and all five read "1e+20": each value is drawn once, at the
    # fewest digits that tell it apart
    assert x_ticks(svg) == [("54.0", "9.9999999999999984e+19"), ("295.0", "1e+20"),
                            ("536.0", "1.0000000000000002e+20")]


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
