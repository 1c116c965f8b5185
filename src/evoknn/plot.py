"""Self-contained SVG scatterplots with one marker per sample.

SVG is emitted as plain deterministic text (no timestamps, no metadata), so
a replayed run reproduces the file byte for byte.
"""

from __future__ import annotations

import colorsys
import math
from typing import Sequence

import numpy as np

from .dataset import atomic_write

WIDTH = 720
HEIGHT = 520
MARGIN = 54
LEGEND_WIDTH = 130


def class_palette(n: int) -> list[str]:
    """Evenly spaced hues, darkened on the second lap for large n."""
    colors = []
    for i in range(n):
        lap, pos = divmod(i, 20)
        hue = (pos / min(n, 20)) % 1.0
        r, g, b = colorsys.hsv_to_rgb(hue, 0.70, 0.85 - 0.25 * (lap % 2))
        colors.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
    return colors


def _axis_ticks(lo: float, hi: float, count: int = 5) -> list[tuple[float, str]]:
    """``(value, label)`` of each distinct value among ``count`` evenly spaced
    from ``lo`` to ``hi``: where the span is small beside the values, some
    round to the same double, which is drawn once.  Labels take the fewest
    significant digits, at least 4, that tell them apart; 17 tell any two
    doubles apart."""
    ticks = list(dict.fromkeys(lo + (hi - lo) * i / (count - 1) for i in range(count)))
    digits = next((d for d in range(4, 17)
                   if len({f"{t:.{d}g}" for t in ticks}) == len(ticks)), 17)
    return [(t, f"{t:.{digits}g}") for t in ticks]


def axis_bounds(points) -> list[tuple[float, float]]:
    """The plotted ``(lo, hi)`` of each axis of (n, 2) ``points``: their range
    padded by 5% of it on each side, or, for a constant axis, by 1.0 or one
    ulp of the value, whichever is larger, so that ``lo < hi`` even at
    ``|x| >= 2**53``.  Bounds whose span overflows a double are refused, so
    every coordinate and tick of the SVG is finite."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    bounds = []
    for axis, lo, hi in zip("xy", points.min(axis=0).tolist(), points.max(axis=0).tolist()):
        pad = (hi - lo) * 0.05 or max(1.0, math.ulp(lo))  # Python floats: no warning
        lo, hi = lo - pad, hi + pad
        if not math.isfinite(hi - lo):
            raise ValueError(f"the SVG's {axis} axis, padded to {lo!r}..{hi!r}, "
                             "spans past the largest double")
        bounds.append((lo, hi))
    return bounds


def svg_scatter(
    points: np.ndarray,
    labels: Sequence[int],
    class_names: Sequence[str],
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render (n, 2) points coloured by class, with a legend entry per class,
    in the frame of ``axis_bounds``."""
    (x_lo, x_hi), (y_lo, y_hi) = axis_bounds(points)

    plot_w = WIDTH - 2 * MARGIN - LEGEND_WIDTH
    plot_h = HEIGHT - 2 * MARGIN

    def sx(x: float) -> float:
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * plot_h

    palette = class_palette(len(class_names))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for x, text in _axis_ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{sx(x):.1f}" y="{HEIGHT - MARGIN + 18}" font-size="10" '
            f'text-anchor="middle" font-family="sans-serif">{text}</text>'
        )
    for y, text in _axis_ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{MARGIN - 6}" y="{sy(y):.1f}" font-size="10" '
            f'text-anchor="end" font-family="sans-serif">{text}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{MARGIN + plot_w / 2:.1f}" y="{HEIGHT - 12}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{_esc(x_label)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{MARGIN + plot_h / 2:.1f}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'transform="rotate(-90 16 {MARGIN + plot_h / 2:.1f})">{_esc(y_label)}</text>'
        )
    for (x, y), lab in zip(np.asarray(points, dtype=np.float64), labels):
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.2" '
            f'fill="{palette[lab]}" fill-opacity="0.8"/>'
        )
    legend_x = WIDTH - LEGEND_WIDTH - MARGIN / 2
    for i, name in enumerate(class_names):
        ly = MARGIN + 14 + i * 17
        parts.append(
            f'<circle cx="{legend_x:.1f}" cy="{ly - 3.5}" r="4" fill="{palette[i]}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 10:.1f}" y="{ly}" font-size="11" '
            f'font-family="sans-serif">{_esc(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_svg_scatter(path, *args, **kwargs) -> None:
    with atomic_write(path) as fh:
        fh.write(svg_scatter(*args, **kwargs))
