"""Self-contained SVG scatterplots with one marker per sample.

SVG is emitted as plain deterministic text (no timestamps, no metadata), so
a replayed run reproduces the file byte for byte.
"""

from __future__ import annotations

import colorsys
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


def _axis_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def svg_scatter(
    points: np.ndarray,
    labels: Sequence[int],
    class_names: Sequence[str],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render (n, 2) points coloured by class, with a legend entry per class."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    x_lo, y_lo = points.min(axis=0)
    x_hi, y_hi = points.max(axis=0)
    x_pad = (x_hi - x_lo) * 0.05 or 1.0
    y_pad = (y_hi - y_lo) * 0.05 or 1.0
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

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
    if title:
        parts.append(
            f'<text x="{MARGIN + plot_w / 2:.1f}" y="{MARGIN - 18}" font-size="15" '
            f'text-anchor="middle" font-family="sans-serif">{_esc(title)}</text>'
        )
    for x in _axis_ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{sx(x):.1f}" y="{HEIGHT - MARGIN + 18}" font-size="10" '
            f'text-anchor="middle" font-family="sans-serif">{x:.4g}</text>'
        )
    for y in _axis_ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{MARGIN - 6}" y="{sy(y):.1f}" font-size="10" '
            f'text-anchor="end" font-family="sans-serif">{y:.4g}</text>'
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
    for (x, y), lab in zip(points, labels):
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
