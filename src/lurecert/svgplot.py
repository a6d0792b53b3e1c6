"""Minimal static SVG line plots (polylines, axes, legend).

Deliberately dependency-free: results plots here are static artifacts of
batch runs, not interactive figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WIDTH = 640
HEIGHT = 420
MARGIN = 55


@dataclass(frozen=True)
class Series:
    x: np.ndarray
    y: np.ndarray
    color: str = "#1f77b4"
    dashed: bool = False
    label: str = ""


def write_line_plot(path, series, title: str = "", xlabel: str = "",
                    ylabel: str = ""):
    series = list(series)
    if not series:
        raise ValueError("no series to plot")
    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s.y, dtype=float) for s in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(v):
        return MARGIN + (v - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def py(v):
        return HEIGHT - MARGIN - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
    ]
    for t in np.linspace(x_lo, x_hi, 5):
        parts.append(
            f'<text x="{px(t):.1f}" y="{HEIGHT - MARGIN + 18}" font-size="11" '
            f'text-anchor="middle">{t:g}</text>')
    for t in np.linspace(y_lo, y_hi, 5):
        parts.append(
            f'<text x="{MARGIN - 8}" y="{py(t) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{t:.3g}</text>')
    if title:
        parts.append(f'<text x="{WIDTH / 2}" y="24" font-size="15" '
                     f'text-anchor="middle">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" font-size="12" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{HEIGHT / 2}" font-size="12" '
                     f'text-anchor="middle" '
                     f'transform="rotate(-90 16 {HEIGHT / 2})">{ylabel}</text>')
    for s in series:
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}"
                       for a, b in zip(np.asarray(s.x), np.asarray(s.y)))
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{s.color}" stroke-width="1.5"{dash}/>')
    # legend
    ly = MARGIN + 6
    for s in series:
        if not s.label:
            continue
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        parts.append(f'<line x1="{WIDTH - MARGIN - 130}" y1="{ly}" '
                     f'x2="{WIDTH - MARGIN - 105}" y2="{ly}" '
                     f'stroke="{s.color}" stroke-width="1.5"{dash}/>')
        parts.append(f'<text x="{WIDTH - MARGIN - 100}" y="{ly + 4}" '
                     f'font-size="11">{s.label}</text>')
        ly += 16
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
