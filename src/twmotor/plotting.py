"""Minimal deterministic SVG line chart of a sweep curve."""

from __future__ import annotations

import numpy as np

__all__ = ["svg_line_chart"]

_COLOR = "#1f77b4"


def _ticks(lo, hi, count=5):
    if hi == lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def svg_line_chart(x, y, label: str, xlabel: str, ylabel: str, title: str) -> str:
    """Render one labeled series y against x as an SVG string.

    Non-finite points are left out of the line and of the y range.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 55
    pw, ph = width - ml - mr, height - mt - mb
    xmin, xmax = float(np.min(x)), float(np.max(x))
    valid = y[np.isfinite(y)]
    ymin, ymax = (float(np.min(valid)), float(np.max(valid))) if len(valid) else (0, 1)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0

    def px(v):
        return ml + (v - xmin) / (xmax - xmin) * pw

    def py(v):
        return mt + ph - (v - ymin) / (ymax - ymin) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]
    for tx in _ticks(xmin, xmax):
        X = px(tx)
        parts.append(f'<line x1="{X:.2f}" y1="{mt}" x2="{X:.2f}" y2="{mt + ph}" '
                     'stroke="#dddddd"/>')
        parts.append(f'<text x="{X:.2f}" y="{mt + ph + 18}" text-anchor="middle" '
                     f'font-size="11">{tx:.4g}</text>')
    for ty in _ticks(ymin, ymax):
        Y = py(ty)
        parts.append(f'<line x1="{ml}" y1="{Y:.2f}" x2="{ml + pw}" y2="{Y:.2f}" '
                     'stroke="#dddddd"/>')
        parts.append(f'<text x="{ml - 6}" y="{Y + 4:.2f}" text-anchor="end" '
                     f'font-size="11">{ty:.4g}</text>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
                 'stroke="black"/>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" '
                 f'text-anchor="middle" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                 f'font-size="12" transform="rotate(-90 18 {mt + ph / 2:.1f})">'
                 f'{ylabel}</text>')
    pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y) if np.isfinite(b))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="{_COLOR}" '
                 'stroke-width="1.5"/>')
    parts.append(f'<text x="{ml + pw - 6}" y="{mt + 16}" '
                 f'text-anchor="end" font-size="11" fill="{_COLOR}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
