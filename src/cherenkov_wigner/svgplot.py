"""Minimal hand-emitted SVG plots: polylines for 1-D sweeps and cell
heatmaps for 2-D maps, with a blue-white-red diverging palette centered at
zero so Wigner-function negativity is visible.  Output formatting is fixed
so identical data gives byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["polyline_svg", "heatmap_svg"]

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50  # margins


def _f(x: float) -> str:
    return f"{x:.2f}"


def _axis_ticks(lo: float, hi: float, n: int = 5):
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo == hi:
        return [lo]
    return list(np.linspace(lo, hi, n))


def _frame(title: str, xlabel: str, ylabel: str, x0, x1, y0, y1):
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(x):
        return _ML + (x - x0) / (x1 - x0) * pw if x1 != x0 else _ML + pw / 2

    def sy(y):
        return _MT + ph - (y - y0) / (y1 - y0) * ph if y1 != y0 else _MT + ph / 2

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        'stroke="black"/>',
        f'<text x="{_W // 2}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
        f'<text x="{_ML + pw // 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_MT + ph // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MT + ph // 2})">{ylabel}</text>',
    ]
    for tx in _axis_ticks(x0, x1):
        parts.append(f'<line x1="{_f(sx(tx))}" y1="{_MT + ph}" '
                     f'x2="{_f(sx(tx))}" y2="{_MT + ph + 4}" stroke="black"/>')
        parts.append(f'<text x="{_f(sx(tx))}" y="{_MT + ph + 18}" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{tx:.4g}</text>')
    for ty in _axis_ticks(y0, y1):
        parts.append(f'<line x1="{_ML - 4}" y1="{_f(sy(ty))}" x2="{_ML}" '
                     f'y2="{_f(sy(ty))}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_f(sy(ty) + 3)}" '
                     'text-anchor="end" font-family="sans-serif" '
                     f'font-size="10">{ty:.4g}</text>')
    return parts, sx, sy


_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def polyline_svg(path, xs, series, title="", xlabel="", ylabel="",
                 labels=None):
    """Line chart of one or more y-series over a shared x axis; non-finite
    points break the line."""
    xs = np.asarray(xs, dtype=float)
    series = [np.asarray(s, dtype=float) for s in series]
    finite = np.concatenate([s[np.isfinite(s)] for s in series]) \
        if series else np.array([0.0])
    if finite.size == 0:
        finite = np.array([0.0])
    y0, y1 = float(np.min(finite)), float(np.max(finite))
    if y0 == y1:
        y0, y1 = y0 - 1.0, y1 + 1.0
    parts, sx, sy = _frame(title, xlabel, ylabel, float(xs[0]),
                           float(xs[-1]), y0, y1)
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        segment = []
        for x, y in zip(xs, s):
            if math.isfinite(y):
                segment.append(f"{_f(sx(x))},{_f(sy(y))}")
            elif segment:
                parts.append(f'<polyline points="{" ".join(segment)}" '
                             f'fill="none" stroke="{color}" stroke-width="1.5"/>')
                segment = []
        if segment:
            parts.append(f'<polyline points="{" ".join(segment)}" '
                         f'fill="none" stroke="{color}" stroke-width="1.5"/>')
        if labels:
            parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 14 * i}" '
                         f'text-anchor="end" font-family="sans-serif" '
                         f'font-size="11" fill="{color}">{labels[i]}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


# Blue (-1) -> white (0) -> red (+1): the level q = round(255 (1 - |v|))
# of each side of the diverging palette.
_WARM = [f"rgb(255,{q},{q})" for q in range(256)]
_COOL = [f"rgb({q},{q},255)" for q in range(256)]


def heatmap_svg(path, values, extent, title="", xlabel="X", ylabel="Y",
                signed=True):
    """Cell heatmap of a matrix.  ``extent`` is (x0, x1, y0, y1); with
    ``signed`` the palette is the diverging one centered at zero, otherwise
    a white-to-red ramp of the normalized magnitude."""
    values = np.asarray(values, dtype=float)
    ny, nx = values.shape
    vmax = float(np.max(np.abs(values))) or 1.0
    x0, x1, y0, y1 = extent
    parts, sx, sy = _frame(title, xlabel, ylabel, x0, x1, y0, y1)
    ex = [sx(x0 + (x1 - x0) * i / nx) for i in range(nx + 1)]
    ey = [sy(y0 + (y1 - y0) * i / ny) for i in range(ny + 1)]
    cell_x = [_f(a) for a in ex[:-1]]
    cell_w = [_f(b - a) for a, b in zip(ex[:-1], ex[1:])]
    cell_y = [_f(b) for b in ey[1:]]
    cell_h = [_f(a - b) for a, b in zip(ey[:-1], ey[1:])]
    v = values / vmax
    if not signed:
        v = np.abs(v)
    # a non-finite cell is painted as +1
    v = np.clip(np.where(np.isnan(v), 1.0, v), -1.0, 1.0)
    level = np.round(255.0 * (1.0 - np.abs(v))).astype(int).tolist()
    cool = (v < 0).tolist()
    for iy in range(ny):
        for ix in range(nx):
            q = level[iy][ix]
            color = _COOL[q] if cool[iy][ix] else _WARM[q]
            parts.append(f'<rect x="{cell_x[ix]}" y="{cell_y[iy]}" '
                         f'width="{cell_w[ix]}" height="{cell_h[iy]}" '
                         f'fill="{color}"/>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
