import math
from pathlib import Path

import numpy as np
import pytest

from cherenkov_wigner import svgplot


def _diverging_color(v):
    """Blue (-1) -> white (0) -> red (+1), one cell at a time."""
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        r, g, b = 255, round(255 * (1 - v)), round(255 * (1 - v))
    else:
        r, g, b = round(255 * (1 + v)), round(255 * (1 + v)), 255
    return f"rgb({r},{g},{b})"


def _reference_heatmap(path, values, extent, title="", xlabel="X",
                       ylabel="Y", signed=True):
    """The cell-by-cell writer that ``heatmap_svg`` vectorizes."""
    f = svgplot._f
    values = np.asarray(values, dtype=float)
    ny, nx = values.shape
    vmax = float(np.max(np.abs(values))) or 1.0
    x0, x1, y0, y1 = extent
    parts, sx, sy = svgplot._frame(title, xlabel, ylabel, x0, x1, y0, y1)
    for iy in range(ny):
        for ix in range(nx):
            v = values[iy, ix] / vmax
            color = _diverging_color(v) if signed else \
                _diverging_color(abs(v))
            cx0 = sx(x0 + (x1 - x0) * ix / nx)
            cx1 = sx(x0 + (x1 - x0) * (ix + 1) / nx)
            cy0 = sy(y0 + (y1 - y0) * (iy + 1) / ny)
            cy1 = sy(y0 + (y1 - y0) * iy / ny)
            parts.append(f'<rect x="{f(cx0)}" y="{f(cy0)}" '
                         f'width="{f(cx1 - cx0)}" height="{f(cy1 - cy0)}" '
                         f'fill="{color}"/>')
    parts.append(f'<rect x="{svgplot._ML}" y="{svgplot._MT}" '
                 f'width="{svgplot._W - svgplot._ML - svgplot._MR}" '
                 f'height="{svgplot._H - svgplot._MT - svgplot._MB}" '
                 'fill="none" stroke="black"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def _maps(rng):
    """Random maps, signed and unsigned, of odd shapes and extents; values
    on the half-integer grid of 255 (v) put 255 (1 - v) on rounding ties."""
    for case in range(400):
        ny, nx = rng.integers(1, 20, size=2)
        kind = case % 4
        if kind == 0:
            values = rng.normal(size=(ny, nx)) * 10.0 ** rng.uniform(-8, 8)
        elif kind == 1:
            values = rng.integers(-510, 511, size=(ny, nx)) / 510.0
            values[0, 0] = 1.0  # vmax = 1, so 255 (1 - v) is a half-integer
        elif kind == 2:
            values = np.zeros((ny, nx))
        else:
            values = rng.uniform(0.0, 1.0, size=(ny, nx))
        x0, y0 = rng.normal(size=2) * 1e3
        extent = (x0, x0 + rng.uniform(0, 1e4) * (case % 7 != 0),
                  y0, y0 + rng.uniform(1, 1e4))
        yield values, extent, bool(case % 2)


def test_heatmap_matches_the_cell_by_cell_writer(tmp_path, rng):
    got, want = tmp_path / "got.svg", tmp_path / "want.svg"
    for values, extent, signed in _maps(rng):
        svgplot.heatmap_svg(got, values, extent, title="t", signed=signed)
        _reference_heatmap(want, values, extent, title="t", signed=signed)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("signed", [True, False])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_heatmap_non_finite_cells_match_the_cell_by_cell_writer(
        tmp_path, bad, signed):
    values = np.array([[0.5, -0.25, bad], [1.0, -1.0, 0.0]])
    got, want = tmp_path / "got.svg", tmp_path / "want.svg"
    svgplot.heatmap_svg(got, values, (-1.0, 1.0, -2.0, 2.0), signed=signed)
    _reference_heatmap(want, values, (-1.0, 1.0, -2.0, 2.0), signed=signed)
    assert got.read_bytes() == want.read_bytes()
    assert 'fill="rgb(255,0,0)"' in got.read_text()
