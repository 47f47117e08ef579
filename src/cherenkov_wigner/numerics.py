"""Self-contained numerical engine: adaptive Gauss-Kronrod quadrature of
one integrand or of a batch of integrands on one shared mesh,
Richardson-extrapolated central differences, and a bracketing root finder.

Everything here is a pure function over caller-supplied callables, so the
routines are safe to invoke concurrently.  Integrands are vectorized:
called with a numpy array of abscissae, they return one row per integrand;
a single integrand is the one-row batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DiffSpec",
    "NonFiniteIntegrand",
    "NonFiniteSample",
    "NoSignChange",
    "BatchQuadrature",
    "integrate_batch",
    "differentiate",
    "find_root",
]


class NonFiniteIntegrand(ValueError):
    """Integrand returned NaN or inf inside the integration interval."""


class NonFiniteSample(ValueError):
    """Function sample used for differentiation is NaN or inf."""


class NoSignChange(ValueError):
    """Root bracket does not straddle a sign change."""


@dataclass(frozen=True)
class DiffSpec:
    """Central-difference settings: derivative order, relative base step,
    and the number of Richardson rows (error O(h^(2*levels)) for smooth f)."""

    order: int = 1
    base_step: float = 1e-5
    richardson_levels: int = 2

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if self.base_step <= 0:
            raise ValueError("base_step must be positive")
        if self.richardson_levels < 1:
            raise ValueError("richardson_levels must be >= 1")


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
# (QUADPACK dqk15 constants).  The embedded Gauss nodes are the
# odd-indexed entries of the ascending Kronrod node list.
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


# upper bound on rows x abscissae per integrand call of integrate_batch
_BLOCK = 1 << 16


def _gk15_panels(f, lo, hi, rows=None):
    """Gauss-Kronrod sums of the rows of f on each panel [lo, hi]: returns
    (values, errors), both of shape (rows, len(lo)).  When ``rows`` is not
    known yet, the first call holds one panel and tells it."""
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * _KRONROD_NODES
    vals = errs = None
    s = 0
    while s < lo.size:
        n = 1 if rows is None else max(1, _BLOCK // (15 * rows))
        part = slice(s, s + n)
        y = np.asarray(f(t[part].ravel()), dtype=float)
        y = y.reshape(y.shape[0], -1, 15)
        if not np.all(np.isfinite(y)):
            row, panel = np.argwhere(~np.isfinite(y))[0, :2]
            raise NonFiniteIntegrand(
                f"non-finite integrand row {row} on "
                f"[{lo[s + panel]}, {hi[s + panel]}]")
        if vals is None:
            rows = y.shape[0]
            vals = np.empty((rows, lo.size))
            errs = np.empty((rows, lo.size))
        h = half[part]
        kronrod = y @ _KRONROD_WEIGHTS
        err = h * np.abs(kronrod - y[..., 1::2] @ _GAUSS_WEIGHTS)
        # QUADPACK-style rescaling: sharpen the raw |K - G| estimate
        resasc = h * (np.abs(y - 0.5 * kronrod[..., None]) @ _KRONROD_WEIGHTS)
        ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err),
                          where=resasc > 0.0)
        vals[:, part] = h * kronrod
        errs[:, part] = np.where(resasc > 0.0,
                                 resasc * np.minimum(1.0, ratio ** 1.5), err)
        s += n
    return vals, errs


@dataclass(frozen=True)
class BatchQuadrature:
    """Per-row results of ``integrate_batch``; ``panels_used`` counts the
    panels of the mesh the rows share, and ``rounds`` the passes over it
    (the start mesh is the first)."""

    values: np.ndarray
    error_estimates: np.ndarray
    converged: np.ndarray
    panels_used: int
    rounds: int = 1


def integrate_batch(
    f: Callable,
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
    phase_rate_hint: float | None = None,
    max_panels: int = 4096,
    knee: float | None = None,
) -> BatchQuadrature:
    """Integrate the k rows of f over [a, b] on one shared adaptive mesh of
    15-point Gauss-Kronrod panels.

    ``f(t)`` maps a 1-D array of abscissae to a (k, len(t)) array.  Row r
    has converged once its error estimate is <= max(abs_tol, rel_tol *
    |value_r|).  Each round bisects, in one vectorized evaluation, every
    panel whose error exceeds its even share of some unconverged row's
    tolerance (that tolerance over the panel count); while a row is
    unconverged, at least one of its panels does.  When that would exceed
    ``max_panels``, the panels with the largest share go first.

    ``phase_rate_hint`` is an upper estimate of |d(phase)/dx| of an
    oscillatory integrand; when given, the initial uniform subdivision uses
    panels no wider than pi / (2 * hint), i.e. at least four panels per
    oscillation period, before any adaptive bisection happens.

    ``knee`` is the width of a boundary layer at ``a``: the scale on which
    the integrand changes there, much shorter than the start panels.  When
    knee/8 is less than half the first panel's width w, that panel is split
    at a + w/2, a + w/4, ... for as long as the piece left at ``a`` stays
    wider than knee/8, so the start mesh already resolves the layer that
    bisection would otherwise reach one level per round.

    Rows that have not converged when the budget is spent keep their best
    estimate with ``converged`` False instead of raising.
    """
    if not (a <= b):
        raise ValueError("integrate_batch requires a <= b")
    if abs_tol <= 0 or rel_tol <= 0:
        raise ValueError("tolerances must be positive")
    if a == b:
        k = np.asarray(f(np.array([a]))).shape[0]
        zero = np.zeros(k)
        return BatchQuadrature(zero, zero.copy(), np.ones(k, dtype=bool), 1)

    n0 = 1
    if phase_rate_hint is not None and phase_rate_hint > 0:
        width = math.pi / (2.0 * phase_rate_hint)
        n0 = int(min(max(1, math.ceil((b - a) / width)), max_panels // 2 + 1))
    edges = a + np.arange(n0 + 1) * ((b - a) / n0)
    edges[-1] = b
    w = edges[1] - a
    if knee is not None and 0.0 < knee / 8.0 < 0.5 * w:
        levels = min(math.ceil(math.log2(8.0 * w) - math.log2(knee)) - 1,
                     max_panels - n0)
        graded = a + w * 2.0 ** -np.arange(levels, 0, -1)
        edges = np.unique(np.concatenate([[a], graded, edges[1:]]))
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk15_panels(f, lo, hi)
    rounds = 1

    while True:
        total = np.sum(vals, axis=1)
        total_err = np.sum(errs, axis=1)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        active = total_err > tol
        budget = max_panels - lo.size
        if not active.any() or budget <= 0:
            break
        share = np.max(errs[active] / tol[active, None], axis=0) * lo.size
        chosen = np.flatnonzero((share > 1.0)
                                & ((hi - lo) > np.abs(hi + lo) * 1e-15))
        if chosen.size == 0:
            break
        if chosen.size > budget:
            order = np.argsort(-share[chosen], kind="stable")
            chosen = chosen[order[:budget]]
        keep = np.ones(lo.size, dtype=bool)
        keep[chosen] = False
        mid = 0.5 * (lo[chosen] + hi[chosen])
        new_lo = np.concatenate([lo[chosen], mid])
        new_hi = np.concatenate([mid, hi[chosen]])
        new_vals, new_errs = _gk15_panels(f, new_lo, new_hi,
                                          vals.shape[0])
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[:, keep], new_vals], axis=1)
        errs = np.concatenate([errs[:, keep], new_errs], axis=1)
        rounds += 1

    return BatchQuadrature(total, total_err, ~active, lo.size, rounds)


def differentiate(f: Callable, x: float, spec: DiffSpec = DiffSpec()) -> float:
    """Central-difference derivative of f at x, Richardson extrapolated.

    The base step is ``spec.base_step * max(|x|, 1)`` and is halved once per
    Richardson row; for smooth f the truncation error after extrapolation is
    O(h^(2*levels)).
    """
    h0 = spec.base_step * max(abs(x), 1.0)
    rows = []
    for level in range(spec.richardson_levels):
        h = h0 / 2.0 ** level
        if spec.order == 1:
            d = (f(x + h) - f(x - h)) / (2.0 * h)
        else:
            d = (f(x + h) - 2.0 * f(x) + f(x - h)) / h ** 2
        if not math.isfinite(d):
            raise NonFiniteSample(f"non-finite sample near x={x}, h={h}")
        rows.append(d)
    # Richardson tableau on the h^2 error series
    for j in range(1, spec.richardson_levels):
        factor = 4.0 ** j
        rows = [(factor * rows[i + 1] - rows[i]) / (factor - 1.0)
                for i in range(len(rows) - 1)]
    return rows[0]


def find_root(f: Callable, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Find a root of f on [lo, hi] by bisection with secant acceleration.

    Requires a sign change on the bracket.  The bracket width shrinks by at
    least a factor of 2 per iteration (a bisection step is forced whenever
    the secant step fails to achieve that), so convergence is guaranteed.
    """
    flo = float(f(lo))
    fhi = float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NoSignChange(f"f({lo})={flo} and f({hi})={fhi} have equal sign")

    for _ in range(256):
        if hi - lo <= tol:
            break
        width = hi - lo
        # secant candidate, used only if strictly interior
        denom = fhi - flo
        x = lo - flo * width / denom if denom != 0 else 0.5 * (lo + hi)
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
        fx = float(f(x))
        if fx == 0.0:
            return x
        if flo * fx < 0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        if (hi - lo) > 0.5 * width:  # enforce the bisection guarantee
            mid = 0.5 * (lo + hi)
            fmid = float(f(mid))
            if fmid == 0.0:
                return mid
            if flo * fmid < 0:
                hi, fhi = mid, fmid
            else:
                lo, flo = mid, fmid
    return 0.5 * (lo + hi)
