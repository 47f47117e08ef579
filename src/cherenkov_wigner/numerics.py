"""Self-contained numerical engine: adaptive Gauss-Kronrod quadrature of
one integrand or of a batch of integrands on one shared mesh, a bracketing
root finder, and Richardson central differences (the tests' extremum oracle).

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
    """Central-difference settings: the relative base step."""

    base_step: float = 1e-5

    def __post_init__(self):
        if self.base_step <= 0:
            raise ValueError("base_step must be positive")


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


# upper bound on rows x abscissae per integrand call of integrate_batch,
# after the first call of a quadrature (see _HEAD); it bounds memory only
_BLOCK = 1 << 16


# a start mesh of up to this many panels is evaluated in one integrand
# call, which also tells the row count; a round cuts its panels as deep as
# this many rows x pieces allow, since a round's fixed cost far exceeds
# that of the abscissae it adds
_HEAD = 64


def _samples(f, t, lo, hi, start, stop):
    """f on the Kronrod nodes of panels [start, stop), shape (rows,
    panels, 15), C-contiguous."""
    y = np.ascontiguousarray(f(t[start:stop].ravel()), dtype=float)
    y = y.reshape(y.shape[0], -1, 15)
    if not np.all(np.isfinite(y)):
        row, panel = np.argwhere(~np.isfinite(y))[0, :2]
        raise NonFiniteIntegrand(
            f"non-finite integrand row {row} on "
            f"[{lo[start + panel]}, {hi[start + panel]}]")
    return y


def _gk15_panels(f, lo, hi, rows=None):
    """Gauss-Kronrod sums of the rows of f on each panel [lo, hi]: returns
    (values, errors), both of shape (rows, len(lo)).  A panel's value and
    error depend only on its own 15 samples, summed in one fixed order by
    einsum, not on which panels share an integrand call (a BLAS
    matrix-vector product would round each sum by its place in the
    block).  When ``rows`` is not known yet, the first call of f
    holds the first min(len(lo), ``_HEAD``) panels and tells it; every
    other call holds at most ``_BLOCK`` rows x abscissae."""
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * _KRONROD_NODES
    vals, errs = [], []
    start = 0
    while start < lo.size:
        step = _HEAD if rows is None else max(1, _BLOCK // (15 * rows))
        stop = min(lo.size, start + step)
        y = _samples(f, t, lo, hi, start, stop)
        rows = y.shape[0]
        h = half[start:stop]
        kronrod = np.einsum("...j,j->...", y, _KRONROD_WEIGHTS)
        gauss = np.einsum("...j,j->...", y[..., 1::2], _GAUSS_WEIGHTS)
        err = h * np.abs(kronrod - gauss)
        # QUADPACK-style rescaling: sharpen the raw |K - G| estimate
        resasc = h * np.einsum("...j,j->...",
                               np.abs(y - 0.5 * kronrod[..., None]),
                               _KRONROD_WEIGHTS)
        ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err),
                          where=resasc > 0.0)
        vals.append(h * kronrod)
        errs.append(np.where(resasc > 0.0,
                             resasc * np.minimum(1.0, ratio ** 1.5), err))
        start = stop
    return np.concatenate(vals, axis=1), np.concatenate(errs, axis=1)


@dataclass(frozen=True)
class BatchQuadrature:
    """Per-row results of ``integrate_batch``; ``edges`` is the mesh the
    rows share, strictly increasing if a < b, ``panels_used`` its panel
    count and ``rounds`` the passes over it (the start mesh with the
    guide's edges is the first).  Each value is the sum of its row's
    Gauss-Kronrod panel values on ``edges``, and depends on that mesh and
    its own samples only."""

    values: np.ndarray
    error_estimates: np.ndarray
    converged: np.ndarray
    panels_used: int
    rounds: int
    edges: np.ndarray


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
    guide: np.ndarray | None = None,
) -> BatchQuadrature:
    """Integrate the k rows of f over [a, b] on one shared adaptive mesh of
    15-point Gauss-Kronrod panels.

    ``f(t)`` maps a 1-D array of abscissae to a (k, len(t)) array.  Every
    row is held to one tolerance, max(abs_tol, rel_tol * max_s |value_s|):
    rel_tol of the batch's own scale, so a row that cancels to far below
    its neighbours is not refined to its own relative precision; a
    one-row batch is held to max(abs_tol, rel_tol * |value|).

    The mesh is one sorted array of edges.  Each round selects every panel
    whose error exceeds its even share of that tolerance (the tolerance
    over the panel count) in some unconverged row; while a row is
    unconverged, at least one of its panels does.  When that would exceed
    ``max_panels``, the panels with the largest share go first.  The round
    cuts each selected panel at the 2**levels - 1 nested midpoints of
    2**levels even pieces, levels the largest >= 1 with 2**levels x
    selected panels x rows <= ``_HEAD`` (64) and within ``max_panels``; it
    stops a level early rather than cut a piece narrower than
    4e-15 (|lo| + |hi|), so every cut lies strictly inside its panel and
    the edges stay distinct.  Only the new panels are evaluated, in one
    vectorized call.  A single point with one selected panel thus jumps
    six levels in one round, while a round of many panels or rows bisects
    once.

    ``a`` and ``b`` must be finite with a <= b, ``abs_tol`` and ``rel_tol``
    finite and positive, ``phase_rate_hint`` None or finite and >= 0,
    ``max_panels`` >= 1 and ``guide`` finite, with at most ``max_panels``
    panels in the start mesh it extends, else ``ValueError`` names it
    before f is called.

    ``phase_rate_hint`` is an upper estimate of |d(phase)/dx| of an
    oscillatory integrand; when positive, the start mesh has panels no
    wider than pi / (2 * hint), at least four per oscillation period.

    ``knee`` is the width of a boundary layer at ``a``: the scale on which
    the integrand changes there, much shorter than the start panels.  When
    knee/8 is less than half the first panel's width w, that panel is split
    at a + w/2, a + w/4, ... for as long as the piece left at ``a`` stays
    wider than knee/8, so the start mesh already resolves the layer that
    refinement would otherwise reach a few levels per round.

    ``guide`` is an array of edges added to the start mesh, such as the
    final ``edges`` of a related batch: those strictly inside (a, b) join
    it before the first round.

    Rows that have not converged when the budget is spent keep their best
    estimate with ``converged`` False instead of raising.  Under a tight
    ``max_panels`` a deep cut can spend the budget where bisection would
    converge, and a layer that no Kronrod node samples reads converged.
    """
    for name, bound in (("a", a), ("b", b)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    if not (a <= b):
        raise ValueError("integrate_batch requires a <= b")
    for name, tol in (("abs_tol", abs_tol), ("rel_tol", rel_tol)):
        if not (0.0 < tol < math.inf):
            raise ValueError(f"{name} must be finite and positive, got {tol}")
    if not (phase_rate_hint is None or 0.0 <= phase_rate_hint < math.inf):
        raise ValueError("phase_rate_hint must be finite and non-negative, "
                         f"got {phase_rate_hint}")
    if max_panels < 1:
        raise ValueError(f"max_panels must be at least 1, got {max_panels}")
    if guide is not None and not np.all(np.isfinite(guide)):
        raise ValueError("guide must be finite")
    if a == b:
        k = np.asarray(f(np.array([a]))).shape[0]
        zero = np.zeros(k)
        return BatchQuadrature(zero, zero.copy(), np.ones(k, dtype=bool), 1,
                               1, np.array([a, b]))

    n0 = 1
    if phase_rate_hint:
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
    if guide is not None:
        edges = np.union1d(edges, guide[(a < guide) & (guide < b)])
        if edges.size - 1 > max_panels:
            raise ValueError(f"guide takes the start mesh to {edges.size - 1}"
                             f" panels, over max_panels {max_panels}")
    vals, errs = _gk15_panels(f, edges[:-1], edges[1:])
    rounds = 1

    while True:
        total = np.sum(vals, axis=1)
        total_err = np.sum(errs, axis=1)
        tol = max(abs_tol, rel_tol * float(np.abs(total).max()))
        active = total_err > tol
        lo, hi = edges[:-1], edges[1:]
        budget = max_panels - lo.size
        if not active.any() or budget <= 0:
            break
        share = np.max(errs[active], axis=0) / tol * lo.size
        chosen = np.flatnonzero((share > 1.0)
                                & ((hi - lo) > np.abs(hi + lo) * 1e-15))
        if chosen.size == 0:
            break
        if chosen.size > budget:
            order = np.argsort(-share[chosen], kind="stable")
            chosen = chosen[order[:budget]]
        split = np.zeros(lo.size, dtype=bool)
        split[chosen] = True
        # nested midpoints, as many levels as _HEAD and the budget allow;
        # a piece cut wider than 4e-15 (|lo| + |hi|) stays, after
        # rounding, above the width guard that selects panels.  cuts holds
        # the lower edge of every piece: the first n, the panels' own, are
        # in the mesh already, and the midpoints are distinct and new
        cuts, ends = lo[chosen], hi[chosen]
        n = chosen.size
        span = float(np.min((ends - cuts) / (np.abs(ends) + np.abs(cuts))))
        levels = 1
        while (2 ** (levels + 1) * n * vals.shape[0] <= _HEAD
               and (2 ** (levels + 1) - 1) * n <= budget
               and span > 2 ** levels * 4e-15):
            levels += 1
        for _ in range(levels):
            mid = 0.5 * (cuts + ends)
            cuts, ends = (np.concatenate([cuts, mid]),
                          np.concatenate([mid, ends]))
        edges = np.sort(np.concatenate([edges, cuts[n:]]))
        fresh = split[np.searchsorted(lo, edges[:-1], side="right") - 1]
        new_vals = np.empty((vals.shape[0], edges.size - 1))
        new_errs = np.empty_like(new_vals)
        new_vals[:, ~fresh] = vals[:, ~split]
        new_errs[:, ~fresh] = errs[:, ~split]
        new_vals[:, fresh], new_errs[:, fresh] = _gk15_panels(
            f, edges[:-1][fresh], edges[1:][fresh], vals.shape[0])
        vals, errs = new_vals, new_errs
        rounds += 1

    return BatchQuadrature(total, total_err, ~active, edges.size - 1, rounds,
                           edges)


def differentiate(f: Callable, x: float, spec: DiffSpec = DiffSpec()) -> float:
    """First derivative of f at x: central differences at the steps h and
    h/2, h = ``spec.base_step * max(|x|, 1)``, combined by one Richardson
    step on their h^2 error series, which leaves an O(h^4) truncation error
    for smooth f.
    """
    h0 = spec.base_step * max(abs(x), 1.0)
    rows = []
    for h in (h0, h0 / 2.0):
        d = (f(x + h) - f(x - h)) / (2.0 * h)
        if not math.isfinite(d):
            raise NonFiniteSample(f"non-finite sample near x={x}, h={h}")
        rows.append(d)
    return (4.0 * rows[1] - rows[0]) / 3.0


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
