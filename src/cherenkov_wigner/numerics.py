"""Self-contained numerical engine: adaptive Gauss-Kronrod quadrature,
Richardson-extrapolated central differences, and a bracketing root finder.

Everything here is a pure function over caller-supplied callables, so the
routines are safe to invoke concurrently.  Integrands may be vectorized
(called with a numpy array of abscissae) or plain scalar functions; the
vectorized path is much faster.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureResult",
    "DiffSpec",
    "NonFiniteIntegrand",
    "NonFiniteSample",
    "NoSignChange",
    "integrate_adaptive",
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
class QuadratureResult:
    value: float
    error_estimate: float
    panels_used: int
    converged: bool = True

    def __post_init__(self):
        if self.error_estimate < 0 or self.panels_used < 1:
            raise ValueError("invalid quadrature result")


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


def _eval_vectorized(f, x):
    """Call f on an array of abscissae, falling back to a scalar loop."""
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([float(f(xi)) for xi in x])


def _gk15(f, a, b):
    """One Gauss-Kronrod panel: returns (integral, error, f-samples-ok)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = _eval_vectorized(f, center + half * _KRONROD_NODES)
    if not np.all(np.isfinite(y)):
        raise NonFiniteIntegrand(f"non-finite integrand on [{a}, {b}]")
    result_k = half * float(_KRONROD_WEIGHTS @ y)
    result_g = half * float(_GAUSS_WEIGHTS @ y[1::2])
    err = abs(result_k - result_g)
    # QUADPACK-style rescaling: sharpen the raw |K - G| estimate
    resasc = half * float(_KRONROD_WEIGHTS @ np.abs(y - result_k / (b - a)))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return result_k, err


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
    phase_rate_hint: float | None = None,
    max_panels: int = 4096,
) -> QuadratureResult:
    """Adaptively integrate f over [a, b] with 15-point Gauss-Kronrod panels.

    ``phase_rate_hint`` is an upper estimate of |d(phase)/dx| of an
    oscillatory integrand; when given, the initial uniform subdivision uses
    panels no wider than pi / (2 * hint), i.e. at least four panels per
    oscillation period, before any adaptive bisection happens.

    Convergence target: total error <= max(abs_tol, rel_tol * |integral|).
    If the panel budget is exhausted first, the best estimate is returned
    with ``converged=False`` instead of raising.
    """
    if not (a <= b):
        raise ValueError("integrate_adaptive requires a <= b")
    if abs_tol <= 0 or rel_tol <= 0:
        raise ValueError("tolerances must be positive")
    if a == b:
        return QuadratureResult(0.0, 0.0, 1)

    n0 = 1
    if phase_rate_hint is not None and phase_rate_hint > 0:
        width = math.pi / (2.0 * phase_rate_hint)
        n0 = int(min(max(1, math.ceil((b - a) / width)), max_panels // 2 + 1))
    edges = np.linspace(a, b, n0 + 1)

    # max-heap on panel error; counter breaks ties deterministically
    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk15(f, lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1
        total += val
        total_err += err

    panels = n0
    while panels < max_panels:
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            break
        neg_err, _, lo, hi, val, err = heapq.heappop(heap)
        if err == 0.0 or (hi - lo) <= abs(hi + lo) * 1e-15:
            heapq.heappush(heap, (neg_err, counter, lo, hi, val, err))
            counter += 1
            break
        mid = 0.5 * (lo + hi)
        val_l, err_l = _gk15(f, lo, mid)
        val_r, err_r = _gk15(f, mid, hi)
        total += val_l + val_r - val
        total_err += err_l + err_r - err
        heapq.heappush(heap, (-err_l, counter, lo, mid, val_l, err_l))
        heapq.heappush(heap, (-err_r, counter + 1, mid, hi, val_r, err_r))
        counter += 2
        panels += 1

    converged = total_err <= max(abs_tol, rel_tol * abs(total))
    return QuadratureResult(total, total_err, panels, converged)


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


def find_root(f: Callable, lo: float, hi: float, tol: float = 1e-12,
              max_iter: int = 256) -> float:
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

    for _ in range(max_iter):
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
