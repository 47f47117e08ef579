"""Self-contained numerical engine: adaptive quadrature of one integrand or
of a batch of integrands on one shared mesh, by Gauss-Kronrod panels and,
for integrands that oscillate fast, Levin collocation panels; a bracketing
root finder, and Richardson central differences (the tests' extremum
oracle).

Everything here is a pure function over caller-supplied callables, so the
routines are safe to invoke concurrently.  Integrands are vectorized:
called with a numpy array of abscissae, they return one row per integrand;
a single integrand is the one-row batch.
"""

from __future__ import annotations

import math
import numbers
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
    "per_call",
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
# after the first call of a quadrature (see _panel_sums), and on the
# abscissae of each chunk of wignerfield's reference sum; it bounds memory
_BLOCK = 1 << 16


# a start mesh of up to this many panels is evaluated in one integrand
# call, which also tells the row count; a round cuts its panels as deep as
# this many rows x pieces allow, since a round's fixed cost far exceeds
# that of the abscissae it adds
_HEAD = 64


def _gk15_panels(f, lo, hi):
    """Gauss-Kronrod sums of the rows of f on each panel [lo, hi], in one
    call of f: returns (values, errors), both of shape (rows, len(lo)).  A
    panel's value and error depend only on its own 15 samples, summed in
    one fixed order by einsum, not on which panels share an integrand call
    (a BLAS matrix-vector product would round each sum by its place in the
    block).

    A panel whose Kronrod sum is not finite raises ``NonFiniteIntegrand``
    naming its row and panel: the weights are positive, so a NaN or +-inf
    sample makes the sum non-finite, and so does a sum that overflows from
    finite samples."""
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * _KRONROD_NODES
    y = np.ascontiguousarray(f(t.ravel()), dtype=float)
    y = y.reshape(y.shape[0], -1, 15)
    kronrod = np.einsum("...j,j->...", y, _KRONROD_WEIGHTS)
    if not np.isfinite(kronrod).all():
        row, panel = np.argwhere(~np.isfinite(kronrod))[0]
        raise NonFiniteIntegrand(
            f"non-finite integrand row {row} on [{lo[panel]}, {hi[panel]}]")
    err = np.einsum("...j,j->...", y[..., 1::2], _GAUSS_WEIGHTS)
    err -= kronrod
    np.abs(err, out=err)
    err *= half
    # QUADPACK-style rescaling: sharpen the raw |K - G| estimate where
    # resasc > 0; elsewhere, where every sample is K/2, the ratio is unused
    dev = y - 0.5 * kronrod[..., None]
    resasc = half * np.einsum("...j,j->...", np.abs(dev, out=dev),
                              _KRONROD_WEIGHTS)
    ratio = 200.0 * err
    scaled = resasc > 0.0
    np.divide(ratio, resasc, out=ratio, where=scaled)
    ratio **= 1.5
    estimate = resasc * np.minimum(ratio, 1.0, out=ratio)
    if not scaled.all():
        estimate = np.where(scaled, estimate, err)
    return half * kronrod, estimate


def _differentiation_matrix(x):
    """The derivative of the polynomial interpolant on the
    Chebyshev-Lobatto points x, as a matrix on its values there (Trefethen,
    Spectral Methods in MATLAB, ch. 6); each diagonal entry is minus the
    sum of its row's others, so constants differentiate to zero."""
    c = (-1.0) ** np.arange(x.size)
    c[[0, -1]] *= 2.0
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(x.size))
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


# a Levin panel collocates on the 17 Chebyshev-Lobatto points of [-1, 1],
# ascending, and on the nested 9 and 5 (every other one, every fourth) for
# its error estimate
_LOBATTO = -np.cos(np.pi * np.arange(17) / 16)
_ONES = np.ones((17, 1), dtype=complex)
# the step that takes the 17, 9 and 5 points from the 17, and each one's
# matrix; complex, so that a stack of systems is a copy of it
_LEVIN_RULES = [
    (step, _differentiation_matrix(_LOBATTO[::step]).astype(complex))
    for step in (1, 2, 4)]
# the signs of F(lo) and F(hi) in P(hi) F(hi) - P(lo) F(lo)
_END_SIGNS = np.array([-1.0, 1.0])

# a batch takes Levin panels when a start panel of width w has a phase
# rate |Im L'| above _LEVIN_BATCH / w in some row at either edge: that
# many radians cost Gauss-Kronrod rounds.  There a row takes a panel by
# Levin collocation when w |L'| exceeds _LEVIN_TURN (radians and e-folds)
# in that row at either edge; on a narrower panel, such as those of the
# start mesh that phase_rate_hint splits, it takes Gauss-Kronrod
_LEVIN_BATCH = 1e4
_LEVIN_TURN = 0.5 * math.pi
# a turning cell whose envelope bound, the panel's width times the largest
# |F| = exp(Re L) on its 17 points, is at most this fraction of the
# batch's abs_tol is not solved: it takes value 0 and error the bound
_LEVIN_NEGLIGIBLE = 1e-6


def _solve(m, ones):
    """The solutions of m q = ``ones`` for the stack m, shape (k, n, 1);
    NaN for a singular matrix, and for the others the bits they get in any
    stack."""
    try:
        return np.linalg.solve(m, ones)
    except np.linalg.LinAlgError:
        q = np.full(m.shape[:2] + (1,), np.nan, dtype=complex)
        for j, system in enumerate(m):
            try:
                q[j] = np.linalg.solve(system, ones)
            except np.linalg.LinAlgError:
                pass
        return q


def _levin_panels(levin, lo, hi, abs_tol):
    """Levin collocation sums of the rows of Re exp(L) on each panel
    [lo, hi], from one call ``levin(t)`` of (L, L'), each of shape
    (rows, len(t)): one array of shape (2, rows, len(lo)), the values and
    the errors, NaN in every (row, panel) cell where the row does not turn.

    L and L' are sampled on each panel's 17 Chebyshev-Lobatto points, its
    edges among them.  A row turns on a panel when the panel's width times
    that row's larger |L'| at the two edges exceeds ``_LEVIN_TURN``, so a
    cell's rule reads only that row's samples.  A turning cell whose L'
    is finite and whose envelope bound, the panel's width times its
    largest exp(Re L) on the 17 points, is at most
    ``_LEVIN_NEGLIGIBLE`` x ``abs_tol`` (the batch's own) is not solved:
    its value is 0 and its error that bound.  Any other turning cell's
    value solves P' + L'P = 1 for a polynomial P on the 17 points and is
    Re[P(hi) F(hi) - P(lo) F(lo)], F = exp(L), so F is needed at the ends
    only: a row whose F is zero at both ends has value and error zero.
    The same on the nested 9 and 5 points, each system solved at its own
    size, gives e9 and e5, the distances of their values from the 17-point
    one; the error is e9 times the contraction e9/e5 when that is below 1,
    else e9.  A cell's sums depend only on its own samples and
    ``abs_tol``; a row whose L or L' is not finite, or whose system is
    singular, gets non-finite sums there.  Each stack of collocation
    systems solved at once holds at most ``_BLOCK`` matrix entries."""
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * _LOBATTO
    log_f, rate = levin(t.ravel())
    # a non-finite L or L' gives non-finite sums, without a warning, which
    # _panel_sums hands to Gauss-Kronrod
    with np.errstate(invalid="ignore", over="ignore"):
        rate = np.reshape(rate, (-1, lo.size, 17)) * half[:, None]
        log_f = np.reshape(log_f, rate.shape)
        turning = 2.0 * np.abs(rate[..., ::16]).max(axis=2) > _LEVIN_TURN
        ends = np.exp(log_f[..., ::16])
        bound = (hi - lo) * np.exp(log_f.real.max(axis=2))
        skip = (turning & (bound <= _LEVIN_NEGLIGIBLE * abs_tol)
                & np.isfinite(rate).all(axis=2))
        sums = np.where(turning, 0.0, np.full((2,) + rate.shape[:2], np.nan))
        sums[1][skip] = bound[skip]
        row, panel = np.nonzero(turning & ~skip & (ends != 0.0).any(axis=2))
        rate, ends = rate[row, panel], ends[row, panel]
        # (D + h diag(L')) q = 1 on [-1, 1], and P = h q, on the 17, 9 and
        # 5 points in stacks of at most _BLOCK matrix entries; q_ends holds
        # each system's q at the ends
        q_ends = np.empty((3, row.size, 2), dtype=complex)
        for (step, d), into in zip(_LEVIN_RULES, q_ends):
            n = d.shape[0]
            stack = _BLOCK // (n * n)
            for s in range(0, row.size, stack):
                m = d[None].repeat(min(stack, row.size - s), axis=0)
                m.reshape(-1, n * n)[:, ::n + 1] += rate[s:s + stack, ::step]
                into[s:s + stack] = _solve(m, _ONES[:n])[:, ::n - 1, 0]
        fine, e9, e5 = half[panel] * np.einsum(
            "rij,ij->ri", q_ends, ends * _END_SIGNS).real
        e9, e5 = abs(e9 - fine), abs(e5 - fine)
        err = np.divide(e9 * e9, e5, out=e9, where=e9 < e5)
    sums[0, row, panel], sums[1, row, panel] = fine, err
    return sums


def per_call(*sizes: int) -> int:
    """How many panels, or source rows, one integrand call holds beside
    the counts ``sizes``: the largest m with m x product(sizes) x 17
    abscissae <= ``_BLOCK``, and at least one.  ``per_call(rows)`` panels
    per call of a batch, ``per_call(columns, panels)`` rows per row group."""
    return max(1, _BLOCK // (17 * math.prod(sizes)))


def _panel_sums(f, levin, lo, hi, rows, abs_tol):
    """(values, errors) of the rows on each panel [lo, hi], each of shape
    (rows, len(lo)): each cell by Levin collocation where that row turns
    on the panel and its sums are finite in that row, else by
    Gauss-Kronrod (see ``_levin_panels``), which runs once on each panel
    that holds such a cell; by Gauss-Kronrod alone when ``levin`` is None.
    ``abs_tol`` is the batch's own: a turning cell whose envelope bound is
    negligible against it takes value 0 and error the bound, unsolved.

    The one loop that splits panels into integrand calls: each call holds
    ``per_call(rows)`` panels, so at most ``_BLOCK`` rows x abscissae, but
    when ``rows`` is None the first holds min(len(lo), ``_HEAD``) panels
    and tells it.  A cell's sums depend only on its row's samples on its
    panel and on ``abs_tol``, so the split changes no bit, nor do the
    other rows."""
    chunks, start = [], 0
    while start < lo.size:
        stop = start + (_HEAD if rows is None else per_call(rows))
        a, b = lo[start:stop], hi[start:stop]
        if levin is None:
            sums = _gk15_panels(f, a, b)
        else:
            sums = _levin_panels(levin, a, b, abs_tol)
            cells = ~np.isfinite(sums).all(axis=0)
            rest = cells.any(axis=0)
            if rest.any():
                sums[:, :, rest] = np.where(cells[:, rest], _gk15_panels(
                    f, a[rest], b[rest]), sums[:, :, rest])
        chunks.append(sums)
        rows, start = len(sums[0]), stop
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=2)


def _start_mesh(a, b, n0, knee, max_panels):
    """n0 even panels on [a, b], the first graded toward ``knee`` (see
    ``integrate_batch``).  The graded edges a + w 2**-k, w the first
    panel's width, increase inside (a, a + w), so they join the even edges
    in order; near a large |a|, where w 2**-k falls below the spacing of
    floats, an edge that rounds onto the one before it is dropped, which
    leaves the edges of ``np.unique``."""
    edges = np.arange(n0 + 1) * ((b - a) / n0)
    edges += a
    edges[-1] = b
    w = float(edges[1]) - a
    if knee is not None and 0.0 < knee / 8.0 < 0.5 * w:
        levels = min(math.ceil(math.log2(8.0 * w) - math.log2(knee)) - 1,
                     max_panels - n0)
        graded = 2.0 ** np.arange(-levels, 0)
        graded *= w
        graded += a
        edges = np.concatenate(([a], graded, edges[1:]))
        rises = edges[1:] > edges[:-1]
        if not rises.all():
            edges = edges[np.concatenate(([True], rises))]
    return edges


@dataclass(frozen=True)
class BatchQuadrature:
    """Per-row results of ``integrate_batch``; ``edges`` is the mesh the
    rows share, strictly increasing if a < b, ``panels_used`` its panel
    count and ``rounds`` the passes over it (the start mesh with the
    guide's edges is the first), ``tolerance`` the error every row was
    held to in the last round, max(abs_tol, rel_tol * max_s |value_s|),
    and ``levin`` whether the batch took Levin panels.  Each value is the
    sum of its row's Gauss-Kronrod and Levin panel values on ``edges``,
    and depends on that mesh, the batch's rule and abs_tol and its own
    samples only."""

    values: np.ndarray
    error_estimates: np.ndarray
    converged: np.ndarray
    panels_used: int
    rounds: int
    edges: np.ndarray
    tolerance: float
    levin: bool = False


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
    levin: Callable | None = None,
) -> BatchQuadrature:
    """Integrate the k rows of f over [a, b] on one shared adaptive mesh of
    15-point Gauss-Kronrod panels and, given ``levin``, 17-point Levin
    collocation panels.

    ``f(t)`` maps a 1-D array of abscissae to a (k, len(t)) array.  Every
    row is held to one tolerance, max(abs_tol, rel_tol * max_s |value_s|),
    the record's ``tolerance`` in the last round: rel_tol of the batch's
    own scale, so a row that cancels to far below its neighbours is not
    refined to its own relative precision.

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
    the edges stay distinct.  Only the new panels are evaluated, in
    vectorized calls (see ``_panel_sums``), and take their places in the
    mesh; the other panels keep their sums, so each value is its row's
    panel values on the final edges added in mesh order, the bits of one
    call on those edges.  A
    single point with one selected panel thus jumps six levels in one
    round, while a round of many panels or rows bisects once.

    ``a`` and ``b`` must be finite with a <= b, ``abs_tol`` and ``rel_tol``
    finite and positive, ``phase_rate_hint`` None or finite and >= 0,
    ``max_panels`` an integer >= 1 and ``guide`` a 1-D array of finite
    edges, with at most ``max_panels`` panels in the start mesh it extends
    under the rule picked (see ``levin`` below), else ``ValueError`` names
    it before f is called.

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

    ``levin`` is f in log form: ``levin(t)`` returns (L, L'), each of shape
    (k, len(t)), with f = Re exp(L).  One call at the start edges picks the
    batch's rule and tells the row count, so that the first call of f, like
    every later one, holds at most ``_BLOCK`` rows x abscissae.  If no start
    panel of width w has a phase rate |Im L'| above ``_LEVIN_BATCH`` / w
    (1e4 radians) in any row at either edge, the batch runs the
    Gauss-Kronrod rounds above on that start mesh, and ``levin`` is not
    called again.  Otherwise the batch starts on the knee grading of the
    whole interval, with the guide's edges but no ``phase_rate_hint`` split
    (if that fits ``max_panels``; where the split left one panel, that is
    the start mesh already, and is not built again), and every round
    bisects.  The start mesh and each round's new panels are summed by the
    one rule picked.  Each new panel is then sampled at its 17
    Chebyshev-Lobatto points, edges included.  A row with w |L'| above pi/2
    at either edge of a panel takes that panel by Levin collocation: its
    value solves P' + L'P = 1, with error from the nested 9- and 5-point
    collocations (see ``_levin_panels``), unless its envelope bound, the
    panel's width times the largest exp(Re L) on the 17 points, is at most
    ``_LEVIN_NEGLIGIBLE`` (1e-6) x ``abs_tol``: then it is not solved, and
    its value is 0 and its error that bound.  The row's other panels, and
    any where its Levin sums are not finite or its collocation is
    singular, are Gauss-Kronrod panels in that row.  Every panel's value
    and error in a row depend on that row's own samples and ``abs_tol``
    only, given the batch's rule.

    Rows that have not converged when the budget is spent keep their best
    estimate with ``converged`` False instead of raising.  Two limits hold
    for Gauss-Kronrod panels only: under a tight ``max_panels`` a deep cut
    can spend the budget where bisection would converge, and a layer that
    no Kronrod node samples reads converged.  A Levin panel reads F at its
    ends alone, so a row whose F vanishes at both ends of a turning panel
    but not inside it reads zero there.
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
    # NaN passes "< 1" and inf never spends its budget
    if not isinstance(max_panels, numbers.Integral) or max_panels < 1:
        raise ValueError("max_panels must be at least 1 and an integer, "
                         f"got {max_panels!r}")
    if guide is not None:
        guide = np.asarray(guide, dtype=float)
        if guide.ndim != 1:
            raise ValueError(f"guide must be 1-D, got shape {guide.shape}")
        if not np.isfinite(guide).all():
            raise ValueError("guide must be finite")
    if a == b:
        k = np.asarray(f(np.array([a]))).shape[0]
        zero = np.zeros(k)
        return BatchQuadrature(zero, zero.copy(), np.ones(k, dtype=bool), 1,
                               1, np.array([a, b]), abs_tol)

    n0 = 1
    if phase_rate_hint:
        width = math.pi / (2.0 * phase_rate_hint)
        n0 = int(min(max(1, math.ceil((b - a) / width)), max_panels // 2 + 1))

    inside = None if guide is None else guide[(a < guide) & (guide < b)]

    def start(n):
        edges = _start_mesh(a, b, n, knee, max_panels)
        return edges if inside is None else np.union1d(edges, inside)

    edges = start(n0)

    # one call of ``levin`` at the start edges picks the rule and tells the
    # row count; a batch that stays Gauss-Kronrod drops ``levin``
    rows = None
    if levin is not None:
        phase = np.abs(levin(edges)[1].imag)
        rows = phase.shape[0]
        turns = (np.maximum(phase[:, :-1], phase[:, 1:])
                 * (edges[1:] - edges[:-1])).max() > _LEVIN_BATCH
        # with one start panel, the start mesh is the knee-only one
        plain = edges if n0 == 1 or not turns else start(1)
        if turns and plain.size - 1 <= max_panels:
            edges = plain
        else:
            levin = None
    if edges.size - 1 > max_panels:
        raise ValueError(f"guide takes the start mesh to {edges.size - 1}"
                         f" panels, over max_panels {max_panels}")

    vals, errs = _panel_sums(f, levin, edges[:-1], edges[1:], rows,
                             abs_tol)
    rows = vals.shape[0]
    rounds = 1

    while True:
        total = vals.sum(axis=1)
        total_err = errs.sum(axis=1)
        tol = max(abs_tol, rel_tol * float(np.abs(total).max()))
        active = total_err > tol
        lo, hi = edges[:-1], edges[1:]
        budget = max_panels - lo.size
        if not active.any() or budget <= 0:
            break
        share = errs[active].max(axis=0) / tol * lo.size
        chosen = ((share > 1.0)
                  & ((hi - lo) > np.abs(hi + lo) * 1e-15)).nonzero()[0]
        if chosen.size == 0:
            break
        if chosen.size > budget:
            order = np.argsort(-share[chosen], kind="stable")
            chosen = chosen[order[:budget]]
        # nested midpoints, as many levels as _HEAD and the budget allow
        # (a Levin batch bisects: its pieces cost a solve each, and its
        # panels converge spectrally); a piece cut wider than
        # 4e-15 (|lo| + |hi|) stays, after rounding, above the width guard
        # that selects panels.  cuts holds the lower edge of every piece:
        # the first n, the panels' own, are in the mesh already, and the
        # midpoints are distinct and new
        cuts, ends = lo[chosen], hi[chosen]
        n = chosen.size
        span = float(((ends - cuts) / (np.abs(ends) + np.abs(cuts))).min())
        levels = 1
        while (levin is None
               and 2 ** (levels + 1) * n * rows <= _HEAD
               and (2 ** (levels + 1) - 1) * n <= budget
               and span > 2 ** levels * 4e-15):
            levels += 1
        for _ in range(levels):
            mid = 0.5 * (cuts + ends)
            cuts, ends = (np.concatenate([cuts, mid]),
                          np.concatenate([mid, ends]))
        # each new panel takes the sums of the old panel it lies in, and
        # the pieces, at their places in the new mesh, their own; take
        # keeps the rows contiguous, so that their sums add in one order
        edges = np.sort(np.concatenate([edges, cuts[n:]]))
        kept = np.searchsorted(lo, edges[:-1], side="right") - 1
        fresh = np.searchsorted(edges, cuts)
        vals, errs = vals.take(kept, axis=1), errs.take(kept, axis=1)
        vals[:, fresh], errs[:, fresh] = _panel_sums(f, levin, cuts, ends,
                                                     rows, abs_tol)
        rounds += 1

    return BatchQuadrature(total, total_err, ~active, edges.size - 1, rounds,
                           edges, tol, levin is not None)


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
