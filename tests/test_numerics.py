import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cherenkov_wigner import numerics
from cherenkov_wigner.numerics import (_LEVIN_TURN, DiffSpec, NoSignChange,
                                       NonFiniteIntegrand, NonFiniteSample,
                                       _gk15_panels, _HEAD, _levin_panels,
                                       _panel_sums, _solve, _start_mesh,
                                       differentiate, find_root,
                                       integrate_batch, per_call)


def gauss_legendre_reference(f, a, b, n=2000):
    """Brute-force fixed-order quadrature oracle."""
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (b - a) * x + 0.5 * (a + b)
    return 0.5 * (b - a) * float(w @ f(t))


def test_polynomial():
    res = integrate_batch(lambda x: (x ** 2)[None], 0.0, 1.0)
    assert abs(res.values[0] - 1.0 / 3.0) < 1e-12
    assert res.converged[0]


def test_full_periods_cancel():
    res = integrate_batch(lambda x: np.cos(x)[None], 0.0, 10 * math.pi,
                          abs_tol=1e-10)
    assert abs(res.values[0]) < 1e-10


def test_oscillatory_vs_gauss_legendre():
    f = lambda x: np.exp(-x ** 2) * np.cos(50 * x)
    res = integrate_batch(lambda x: f(x)[None], -6.0, 6.0, abs_tol=1e-13,
                          rel_tol=1e-12, phase_rate_hint=50.0)
    ref = gauss_legendre_reference(f, -6.0, 6.0)
    assert abs(res.values[0] - ref) < 1e-10


def test_linearity(rng):
    # I(a f + b g) = a I(f) + b I(g) on random smooth integrands
    for _ in range(10):
        c = rng.normal(size=4)
        d = rng.normal(size=4)
        al, be = rng.normal(size=2)
        f = lambda x: c[0] + c[1] * x + c[2] * np.sin(3 * x) + c[3] * np.exp(-x ** 2)
        g = lambda x: d[0] + d[1] * x ** 2 + d[2] * np.cos(2 * x) + d[3] * x ** 3
        h = lambda x: al * f(x) + be * g(x)
        i_f, i_g, i_h = (
            integrate_batch(lambda x: fn(x)[None], -1.0, 2.0, abs_tol=1e-13,
                            rel_tol=1e-13)
            for fn in (f, g, h))
        combined = al * i_f.values[0] + be * i_g.values[0]
        tol = (abs(al) * i_f.error_estimates[0]
               + abs(be) * i_g.error_estimates[0]
               + i_h.error_estimates[0] + 1e-12)
        assert abs(i_h.values[0] - combined) <= 10 * tol


def test_budget_exhaustion_returns_flagged_estimate():
    res = integrate_batch(lambda x: np.cos(100 * x)[None], 0.0, 10.0,
                          abs_tol=1e-14, rel_tol=1e-14, max_panels=4)
    assert not res.converged[0]
    assert res.panels_used == 4
    assert math.isfinite(res.values[0])


def test_non_finite_integrand():
    with pytest.raises(NonFiniteIntegrand):
        integrate_batch(lambda x: np.where(x < 0.5, np.nan, 1.0)[None], 0.0,
                        1.0)


def test_precondition_errors():
    with pytest.raises(ValueError):
        integrate_batch(lambda x: np.cos(x)[None], 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_batch(lambda x: np.cos(x)[None], 0.0, 1.0, abs_tol=0.0)


@pytest.mark.parametrize("a,b,name", [
    (-math.inf, 0.0, "a"), (math.inf, 0.0, "a"), (math.nan, 0.0, "a"),
    (0.0, math.inf, "b"), (0.0, -math.inf, "b"), (0.0, math.nan, "b")])
def test_bounds_must_be_finite(a, b, name):
    # an infinite bound used to warn while the start mesh was built and
    # then blame the integrand: NonFiniteIntegrand on [nan, inf]
    calls = []

    def f(t):
        calls.append(t.size)
        return np.exp(-np.abs(t))[None]

    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        integrate_batch(f, a, b)
    assert calls == []


@pytest.mark.parametrize("name", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_tolerance_must_be_finite_and_positive(name, bad):
    # a NaN or infinite tolerance used to pass as met: cos(40 t) over
    # [0, 2] came back as its one-panel estimate, flagged converged
    with pytest.raises(ValueError,
                       match=f"^{name} must be finite and positive"):
        integrate_batch(lambda t: np.cos(40.0 * t)[None], 0.0, 2.0,
                        **{name: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_phase_rate_hint_must_be_finite_and_non_negative(bad):
    # an infinite hint used to raise ZeroDivisionError while building the
    # start mesh; a NaN or negative one passed as no hint
    calls = []

    def f(t):
        calls.append(t.size)
        return np.cos(t)[None]

    with pytest.raises(ValueError, match="^phase_rate_hint must be finite"):
        integrate_batch(f, 0.0, 1.0, phase_rate_hint=bad)
    assert calls == []


@pytest.mark.parametrize("hint", [None, 0, 0.0])
def test_no_phase_rate_hint_means_no_pre_split(hint):
    res = integrate_batch(lambda t: np.cos(t)[None], 0.0, 1.0,
                          phase_rate_hint=hint)
    assert res.edges.tolist() == [0.0, 1.0]
    assert abs(res.values[0] - math.sin(1.0)) < 1e-14


@pytest.mark.parametrize("bad", [0, -5, math.nan, math.inf, 16.5, 2.0])
def test_max_panels_must_be_at_least_one(bad):
    # NaN passes "< 1" and inf never spends its budget: both refined
    # cos(300 t) to 126 panels; 16.5 failed in a slice
    with pytest.raises(ValueError, match="^max_panels must be at least 1"):
        integrate_batch(lambda t: np.cos(40.0 * t)[None], 0.0, 2.0,
                        max_panels=bad)


def damped_waves(params):
    """Rows c exp(-s x^2) cos(w x + p), one per (c, s, w, p)."""
    c, s, w, p = (np.array(col)[:, None] for col in zip(*params))
    return lambda x: c * np.exp(-s * x ** 2) * np.cos(w * x + p)


_ROW = st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 4.0),
                 st.floats(0.0, 60.0), st.floats(-math.pi, math.pi))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=6),
       hint=st.sampled_from([None, 5.0, 60.0]))
def test_batch_agrees_with_one_row_calls(rows, hint):
    # the shared mesh changes each row's panels, not its integral: every
    # row agrees with its own one-row integration within the two error
    # estimates
    f = damped_waves(rows)
    opts = dict(abs_tol=1e-11, rel_tol=1e-10, phase_rate_hint=hint)
    batch = integrate_batch(f, -3.0, 2.0, **opts)
    assert batch.converged.all()
    assert np.all(batch.error_estimates
                  <= max(1e-11, 1e-10 * np.max(np.abs(batch.values))))
    assert batch.values.shape == batch.error_estimates.shape == (len(rows),)
    for j in range(len(rows)):
        one = integrate_batch(lambda x: f(x)[j:j + 1], -3.0, 2.0, **opts)
        assert one.converged[0]
        assert (abs(batch.values[j] - one.values[0])
                <= batch.error_estimates[j] + one.error_estimates[0] + 1e-14)


def test_batch_non_finite_row():
    def f(x):
        return np.stack([np.cos(x), np.where(x > 0.7, np.inf, x)])

    with pytest.raises(NonFiniteIntegrand, match="row 1"):
        integrate_batch(f, 0.0, 1.0)


@pytest.mark.parametrize("max_panels,hint", [(4, None), (5, 100.0)])
def test_batch_budget_flags_rows_separately(max_panels, hint):
    # the smooth row converges on the first panels; the fast oscillation
    # cannot within the budget.  With the hint the pre-split takes three
    # panels, so the first round wants more bisections than the budget
    # holds
    f = lambda x: np.stack([x ** 2, np.cos(100.0 * x)])
    res = integrate_batch(f, 0.0, 10.0, abs_tol=1e-14, rel_tol=1e-14,
                          phase_rate_hint=hint, max_panels=max_panels)
    assert res.panels_used <= max_panels
    assert res.converged.tolist() == [True, False]
    assert abs(res.values[0] - 1000.0 / 3.0) < 1e-9
    assert np.all(np.isfinite(res.values))


def test_knee_grades_the_start_mesh():
    # a Lorentzian of width tau at t = 0 on an interval 2.6e6 times longer:
    # from one uniform panel, refinement reaches the layer a few levels per
    # round; a start mesh graded down to tau/8 resolves it at once
    tau, t_end = 0.39, 1e6
    exact = tau * math.atan(t_end / tau)
    f = lambda t: 1.0 / (1.0 + (t / tau) ** 2)
    sizes = {}

    def counted(key):
        def g(t):
            sizes[key] = sizes.get(key, 0) + t.size
            return f(t)[None]
        return g

    graded = integrate_batch(counted("graded"), 0.0, t_end, knee=tau)
    uniform = integrate_batch(counted("uniform"), 0.0, t_end)
    for res in (graded, uniform):
        assert res.converged[0]
        assert abs(res.values[0] - exact) <= 1e-10 * exact
    assert graded.rounds <= 2
    assert graded.rounds < uniform.rounds
    assert sizes["graded"] < sizes["uniform"]
    batch = integrate_batch(lambda t: np.stack([f(t), -3.0 * f(t)]), 0.0,
                            t_end, knee=tau)
    assert batch.rounds <= 2 and batch.converged.all()
    assert np.allclose(batch.values, [exact, -3.0 * exact], rtol=1e-10)


@pytest.mark.parametrize("knee", [None, 0.0, -1.0, math.nan, math.inf, 5.0])
def test_knee_leaves_the_mesh_alone_when_it_is_no_boundary_layer(knee):
    # no knee, a non-finite or non-positive one, or one wider than four
    # times the first panel keeps the uniform start mesh
    f = lambda t: np.stack([np.exp(-t), np.cos(t)])
    opts = dict(abs_tol=1e-12, rel_tol=1e-12, phase_rate_hint=2.0)
    got = integrate_batch(f, 0.0, 3.0, knee=knee, **opts)
    ref = integrate_batch(f, 0.0, 3.0, **opts)
    assert np.array_equal(got.values, ref.values)
    assert (got.panels_used, got.rounds) == (ref.panels_used, ref.rounds)


def _unique_start_mesh(a, b, n0, knee, max_panels):
    """The start mesh as ``np.unique`` of its pieces: the even edges, and
    the graded ones a + w 2**-k of a first panel of width w."""
    edges = a + np.arange(n0 + 1) * ((b - a) / n0)
    edges[-1] = b
    w = edges[1] - a
    if knee is not None and 0.0 < knee / 8.0 < 0.5 * w:
        levels = min(math.ceil(math.log2(8.0 * w) - math.log2(knee)) - 1,
                     max_panels - n0)
        graded = a + w * 2.0 ** -np.arange(levels, 0, -1)
        edges = np.unique(np.concatenate([[a], graded, edges[1:]]))
    return edges


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=st.one_of(st.just(0.0), st.floats(-1e9, 1e9)),
       width=st.floats(-4.0, 3.0), max_panels=st.integers(1, 4096),
       n0=st.integers(1, 64),
       knee=st.one_of(st.none(), st.floats(-20.0, 1.0)))
@example(a=1e6, width=0.0, max_panels=4096, n0=1, knee=-20.0)
@example(a=-3.0, width=0.0, max_panels=4096, n0=1, knee=-18.0)
def test_start_mesh_is_unique_of_its_pieces(a, width, max_panels, n0, knee):
    # width and knee are decades: b - a = 10**width max(1, |a|), and the
    # knee 10**knee (b - a); where |a| >> knee, graded edges round onto a
    # or onto each other and are dropped (the examples)
    b = a + 10.0 ** width * max(1.0, abs(a))
    n0 = min(n0, max_panels // 2 + 1)
    knee = None if knee is None else 10.0 ** knee * (b - a)
    edges = _start_mesh(a, b, n0, knee, max_panels)
    assert edges[0] == a and edges[-1] == b
    assert np.all(edges[1:] > edges[:-1])
    assert np.array_equal(edges, _unique_start_mesh(a, b, n0, knee,
                                                    max_panels))


def test_start_mesh_drops_graded_edges_that_round_together():
    # near a = 1e6 floats are 1.2e-10 apart, so the graded edges
    # a + 2**-k for 2**-k below that round onto a or onto each other
    a, knee = 1e6, 1e-20
    w = 1.0
    levels = math.ceil(math.log2(8.0 * w) - math.log2(knee)) - 1
    graded = a + w * 2.0 ** -np.arange(levels, 0, -1)
    assert np.count_nonzero(graded == a) > 1
    assert np.unique(graded).size < graded.size
    edges = _start_mesh(a, a + w, 1, knee, 4096)
    assert np.array_equal(edges, np.unique(np.concatenate([[a], graded,
                                                           [a + w]])))


@pytest.mark.parametrize("f", [
    lambda t: np.tanh((t - 2.0 ** -8) / 1e-13)[None],
    lambda t: np.stack([np.tanh((t - 2.0 ** -8) / 1e-13), np.cos(9.0 * t),
                        np.exp(-t * t)])], ids=["step", "step-and-two-rows"])
def test_refined_batch_sums_its_final_mesh_in_one_call(f):
    # the round merge places each panel's sums in mesh order, in rows
    # that add in one order: after several rounds the values and errors
    # are those of the final edges summed in one Gauss-Kronrod call, bit
    # for bit
    res = integrate_batch(f, -3.0, 2.0, abs_tol=1e-12, rel_tol=1e-10,
                          phase_rate_hint=5.0, max_panels=4096)
    assert res.rounds >= 5 and res.converged.all()
    vals, errs = _gk15_panels(f, res.edges[:-1], res.edges[1:])
    assert np.array_equal(vals.sum(axis=1), res.values)
    assert np.array_equal(errs.sum(axis=1), res.error_estimates)


def test_batch_empty_interval():
    res = integrate_batch(lambda x: np.stack([x, x]), 1.0, 1.0)
    assert res.values.tolist() == [0.0, 0.0]
    assert res.converged.all()


@pytest.mark.parametrize("hint,panels,calls", [
    (1.0, 20, 1), (2.0, 40, 1), (3.2, 64, 1), (3.5, 70, 2)])
def test_start_mesh_of_up_to_64_panels_is_one_integrand_call(hint, panels,
                                                             calls):
    # the first call tells the row count and holds the first 64 panels of
    # the start mesh, so a quadrature that converges on a start mesh of at
    # most 64 panels makes one call
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.stack([np.cos(t), np.sin(t)])

    res = integrate_batch(f, 0.0, 10.0 * math.pi, abs_tol=1e-6, rel_tol=1e-6,
                          phase_rate_hint=hint)
    assert (res.panels_used, res.rounds) == (panels, 1)
    assert res.converged.all()
    assert sizes[0] == 15 * min(panels, 64)
    assert sum(sizes) == 15 * panels
    assert len(sizes) == calls


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=30),
       widths=st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=160),
       bounds=st.lists(st.integers(1, 159), max_size=5))
def test_panel_sums_depend_on_their_own_samples_only(rows, widths, bounds):
    # a panel's value and error are the same bits whether its mesh is
    # evaluated whole (30 rows x 160 panels in one integrand call),
    # in other blocks, a panel or a row at a time, from a strided view of
    # a mesh, or from an integrand that returns a strided view
    f = damped_waves(rows)
    k = len(rows)
    edges = -3.0 + np.concatenate([[0.0], np.cumsum(widths)])
    lo, hi = edges[:-1], edges[1:]
    whole = _gk15_panels(f, lo, hi)
    cuts = sorted({0, lo.size, *(c for c in bounds if c < lo.size)})
    blocks = [_gk15_panels(f, lo[s:e], hi[s:e])
              for s, e in zip(cuts[:-1], cuts[1:])]
    panels = [_gk15_panels(f, lo[j:j + 1], hi[j:j + 1])
              for j in range(lo.size)]
    for got in (blocks, panels):
        for i in (0, 1):
            assert np.array_equal(np.concatenate([g[i] for g in got], axis=1),
                                  whole[i])
    for i in range(k):
        row = _gk15_panels(lambda t: f(t)[i:i + 1], lo, hi)
        assert np.array_equal(row[0], whole[0][i:i + 1])
        assert np.array_equal(row[1], whole[1][i:i + 1])
    wide = np.repeat(edges, 2)
    strided = _gk15_panels(f, wide[1:-1:2], wide[2::2])
    doubled = _gk15_panels(lambda t: np.repeat(f(t), 2, axis=1)[:, ::2],
                           lo, hi)
    for got in (strided, doubled):
        assert np.array_equal(got[0], whole[0])
        assert np.array_equal(got[1], whole[1])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=8),
       hint=st.sampled_from([None, 5.0, 60.0]),
       knee=st.sampled_from([None, 1e-3]),
       max_panels=st.sampled_from([8, 64, 4096]),
       related=st.lists(_ROW, max_size=3))
def test_batch_rows_are_sums_of_their_own_panels(rows, hint, knee,
                                                 max_panels, related):
    # a row's value and error are the sums of its own panels on the final
    # mesh, bit for bit, however many rows shared the batch and however
    # the rounds grouped the panels
    f = damped_waves(rows)
    opts = dict(abs_tol=1e-11, rel_tol=1e-10, phase_rate_hint=hint,
                knee=knee, max_panels=max_panels)
    guide = (integrate_batch(damped_waves(related), -3.0, 2.0, **opts).edges
             if related else None)
    res = integrate_batch(f, -3.0, 2.0, guide=guide, **opts)
    for i in range(len(rows)):
        vals, errs = _gk15_panels(lambda t: f(t)[i:i + 1], res.edges[:-1],
                                  res.edges[1:])
        assert res.values[i] == np.sum(vals[0])
        assert res.error_estimates[i] == np.sum(errs[0])


def _start_edges(a, b, **opts):
    """The start mesh of ``integrate_batch``: the final mesh of a batch
    that converges there, a zero row."""
    return integrate_batch(lambda t: np.zeros((1, t.size)), a, b,
                           **opts).edges


def _cuts(lo, hi, rows, budget, head):
    """The cut points that a round inserts into the panels [lo, hi]: the
    nested midpoints that cut each panel into 2**levels pieces, where
    levels is the largest >= 1 such that 2**levels * panels * rows <= head,
    the pieces add at most ``budget`` panels, and every piece cut at the
    last level is wider than 4e-15 (|lo| + |hi|) of its panel."""
    levels = 1
    while (2 ** (levels + 1) * lo.size * rows <= head
           and lo.size * (2 ** (levels + 1) - 1) <= budget
           and all((h - l) / (abs(h) + abs(l)) > 2.0 ** levels * 4e-15
                   for l, h in zip(lo, hi))):
        levels += 1
    cuts = []
    for l, h in zip(lo, hi):
        e = np.array([l, h])
        for _ in range(levels):
            mid = 0.5 * (e[:-1] + e[1:])
            e = np.append(np.ravel(np.column_stack([e[:-1], mid])), e[-1])
        cuts.extend(e[1:-1])
    return cuts


def _bisection_reference(f, a, b, abs_tol, rel_tol, max_panels=4096,
                         head=_HEAD, edges=None, **start):
    """``integrate_batch`` written out as a loop of rounds on a sorted
    mesh that starts on ``edges``, by default the start mesh of
    ``integrate_batch``: each round inserts the cut points of the panels it
    selects, from ``_cuts``, and evaluates the panels it has not seen:
    (values, errors, converged, panels, rounds, edges).  ``head=0`` bisects
    once per round, the plain bisection loop that every round ran before
    the split was sized to ``_HEAD``."""
    if edges is None:
        edges = _start_edges(a, b, max_panels=max_panels, **start)
    seen = {}
    rounds = 0
    while True:
        pairs = list(zip(edges[:-1], edges[1:]))
        new = [p for p in pairs if p not in seen]
        if new:
            lo, hi = np.array(new).T
            sums = _gk15_panels(f, lo, hi)
            seen.update(zip(new, zip(*(s.T for s in sums))))
        vals = np.stack([seen[p][0] for p in pairs], axis=1)
        errs = np.stack([seen[p][1] for p in pairs], axis=1)
        lo, hi = edges[:-1], edges[1:]
        rounds += 1
        total, total_err = np.sum(vals, axis=1), np.sum(errs, axis=1)
        tol = np.full(total.shape,
                      max(abs_tol, rel_tol * float(np.max(np.abs(total)))))
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
            chosen = chosen[np.argsort(-share[chosen], kind="stable")[:budget]]
        cuts = _cuts(lo[chosen], hi[chosen], vals.shape[0], budget, head)
        edges = np.array(sorted(set(edges) | set(cuts)))
    return total, total_err, ~active, lo.size, rounds, edges


def _fields(res):
    return (res.values, res.error_estimates, res.converged, res.panels_used,
            res.rounds, res.edges)


def _same(got, ref):
    return all(np.array_equal(x, y) for x, y in zip(got, ref))


_GUIDE_CASES = [
    (lambda x: (x ** 2)[None], 0.0, 1.0, {}),
    (lambda x: np.cos(x)[None], 0.0, 10 * math.pi,
     dict(abs_tol=1e-12, rel_tol=1e-12, phase_rate_hint=1.0)),
    (lambda x: np.cos(100 * x)[None], 0.0, 10.0, dict(max_panels=64)),
    (lambda x: np.stack([x ** 2, np.cos(100.0 * x)]), 0.0, 10.0,
     dict(abs_tol=1e-14, rel_tol=1e-14, max_panels=5,
          phase_rate_hint=100.0)),
    (lambda t: np.stack([1.0 / (1.0 + (t / 0.39) ** 2)] * 2), 0.0, 1e6,
     dict(knee=0.39)),
    (lambda t: np.stack([np.exp(-t), np.cos(t)]), 0.0, 3.0,
     dict(abs_tol=1e-12, rel_tol=1e-12, phase_rate_hint=2.0, knee=5.0)),
]


@pytest.mark.parametrize("f,a,b,opts", _GUIDE_CASES)
def test_unguided_batch_is_plain_bisection(f, a, b, opts):
    # without a guide every round splits its panels as deep as _HEAD
    # allows; a guide of the start mesh's own edges adds none, and changes
    # nothing
    opts = dict(dict(abs_tol=1e-10, rel_tol=1e-10), **opts)
    ref = _bisection_reference(f, a, b, **opts)
    assert _same(_fields(integrate_batch(f, a, b, **opts)), ref)
    start = _start_edges(a, b, **{k: v for k, v in opts.items()
                                  if k in ("phase_rate_hint", "knee",
                                           "max_panels")})
    assert _same(_fields(integrate_batch(f, a, b, guide=start, **opts)), ref)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=6),
       hint=st.sampled_from([None, 5.0, 60.0]),
       max_panels=st.sampled_from([8, 64, 4096]),
       knee=st.sampled_from([None, 1e-3]))
def test_unguided_batch_property(rows, hint, max_panels, knee):
    f = damped_waves(rows)
    opts = dict(abs_tol=1e-11, rel_tol=1e-10, phase_rate_hint=hint,
                max_panels=max_panels, knee=knee)
    assert _same(_fields(integrate_batch(f, -3.0, 2.0, **opts)),
                 _bisection_reference(f, -3.0, 2.0, **opts))


_CUTS = st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                 max_size=300)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=6),
       hint=st.sampled_from([None, 5.0, 60.0]), cuts=_CUTS,
       related=st.lists(_ROW, min_size=1, max_size=3))
def test_guided_rows_stay_within_tolerance(rows, hint, cuts, related):
    # a guide refines the start mesh: the final mesh of related rows, or
    # arbitrary extra edges; either way each row converges within its
    # tolerance of the unguided result
    f = damped_waves(rows)
    opts = dict(abs_tol=1e-11, rel_tol=1e-10, phase_rate_hint=hint)
    start = _start_edges(-3.0, 2.0, phase_rate_hint=hint)
    ref = integrate_batch(f, -3.0, 2.0, **opts)
    tol = np.maximum(1e-11, 1e-10 * np.abs(ref.values))
    for guide in (integrate_batch(damped_waves(related), -3.0, 2.0,
                                  **opts).edges,
                  np.unique(np.concatenate([start,
                                            -3.0 + 5.0 * np.array(cuts)]))):
        got = integrate_batch(f, -3.0, 2.0, guide=guide, **opts)
        assert got.converged.all() and ref.converged.all()
        assert np.all(np.abs(got.values - ref.values) <= tol)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=6),
       hint=st.sampled_from([None, 5.0, 60.0]),
       knee=st.sampled_from([None, 1e-3]),
       max_panels=st.sampled_from([8, 64, 4096]),
       related=st.lists(_ROW, min_size=1, max_size=3),
       cuts=st.lists(st.floats(-4.0, 3.0), max_size=40))
def test_guided_batch_is_bisection_from_start_and_guide(rows, hint, knee,
                                                        max_panels, related,
                                                        cuts):
    # a guide's edges inside (a, b) join the start mesh, and every round
    # cuts by nested midpoints from there: bit for bit the plain loop
    # started on start | guide.  The guide is the final mesh of related
    # rows, a superset of the start mesh, or that plus arbitrary points,
    # some outside (a, b) or on a start edge, over the budget or not
    f = damped_waves(rows)
    opts = dict(abs_tol=1e-11, rel_tol=1e-10, phase_rate_hint=hint,
                knee=knee, max_panels=max_panels)
    related = integrate_batch(damped_waves(related), -3.0, 2.0, **opts)
    start = set(_start_edges(-3.0, 2.0, phase_rate_hint=hint, knee=knee,
                             max_panels=max_panels))
    for guide in (related.edges, np.concatenate([related.edges, cuts])):
        edges = np.array(sorted(start | {g for g in guide if -3.0 < g < 2.0}))
        if edges.size - 1 > max_panels:
            with pytest.raises(ValueError, match="guide"):
                integrate_batch(f, -3.0, 2.0, guide=guide, **opts)
            continue
        got = integrate_batch(f, -3.0, 2.0, guide=guide, **opts)
        assert _same(_fields(got), _bisection_reference(
            f, -3.0, 2.0, edges=edges, **opts))
        for res in (got, related):
            assert np.all(np.diff(res.edges) > 0.0)


def _never_called(t):
    raise AssertionError("the integrand was called")


@pytest.mark.parametrize("max_panels", [1, 8, 64])
def test_guide_beyond_the_budget_is_rejected(max_panels):
    # a guide that extends the start mesh past max_panels fails by name
    # before f is called; one edge fewer fits
    guide = np.linspace(-3.0, 2.0, max_panels + 2)
    with pytest.raises(ValueError, match="guide"):
        integrate_batch(_never_called, -3.0, 2.0, max_panels=max_panels,
                        guide=guide)
    res = integrate_batch(lambda t: np.ones((1, t.size)), -3.0, 2.0,
                          max_panels=max_panels, guide=np.delete(guide, 1))
    assert res.panels_used == max_panels and res.rounds == 1


def test_guide_is_an_array_of_floats_and_one_dimensional():
    # a guide given as a list is the same guide as the array, and a guide
    # of two dimensions fails by name before f is called
    f = damped_waves([(1.0, 0.5, 9.0, 0.3), (-2.0, 1.0, 30.0, 1.0)])
    want = integrate_batch(f, -3.0, 2.0, guide=np.array([0.5]))
    got = integrate_batch(f, -3.0, 2.0, guide=[0.5])
    assert 0.5 in got.edges
    assert np.array_equal(got.edges, want.edges)
    assert np.array_equal(got.values, want.values)
    with pytest.raises(ValueError, match="guide must be 1-D"):
        integrate_batch(_never_called, -3.0, 2.0,
                        guide=np.array([[-1.0, 0.5], [1.0, 1.5]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_guide_is_rejected(bad):
    # a NaN or infinite guide edge, which no panel holds, fails by name
    # before f is called, also on an empty interval
    for a, b in ((-3.0, 2.0), (1.0, 1.0)):
        with pytest.raises(ValueError, match="guide"):
            integrate_batch(_never_called, a, b, guide=np.array([0.0, bad]))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(rows=st.lists(_ROW, min_size=17, max_size=20),
       hint=st.sampled_from([None, 5.0, 60.0]),
       max_panels=st.sampled_from([8, 64, 4096]))
def test_single_level_rounds_are_plain_bisection(rows, hint, max_panels):
    # with 17 rows or more, four pieces of one panel overfill the 64 rows x
    # panels of one integrand call, so every round bisects once: bit for
    # bit the plain bisection loop
    f = damped_waves(rows)
    opts = dict(abs_tol=1e-11, rel_tol=1e-10, phase_rate_hint=hint,
                max_panels=max_panels)
    assert _same(_fields(integrate_batch(f, -3.0, 2.0, **opts)),
                 _bisection_reference(f, -3.0, 2.0, head=0, **opts))


def _fixed_mesh_reference(f, a, b, x0):
    """The integrals of the rows of f over [a, b] by 20-point
    Gauss-Legendre on a fixed mesh: 2,000 even panels, plus edges at x0
    and at x0 -+ 2**-k for k = 0 .. 59."""
    x, w = np.polynomial.legendre.leggauss(20)
    graded = x0 + np.outer([-1.0, 1.0], 2.0 ** -np.arange(60)).ravel()
    edges = np.unique(np.concatenate([np.linspace(a, b, 2001), [x0],
                                      graded[(graded > a) & (graded < b)]]))
    lo, hi = edges[:-1], edges[1:]
    t = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * x
    y = f(t.ravel())
    return (y.reshape(y.shape[0], lo.size, 20) @ w) @ (0.5 * (hi - lo))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(rows=st.lists(_ROW, min_size=0, max_size=4),
       layer=st.tuples(st.floats(-5.0, 5.0),
                       st.floats(0.0, 1.0, exclude_max=True),
                       st.sampled_from([1e-13, 1e-12, 1e-9, 1e-4])),
       offset=st.sampled_from([0.0, 1e4]),
       hint=st.sampled_from([None, 5.0, 60.0]),
       knee=st.sampled_from([None, 1e-3]),
       max_panels=st.sampled_from([8, 64, 4096]),
       rel_tol=st.sampled_from([1e-10, 1e-13]))
@example(rows=[], layer=(1.0, 0.5, 1e-13), offset=1e4, hint=60.0, knee=None,
         max_panels=4096, rel_tol=1e-10)
@example(rows=[(1.0, 1.0, 10.0, 0.0)], layer=(-5.0, 0.5, 1e-13), offset=1e4,
         hint=None, knee=1e-3, max_panels=4096, rel_tol=1e-13)
def test_deep_split_keeps_the_mesh_and_the_tolerance(rows, layer, offset,
                                                     hint, knee, max_panels,
                                                     rel_tol):
    # a row with a step of width 1e-13 .. 1e-4 drives the split down to
    # the width guard, which near |t| = 1e4 is 2e-11 wide: the final mesh
    # still rises strictly from a to b within the budget, and every
    # converged row is within the batch tolerance of a fixed-mesh
    # reference, give or take the rounding of the abscissae (one spacing
    # of b times each row's total variation).  The step sits a third into
    # a start panel, so it stays a third into every piece cut around it
    # and some Kronrod node sees each side
    c, where, width = layer
    a, b = offset - 3.0, offset + 2.0
    opts = dict(phase_rate_hint=hint, knee=knee, max_panels=max_panels)
    start = _start_edges(a, b, **opts)
    j = int(where * (start.size - 1))
    x0 = start[j] + (start[j + 1] - start[j]) / 3.0
    waves = damped_waves(rows) if rows else None

    def f(t):
        step = c * np.tanh((t - x0) / width)[None]
        if waves is None:
            return step
        return np.concatenate([waves(t - offset), step])

    res = integrate_batch(f, a, b, abs_tol=1e-12, rel_tol=rel_tol, **opts)
    assert res.edges[0] == a and res.edges[-1] == b
    assert np.all(np.diff(res.edges) > 0.0)
    assert res.panels_used == res.edges.size - 1 <= max_panels
    variation = np.array([abs(r[0]) * (5.0 * r[2] + 2.0) for r in rows]
                         + [2.0 * abs(c)])
    tol = (max(1e-12, rel_tol * np.max(np.abs(res.values)))
           + np.spacing(b) * variation)
    ref = _fixed_mesh_reference(f, a, b, x0)
    assert np.all((np.abs(res.values - ref) <= tol)[res.converged])


def log_form(L, dL):
    """(f, levin) for integrate_batch: the rows of Re exp(L(t)) and the
    (L, L') callable of the Levin rule."""
    return (lambda t: np.exp(L(t)).real), (lambda t: (L(t), dL(t)))


def _count_levin(levin, calls):
    def counted(t):
        calls.append(t.size)
        return levin(t)
    return counted


@pytest.mark.parametrize("mu,omega", [(0.0, 2e3), (0.3, 5e3), (2.0, 3e4),
                                      (-0.2, 8e3)])
def test_levin_panels_are_exact_on_exponentials(mu, omega):
    # L' = -mu + i omega is constant, so P = 1/L' solves the collocation
    # exactly, and the batch meets the closed form
    # Re[(exp(L(b)) - exp(L(a))) / L'] to rounding on one Levin panel in
    # one round; the log form is evaluated at the start edges and at the
    # panel's 17 Chebyshev-Lobatto points
    c = complex(-mu, omega)
    f, levin = log_form(lambda t: c * np.atleast_2d(t),
                        lambda t: np.full((1, np.size(t)), c))
    calls = []
    res = integrate_batch(f, 0.0, 10.0, abs_tol=1e-13, rel_tol=1e-12,
                          levin=_count_levin(levin, calls))
    exact = ((np.exp(10.0 * c) - 1.0) / c).real
    assert res.converged[0] and res.levin
    assert (res.panels_used, res.rounds) == (1, 1)
    assert abs(res.values[0] - exact) <= 1e-12 * np.exp(max(0.0, -10 * mu))
    assert calls == [2, 17]


def test_levin_panels_meet_closed_forms_and_a_chirp_reference():
    # rows (1 + t) exp(i w t), whose integral is
    # exp(i w t) ((1 + t)/(i w) + 1/w^2), and a chirp exp(i (40 t + 2 t^2))
    # against 100-point Gauss-Legendre on 40 even pieces: every row
    # converges on a few panels, where Gauss-Kronrod alone spends a
    # 512-panel budget
    w = 1500.0

    def L(t):
        t = np.atleast_1d(t)
        return np.stack([np.log1p(t) + 1j * w * t,
                         1j * (40.0 * t + 2.0 * t * t)])

    def dL(t):
        t = np.atleast_1d(t)
        return np.stack([1.0 / (1.0 + t) + 1j * w, 1j * (40.0 + 4.0 * t)])

    f, levin = log_form(L, dL)
    res = integrate_batch(f, 0.0, 20.0, abs_tol=1e-11, rel_tol=1e-11,
                          levin=levin)
    prim = lambda t: (np.exp(1j * w * t) * ((1.0 + t) / (1j * w)
                                            + 1.0 / w ** 2)).real
    x, wts = np.polynomial.legendre.leggauss(100)
    t = (np.arange(40)[:, None] + 0.5 * (x + 1.0)) * 0.5
    chirp = 0.25 * np.sum(wts * f(t.ravel())[1].reshape(t.shape))
    assert res.converged.all() and res.levin and res.panels_used <= 4
    assert abs(res.values[0] - (prim(20.0) - prim(0.0))) <= 1e-10
    assert abs(res.values[1] - chirp) <= 1e-10
    gk = integrate_batch(f, 0.0, 20.0, abs_tol=1e-11, rel_tol=1e-11,
                         max_panels=512)
    assert gk.panels_used == 512 and not gk.converged[0] and not gk.levin


@pytest.mark.parametrize("guide", [None, np.array([0.5, 2.0])])
def test_gauss_kronrod_batches_ignore_the_levin_form(guide):
    # start panels that turn little keep the Gauss-Kronrod rounds: the same
    # values, errors, rounds and mesh with and without the log form, which
    # is evaluated once, at the start edges, whether or not the batch
    # converges on its start mesh
    f, levin = log_form(lambda t: np.stack([(-1.0 + 3j) * t, 0.5j * t]),
                        lambda t: np.stack([np.full(t.size, -1.0 + 3j),
                                            np.full(t.size, 0.5j)]))
    start = np.union1d(_start_edges(0.0, 6.0, phase_rate_hint=0.5, knee=0.1),
                       [] if guide is None else guide)
    for tol, unconverged in ((1e-12, True), (1e-3, False)):
        calls = []
        opts = dict(abs_tol=tol, rel_tol=tol, phase_rate_hint=0.5, knee=0.1,
                    guide=guide)
        got = integrate_batch(f, 0.0, 6.0, levin=_count_levin(levin, calls),
                              **opts)
        ref = integrate_batch(f, 0.0, 6.0, **opts)
        assert _same(_fields(got), _fields(ref)) and not got.levin
        assert (ref.rounds > 1) == unconverged
        assert calls == [start.size]


def damped_chirps(params):
    """(L, L') of rows c + (-s + i w) t + i k t^2, one per (c, s, w, k);
    c = -800 makes a row's F = exp(L) underflow to zero."""
    c, s, w, k = (np.array(col)[:, None] for col in zip(*params))

    def L(t):
        return c + (-s + 1j * w) * t + 1j * k * t * t

    return L, lambda t: (-s + 1j * w) + 2j * k * t


_CHIRP = st.tuples(st.sampled_from([0.0, 1.5, -800.0]), st.floats(0.0, 2.0),
                   st.floats(40.0, 400.0), st.floats(-20.0, 20.0))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rows=st.lists(_CHIRP, min_size=1, max_size=12),
       widths=st.lists(st.floats(0.05, 0.5), min_size=1, max_size=60),
       bounds=st.lists(st.integers(1, 59), max_size=5))
def test_levin_panels_depend_on_their_own_samples_only(rows, widths, bounds):
    # every panel turns (w |L'| >= 0.05 * 40 > pi/2), and its Levin value
    # and error are the same bits whether its mesh is solved whole, in
    # other blocks, a panel at a time or a row at a time; a row whose F
    # underflows at both ends has value and error zero
    L, dL = damped_chirps(rows)
    levin = lambda t: (L(t), dL(t))
    k = len(rows)
    edges = -3.0 + np.concatenate([[0.0], np.cumsum(widths)])
    lo, hi = edges[:-1], edges[1:]
    whole = _levin_panels(levin, lo, hi)
    assert np.all(np.isfinite(whole[0])) and np.all(np.isfinite(whole[1]))
    cuts = sorted({0, lo.size, *(c for c in bounds if c < lo.size)})
    blocks = [_levin_panels(levin, lo[s:e], hi[s:e])
              for s, e in zip(cuts[:-1], cuts[1:])]
    panels = [_levin_panels(levin, lo[j:j + 1], hi[j:j + 1])
              for j in range(lo.size)]
    for got in (blocks, panels):
        for i in (0, 1):
            assert np.array_equal(np.concatenate([g[i] for g in got], axis=1),
                                  whole[i])
    for i in range(k):
        row = _levin_panels(lambda t: (L(t)[i:i + 1], dL(t)[i:i + 1]), lo,
                            hi)
        assert np.array_equal(row[0], whole[0][i:i + 1])
        assert np.array_equal(row[1], whole[1][i:i + 1])
        if rows[i][0] == -800.0:
            assert not np.any(whole[0][i]) and not np.any(whole[1][i])


def test_panels_that_do_not_turn_are_left_to_gauss_kronrod():
    # a panel whose width times |L'| at both edges is at most pi/2 reads
    # NaN from the Levin rule; the others get finite sums
    levin = lambda t: (0.01j * t[None], np.full((1, t.size), 1.0j))
    lo = np.array([0.0, 1.0, 3.0])
    hi = np.array([1.0, 3.0, 10.0])
    vals, errs = _levin_panels(levin, lo, hi)
    assert np.isnan(vals[0, 0]) and np.isnan(errs[0, 0])
    assert (hi - lo)[0] <= _LEVIN_TURN < (hi - lo)[1]
    assert np.all(np.isfinite(vals[0, 1:]))
    assert np.all(np.isfinite(errs[0, 1:]))


def test_singular_systems_solve_to_nan_and_leave_the_others_alone():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
    ones = np.ones((6, 1), dtype=complex)
    alone = [np.linalg.solve(system, ones) for system in m]
    m[2] = 0.0
    q = _solve(m, ones)
    assert np.all(np.isnan(q[2]))
    for j in (0, 1, 3, 4):
        assert np.array_equal(q[j], alone[j])


def test_non_finite_levin_form_falls_back_to_gauss_kronrod():
    # a log form that is NaN or infinite on part of the interval never
    # reaches a sum: those panels are Gauss-Kronrod ones, and the batch
    # meets the Gauss-Kronrod result within its tolerance
    c = 0.5 + 300j

    def levin(t):
        slope = np.where(t > 6.0, np.nan, c)[None] * np.ones((2, 1))
        slope[1, t > 8.0] = np.inf
        return c * t[None] * np.ones((2, 1)), slope

    f = lambda t: np.exp(c * t[None] * np.ones((2, 1))).real
    opts = dict(abs_tol=1e-12, rel_tol=1e-12)
    got = integrate_batch(f, 0.0, 10.0, levin=levin, **opts)
    ref = integrate_batch(f, 0.0, 10.0, **opts)
    exact = ((np.exp(10.0 * c) - 1.0) / c).real
    assert got.converged.all() and np.all(np.isfinite(got.values))
    assert np.allclose(got.values, exact, rtol=1e-11, atol=0.0)
    assert np.allclose(ref.values, exact, rtol=1e-11, atol=0.0)


def test_non_finite_integrand_under_levin_panels_is_named():
    # a row whose log form and integrand are both non-finite fails by
    # name, as on Gauss-Kronrod panels
    c = 300j

    def L(t):
        out = c * t[None] * np.ones((2, 1))
        out[1, t > 0.7] = np.nan
        return out

    f, levin = log_form(L, lambda t: np.full((2, t.size), c))
    with pytest.raises(NonFiniteIntegrand, match="row 1"):
        integrate_batch(f, 0.0, 1.0, levin=levin)


def _sized(form, sizes):
    """``form``, appending the rows x abscissae of each call to sizes; no
    form stays None."""
    if form is None:
        return None

    def g(t):
        out = form(t)
        sizes.append(np.size(out[0] if isinstance(out, tuple) else out))
        return out
    return g


def _chunk_case(case):
    """(f, levin, lo, hi, rows) of a batch of panel sums: Gauss-Kronrod
    with the row count not known yet, Levin on panels that all turn, or
    Levin on panels of which every other one is too narrow to turn and
    falls back to Gauss-Kronrod."""
    if case == "gauss-kronrod":
        edges = np.linspace(-3.0, 2.0, 151)
        f = damped_waves([(1.0, 0.5, 9.0, 0.3), (-2.0, 1.0, 30.0, 1.0),
                          (0.5, 0.0, 55.0, -2.0)])
        return f, None, edges[:-1], edges[1:], None
    L, dL = damped_chirps([(0.0, 0.5, 300.0, 2.0), (1.5, 1.0, 120.0, -5.0),
                           (-800.0, 0.0, 60.0, 0.0), (0.0, 2.0, 40.0, 10.0)])
    widths = np.full(60, 0.05)
    if case == "levin-and-gauss-kronrod":
        widths[::2] = 0.002  # w |L'| <= 0.002 * 312 < pi/2
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    f, levin = log_form(L, dL)
    return f, levin, edges[:-1], edges[1:], 4


@pytest.mark.parametrize("case", ["gauss-kronrod", "levin",
                                  "levin-and-gauss-kronrod"])
def test_panel_sums_split_into_calls_change_no_bit(case, monkeypatch):
    # with a block of 2**9 rows x abscissae the panels take many integrand
    # calls, each within the block (after a first call of _HEAD panels
    # that tells the row count, when it is not known), and their sums are
    # the bits of the default block, where the panels take one or two
    f, levin, lo, hi, rows = _chunk_case(case)
    default = []
    want = _panel_sums(_sized(f, default), _sized(levin, default), lo, hi,
                       rows)
    assert np.all(np.isfinite(want))
    if levin is not None:
        turns = np.isfinite(_levin_panels(levin, lo, hi)).all(axis=(0, 1))
        assert turns.all() == (case == "levin")
    monkeypatch.setattr(numerics, "_BLOCK", 1 << 9)
    sizes = []
    got = _panel_sums(_sized(f, sizes), _sized(levin, sizes), lo, hi, rows)
    assert np.array_equal(got, want)
    assert len(sizes) >= 8 > len(default)
    if rows is None:
        assert sizes[0] == 3 * 15 * _HEAD
        sizes = sizes[1:]
    assert max(sizes) <= 1 << 9


@pytest.mark.parametrize("sizes,fit", [((4,), 963), ((3,), 1285),
                                       ((64, 1), 60), ((6, 40), 16),
                                       ((1, 4096), 1), ((64, 4096), 1)])
def test_per_call_fits_a_block_at_17_abscissae_per_panel(sizes, fit):
    assert per_call(*sizes) == fit
    assert fit == 1 or fit * math.prod(sizes) * 17 <= numerics._BLOCK
    assert (fit + 1) * math.prod(sizes) * 17 > numerics._BLOCK


@pytest.mark.parametrize("a,b,opts,relative", [
    (-3.0, 2.0, dict(abs_tol=1e-11, rel_tol=1e-10), True),
    (-3.0, 2.0, dict(abs_tol=1e-3, rel_tol=1e-10), False),
    (-3.0, 2.0, dict(abs_tol=1e-14, rel_tol=1e-13, max_panels=4), True),
    (1.0, 1.0, dict(abs_tol=1e-11, rel_tol=1e-10), False)])
def test_batch_records_the_tolerance_of_its_last_round(a, b, opts, relative):
    # the rows were held to max(abs_tol, rel_tol x their largest |value|),
    # whichever is larger, also when the budget ran out (max_panels=4)
    rows = [(1.0, 0.5, 1.0, 0.3), (-2.0, 1.0, 3.0, 1.0)]
    res = integrate_batch(damped_waves(rows), a, b, **opts)
    scaled = opts["rel_tol"] * float(np.max(np.abs(res.values)))
    assert res.tolerance == max(opts["abs_tol"], scaled)
    assert (scaled > opts["abs_tol"]) == relative
    assert np.array_equal(res.converged,
                          res.error_estimates <= res.tolerance)
    assert res.converged.all() == ("max_panels" not in opts)


def test_differentiate_sin():
    assert abs(differentiate(math.sin, 0.0) - 1.0) < 1e-10


def test_differentiate_even_function_at_zero():
    assert abs(differentiate(math.cosh, 0.0)) < 1e-12


def test_differentiate_non_finite():
    with pytest.raises(NonFiniteSample):
        differentiate(lambda x: float("nan") if x < 0 else x, 0.0)


def test_diffspec_validation():
    with pytest.raises(ValueError):
        DiffSpec(base_step=0.0)


def test_differentiate_amplitude_phase_vs_polyfit():
    # slope of the amplitude phase over the emission angle, checked against
    # a dense local polynomial fit
    from conftest import triangle_from_beta
    from cherenkov_wigner.amplitudes import helicity_amplitude

    theta0 = math.radians(35.0)

    def zeta(theta_k):
        geom, _ = triangle_from_beta(0.9, 1.5, 1e-5, 1e-5, theta_k)
        return helicity_amplitude(geom).phase

    slope = differentiate(zeta, theta0, DiffSpec(base_step=1e-6))
    window = np.linspace(theta0 - 5e-4, theta0 + 5e-4, 21)
    fit = np.polyfit(window - theta0, [zeta(t) for t in window], 4)
    slope_fit = fit[-2]
    assert abs(slope - slope_fit) < 1e-6 * abs(slope_fit)


def test_find_root_simple():
    assert abs(find_root(lambda x: x - 0.5, 0.0, 1.0, 1e-14) - 0.5) < 1e-12
    assert abs(find_root(math.cos, 0.0, math.pi, 1e-14) - math.pi / 2) < 1e-12


def test_find_root_no_sign_change():
    with pytest.raises(NoSignChange):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_bisection_guarantee():
    # a step function defeats the secant; the eval count stays within the
    # factor-2-shrink-per-iteration budget
    calls = {"n": 0}

    def f(x):
        calls["n"] += 1
        return 1.0 if x > 0.3 else -1.0

    tol = 1e-10
    root = find_root(f, 0.0, 1.0, tol)
    assert abs(root - 0.3) < tol
    assert calls["n"] <= 2 * (math.ceil(math.log2(1.0 / tol)) + 2)


def test_find_root_matches_singular_angle():
    # zeros of 1/t_d located by the root finder coincide with the exact
    # closed-form singular angles
    from cherenkov_wigner.kinematics import lorentz_gamma
    from cherenkov_wigner.observables import (singular_angles,
                                              spread_times_at_angle)

    beta, n, omega = 0.9, 1.5, 1e-6
    eps = lorentz_gamma(beta)
    lo, hi, width = singular_angles(beta, n, omega, eps)

    def inv_td(theta):
        return spread_times_at_angle(beta, n, omega, eps, 1e-5, theta).inv_t_d

    root = find_root(inv_td, lo - 0.4 * width, lo + 0.4 * width, 1e-12)
    assert abs(root - lo) < 1e-8
