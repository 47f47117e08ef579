import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherenkov_wigner.numerics import (DiffSpec, NoSignChange,
                                       NonFiniteIntegrand, NonFiniteSample,
                                       _gk15_panels, differentiate,
                                       find_root, integrate_batch)


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
                  <= np.maximum(1e-11, 1e-10 * np.abs(batch.values)))
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
    # from one uniform panel, bisection reaches the layer one level per
    # round; a start mesh graded down to tau/8 resolves it at once
    tau, t_end = 0.39, 1e6
    exact = tau * math.atan(t_end / tau)
    f = lambda t: 1.0 / (1.0 + (t / tau) ** 2)
    graded = integrate_batch(lambda t: f(t)[None], 0.0, t_end, knee=tau)
    uniform = integrate_batch(lambda t: f(t)[None], 0.0, t_end)
    for res in (graded, uniform):
        assert res.converged[0]
        assert abs(res.values[0] - exact) <= 1e-10 * exact
    assert graded.rounds <= 2
    assert uniform.rounds >= 10
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


def test_batch_empty_interval():
    res = integrate_batch(lambda x: np.stack([x, x]), 1.0, 1.0)
    assert res.values.tolist() == [0.0, 0.0]
    assert res.converged.all()


@pytest.mark.parametrize("hint,panels,calls", [
    (1.0, 20, 1), (2.0, 40, 1), (3.2, 64, 1), (3.5, 70, 2)])
def test_start_mesh_of_up_to_64_panels_is_one_integrand_call(hint, panels,
                                                             calls):
    # the first call tells the row count; it holds the whole start mesh
    # when that has at most 64 panels, so a quadrature that converges
    # there makes one call, and one panel otherwise
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.stack([np.cos(t), np.sin(t)])

    res = integrate_batch(f, 0.0, 10.0 * math.pi, abs_tol=1e-6, rel_tol=1e-6,
                          phase_rate_hint=hint)
    assert (res.panels_used, res.rounds) == (panels, 1)
    assert res.converged.all()
    assert sizes[0] == 15 * (panels if panels <= 64 else 1)
    assert sum(sizes) == 15 * panels
    assert len(sizes) == calls


@pytest.mark.parametrize("rows,panels", [
    (1, 60), (3, 64), (100, 60), (3, 65), (2, 200)])
def test_panel_sums_do_not_depend_on_the_first_call(rows, panels):
    # the BLAS rounding of a panel's sum depends on its place in the block
    # it is summed in; with the row count unknown, panel 0 is a block of its
    # own and the rest are blocked as with the row count known, whatever
    # the first integrand call held (for 100 rows it spans three blocks)
    rng = np.random.default_rng(rows)
    edges = np.cumsum(rng.uniform(0.1, 1.0, size=panels + 1))
    lo, hi = edges[:-1], edges[1:]
    c = rng.normal(size=(rows, 1))
    f = lambda t: c * np.cos(3.0 * t + c) * np.exp(-0.01 * t)
    vals, errs = _gk15_panels(f, lo, hi)
    head = _gk15_panels(f, lo[:1], hi[:1], rows)
    rest = _gk15_panels(f, lo[1:], hi[1:], rows)
    assert np.array_equal(vals, np.concatenate([head[0], rest[0]], axis=1))
    assert np.array_equal(errs, np.concatenate([head[1], rest[1]], axis=1))


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
