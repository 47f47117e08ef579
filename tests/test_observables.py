import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import (acceptance_11_scenario, balance_scenario,
                      triangle_from_beta)
from hypothesis import given, settings
from hypothesis import strategies as st

from cherenkov_wigner import observables
from cherenkov_wigner.amplitudes import (DegeneratePhase,
                                         combined_phase_gradient)
from cherenkov_wigner.kinematics import (ElectronPacket, EmissionGeometry,
                                         Momentum3, lorentz_gamma,
                                         momentum_magnitude)
from cherenkov_wigner.medium import AnalyticMedium, ConstantMedium
from cherenkov_wigner.numerics import DiffSpec, differentiate, find_root
from cherenkov_wigner.observables import (CollinearVelocities,
                                          MachConeDegenerate,
                                          NoSingularAngles, PhaseSpaceKernel,
                                          WkbFlags, flash_stats, gouy_phase,
                                          singular_angles,
                                          singular_width_approx,
                                          spread_times_at_angle,
                                          spreading_times, wkb_flags)

DEG = math.pi / 180.0


def test_spreading_time_closed_form_at_cherenkov_angle():
    for beta, n, omega, sigma in [(0.99, 1.4, 1e-5, 1e-5),
                                  (0.99, 1.7, 1e-5, 1e-4),
                                  (0.7, 1.5, 1e-6, 1e-3)]:
        eps = lorentz_gamma(beta)
        theta = math.acos(1.0 / (beta * n))
        st = spread_times_at_angle(beta, n, omega, eps, sigma, theta)
        expected = -2.0 * eps / sigma ** 2 * n ** 2 / (n ** 2 - 1.0)
        assert abs(st.t_d - expected) < 1e-10 * abs(expected)
        assert st.t_d < 0


def test_spreading_time_collinear_reduction():
    beta, n, omega, sigma = 0.9, 1.5, 1e-5, 1e-4
    eps = lorentz_gamma(beta)
    st = spread_times_at_angle(beta, n, omega, eps, sigma, 0.0)
    expected = 2.0 / sigma ** 2 * omega * n ** 2 / (1.0 - n ** 2 * omega / eps)
    assert abs(st.t_d - expected) < 1e-10 * expected
    assert abs(st.t_d_tilde - expected) < 1e-10 * expected


def test_spreading_time_classical_limit():
    # omega/eps -> 0: t_d approaches the recoil-free form, diverging as
    # (cos(theta) - 1/(beta n))^-2
    beta, n, sigma = 0.9, 1.5, 1e-4
    eps = lorentz_gamma(beta)

    def classical(theta, omega):
        cc = 1.0 / n ** 2 + beta ** 2 - 2 * beta * math.cos(theta) / n
        return (2.0 / sigma ** 2 * omega * n ** 2 / beta ** 2 * cc
                / (math.cos(theta) - 1.0 / (beta * n)) ** 2)

    theta = math.acos(1.0 / (beta * n)) + 0.1
    for omega in (1e-6, 1e-8, 1e-10):
        st = spread_times_at_angle(beta, n, omega, eps, sigma, theta)
        assert abs(st.t_d / classical(theta, omega) - 1.0) < 300 * omega / eps
    # divergence rate toward the Cherenkov angle: t_d (cos - 1/beta n)^2
    # normalized by the velocity mismatch is constant
    omega = 1e-10
    thetas = math.acos(1.0 / (beta * n)) + np.array([0.4, 0.2, 0.1])
    vals = []
    for t in thetas:
        cc = 1.0 / n ** 2 + beta ** 2 - 2 * beta * math.cos(t) / n
        vals.append(spread_times_at_angle(beta, n, omega, eps, sigma, t).t_d
                    * (math.cos(t) - 1.0 / (beta * n)) ** 2 / cc)
    assert np.ptp(vals) < 1e-6 * abs(np.mean(vals))


def test_dispersive_branch_reduces_to_weak():
    sc = balance_scenario(sigma=1e-4)
    geom = sc.geometry()
    weak = spreading_times(geom, sc.packet, sc.medium, dispersive=False)
    disp = spreading_times(geom, sc.packet, sc.medium, dispersive=True)
    assert abs(weak.inv_t_d - disp.inv_t_d) <= 1e-12 * abs(weak.inv_t_d)
    assert abs(weak.t_d_tilde - disp.t_d_tilde) <= 1e-12 * weak.t_d_tilde
    st = spread_times_at_angle(0.9, 1.5, 1e-5, lorentz_gamma(0.9), 1e-4, 0.7,
                               d_param=0.0, e_param=0.0)
    st0 = spread_times_at_angle(0.9, 1.5, 1e-5, lorentz_gamma(0.9), 1e-4, 0.7)
    assert st.inv_t_d == st0.inv_t_d


def test_parametric_form_matches_geometry_route_dispersive():
    # spread_times_at_angle (z along p, longdouble) against spreading_times
    # (vector route, double) on a medium with D != 0 and E != 0
    med = AnalyticMedium.from_dispersion_params(1.5, 1e-5, 0.3, 0.2)
    for theta_frac in (0.3, 0.6, 1.8):
        sc = replace(balance_scenario(beta=0.9, n=1.5, sigma=1e-4,
                                      theta_frac=theta_frac), medium=med)
        geom = sc.geometry()
        vec = spreading_times(geom, sc.packet, med, dispersive=True)
        par = spread_times_at_angle(geom.beta, 1.5, 1e-5, geom.epsilon, 1e-4,
                                    sc.theta_k, d_param=0.3, e_param=0.2)
        assert vec.dispersive and par.dispersive
        for name in ("inv_t_d", "t_d_tilde", "tau_d"):
            want = getattr(vec, name)
            assert abs(getattr(par, name) - want) <= 1e-9 * abs(want), name


def test_singular_angles_width_approximation():
    for beta, n, omega in [(0.9, 1.5, 1e-6), (0.99, 1.4, 1e-5),
                           (0.8, 1.6, 1e-7)]:
        eps = lorentz_gamma(beta)
        lo, hi, width = singular_angles(beta, n, omega, eps)
        approx = singular_width_approx(beta, n, omega, eps)
        assert abs(width - approx) < 0.05 * approx
        assert lo < math.acos(1.0 / (beta * n)) < hi


def test_singular_angles_classical_merge():
    beta, n = 0.9, 1.5
    eps = lorentz_gamma(beta)
    theta_ch = math.acos(1.0 / (beta * n))
    widths = []
    for omega in (1e-6, 1e-8, 1e-10):
        lo, hi, width = singular_angles(beta, n, omega, eps)
        widths.append(width)
        assert abs(lo - theta_ch) < 2 * width
        assert abs(hi - theta_ch) < 2 * width
    assert widths[0] > widths[1] > widths[2]
    assert widths[2] < 1e-4


def test_singular_angles_xray_regime():
    # ~5.7 MeV electron near an absorption edge: width below a couple of
    # degrees
    eps = 5.7e6 / 510998.95
    beta = math.sqrt(1.0 - 1.0 / eps ** 2)
    omega = 100.0 / 510998.95
    lo, hi, width = singular_angles(beta, 1.01, omega, eps)
    assert width < 2.0 * DEG


def test_no_singular_angles_below_threshold():
    with pytest.raises(NoSingularAngles):
        singular_angles(0.5, 1.5, 1e-5, lorentz_gamma(0.5))


def test_inv_t_d_zero_count():
    sigma = 1e-4
    thetas = np.linspace(1e-3, math.pi - 1e-3, 4001)

    def count_zeros(beta, n, omega):
        eps = lorentz_gamma(beta)
        vals = np.array([spread_times_at_angle(beta, n, omega, eps, sigma,
                                               t).inv_t_d for t in thetas])
        return int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))

    assert count_zeros(0.9, 1.5, 1e-5) == 2
    assert count_zeros(0.99, 1.4, 1e-6) == 2
    assert count_zeros(0.5, 1.5, 1e-5) == 0


def test_spreading_time_extremum_at_cherenkov_angle():
    beta, n, omega, sigma = 0.9, 1.5, 1e-5, 1e-4
    eps = lorentz_gamma(beta)
    lo, hi, width = singular_angles(beta, n, omega, eps)

    def d_inv(theta):
        return differentiate(
            lambda t: spread_times_at_angle(beta, n, omega, eps, sigma,
                                            t).inv_t_d,
            theta, DiffSpec(base_step=1e-7))

    root = find_root(d_inv, lo + 0.05 * width, hi - 0.05 * width, 1e-12)
    assert abs(root - math.acos(1.0 / (beta * n))) < 1e-6


def test_gouy_phase_basics():
    st = spread_times_at_angle(0.9, 1.5, 1e-5, lorentz_gamma(0.9), 1e-4, 0.9)
    assert gouy_phase(0.0, st) == 0.0
    assert st.t_d > 0  # outside the singular interval at this angle
    assert abs(gouy_phase(1e18, st) - math.pi) < 1e-6
    ts = np.linspace(-5 * abs(st.t_d), 5 * abs(st.t_d), 41)
    assert np.all(gouy_phase(-ts, st) == -gouy_phase(ts, st))


def test_gouy_phase_negative_inside_singular_interval():
    beta, n, omega, sigma = 0.9, 1.5, 1e-5, 1e-4
    eps = lorentz_gamma(beta)
    theta_ch = math.acos(1.0 / (beta * n))
    st = spread_times_at_angle(beta, n, omega, eps, sigma, theta_ch)
    assert st.t_d < 0
    t = 0.1 * abs(st.t_d)
    assert math.atan(t * st.inv_t_d) < 0  # first partial phase negative


def kernel_for(beta=0.99, n=1.7, omega=1e-5, sigma=1e-4, theta_frac=1.0):
    sc = balance_scenario(beta=beta, n=n, omega=omega, sigma=sigma,
                          theta_frac=theta_frac)
    return PhaseSpaceKernel.from_geometry(sc.geometry(), sc.packet, sc.medium)


def test_eta_chi_pair(rng):
    kern = kernel_for()
    for _ in range(30):
        tp = rng.uniform(-1e8, 1e8)
        eta, chi = (complex(x) for x in kern._eta_chi(tp)[:2])
        assert eta.real == 1.0 / (2.0 * kern.sigma ** 2)
        assert chi.real == 0.0
        assert abs(eta.imag - 0.25 * tp * kern.a) < 1e-18 * abs(tp * kern.a)
        assert abs(chi.imag - 0.25 * tp * kern.b) < 1e-18 * abs(tp * kern.b)


def _dot(a, b):
    """a . b summed elementwise, left to right, as the kernel sums it (a
    BLAS dot may round apart)."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def test_kernel_cross_products_are_np_cross_bit_for_bit(rng):
    # the kernel spells out [u_p x u_k] and l_0's cross product; both must
    # stay the bits np.cross gives, so the closed-form outputs do not move;
    # [u_p x u_k]^2, l_0's denominator, is an elementwise sum
    for _ in range(2000):
        u_p, u_k = (rng.normal(size=(2, 3))
                    * 10.0 ** rng.uniform(-3.0, 0.0, (2, 1)))
        kern = PhaseSpaceKernel(u_p, u_k, 1.0, 1.0, 1e-5)
        cross = np.cross(u_p, u_k)
        assert np.array_equal(kern.cross.view(np.uint64),
                              cross.view(np.uint64))
        l_0 = np.cross(u_p - u_k, -cross) / _dot(cross, cross)
        assert np.array_equal(kern.l_0().view(np.uint64), l_0.view(np.uint64))


def test_kernel_and_flash_stats_agree_bit_for_bit(rng):
    # one velocity pair, one rounding: PhaseSpaceKernel's sigma_t and l_0
    # and those of flash_stats, on random triangle geometries; a kernel
    # that formed C and D with a BLAS dot differed on 45 of these 400 in
    # sigma_t and on 57 in l_0
    geometries = 0
    while geometries < 400:
        n = rng.uniform(1.35, 1.8)
        got = triangle_from_beta(0.999, n, 10.0 ** rng.uniform(-7.0, -5.0),
                                 1e-6, rng.uniform(5.0, 170.0) * DEG,
                                 pp_ratio=rng.uniform(0.5, 1.5),
                                 phi_k=rng.uniform(0.0, 2.0 * math.pi),
                                 branch=int(rng.choice([1, -1])))
        if got is None:
            continue
        geometries += 1
        geom, packet = got
        medium = ConstantMedium(n)
        kern = PhaseSpaceKernel.from_geometry(geom, packet, medium)
        stats = flash_stats(geom, packet, medium, np.zeros(3), 0.0)
        assert kern.sigma_t(0.0).hex() == stats.sigma_t.hex()
        assert np.array_equal(kern.l_0().view(np.uint64),
                              stats.l_0.view(np.uint64))


def test_exponent_vanishes_along_mach_direction():
    kern = kernel_for()
    R = (kern.u_k - kern.u_p) * 1234.5
    for t in (0.0, 1e4, 1e6):
        assert abs(complex(kern.exponent_complex(t, R))) < 1e-30


def test_exponent_at_zero_time():
    kern = kernel_for()
    rng = np.random.default_rng(5)
    for _ in range(20):
        R = rng.normal(size=3) * 1e4
        e0 = complex(kern.exponent_complex(0.0, R))
        assert e0.imag == 0.0
        a_dir, _ = kern.direction_factors(R)
        expected = -kern.sigma ** 2 * a_dir / kern.cc
        assert abs(e0.real - expected) < 1e-12 * abs(expected) + 1e-300


def test_correlation_radius_reduction_at_zero_time():
    sc = balance_scenario(n=1.7, sigma=1e-4)
    geom = sc.geometry()
    kern = PhaseSpaceKernel.from_geometry(geom, sc.packet, sc.medium)
    R = np.array([0.3, -0.7, 0.2]) * 1e3
    r_hat = R / np.linalg.norm(R)
    r_eff, im_unit = kern.correlation_scales(0.0, r_hat)
    assert im_unit == 0.0
    cross = np.cross(r_hat, kern.u_p - kern.u_k)
    expected = (kern.sigma_perp_sq(0.0) * kern.cc / float(cross @ cross))
    assert abs(r_eff ** 2 - expected) < 1e-10 * expected


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(beta=st.floats(0.6, 0.9995), n=st.floats(1.1, 1.8),
       log_omega=st.floats(-7.0, -4.0), log_sigma=st.floats(-5.0, -2.0),
       theta_frac=st.floats(0.5, 1.5), log_t=st.floats(4.0, 6.5),
       t_frac=st.floats(-1.0, 1.0),
       rows=st.lists(st.tuples(*[st.floats(0.1, 3.0)] * 3), min_size=1,
                     max_size=5),
       signs=st.lists(st.sampled_from((-1.0, 1.0)), min_size=3, max_size=3))
def test_correlation_scales_keep_the_bits_of_the_complex_exponent(
        beta, n, log_omega, log_sigma, theta_frac, log_t, t_frac, rows,
        signs):
    # R_eff = 1/sqrt(max(-Re, 0)) (inf at 0) and 1/R_im^2 = Im of the
    # complex exponent cA A + cB B, summed part by part in real arithmetic,
    # for one R (Python floats) and for (k, 3) rows (arrays)
    sc = acceptance_11_scenario(beta, n, 10 ** log_omega, 10 ** log_sigma,
                                theta_frac, 10 ** log_t)
    kern = PhaseSpaceKernel.from_geometry(sc.geometry(), sc.packet,
                                          sc.medium)
    t = t_frac * sc.t_out
    R = np.array(rows) * signs
    for r in (R, R[0]):
        expo = kern.exponent_complex(t, r)
        root = np.sqrt(np.maximum(-expo.real, 0.0))
        want = np.divide(1.0, root, out=np.full_like(root, np.inf),
                         where=root != 0.0)
        r_eff, inv_r_im_sq = kern.correlation_scales(t, r)
        assert _bits(r_eff) == _bits(want)
        assert _bits(inv_r_im_sq) == _bits(expo.imag)
        kind = float if r.ndim == 1 else np.ndarray
        assert type(r_eff) is type(inv_r_im_sq) is kind


def test_correlation_scale_branches_agree_at_zero_and_nan_factors():
    # the Python-float branch (math.sqrt, max) and the array branch give
    # the same bits, R_eff = inf where A = B = 0 and NaN on a NaN factor
    kern = kernel_for(theta_frac=1.1)
    nan = float("nan")
    for t in (0.0, 3e5, -3e5, 5e7):
        c_a, c_b = kern.exponent_coefficients(t)
        for a_dir, b_dir in ((0.0, 0.0), (nan, 1.0), (1.0, nan), (nan, nan),
                             (2.5, 0.5)):
            one = observables._exponent_scales(c_a, c_b, a_dir, b_dir)
            rows = observables._exponent_scales(
                c_a, c_b, np.array([a_dir]), np.array([b_dir]))
            assert [type(x) for x in one] == [float, float]
            assert all(_bits(x) == _bits(y[0]) for x, y in zip(one, rows))
            if a_dir == b_dir == 0.0:
                assert one[0] == math.inf
            elif math.isnan(a_dir) or math.isnan(b_dir):
                assert math.isnan(one[0]) and math.isnan(one[1])


def test_correlation_radius_growth_and_mach_ratio():
    # R_eff grows ~ t' and stays well below u_p t' away from the Mach angle,
    # approaching it nearby
    sc = balance_scenario(beta=0.99, n=1.7, omega=1e-5, sigma=1e-4)
    geom = sc.geometry()
    kern = PhaseSpaceKernel.from_geometry(geom, sc.packet, sc.medium)
    mach = math.pi - math.asin(
        math.sin(sc.theta_k) / (1.7 * math.sqrt(kern.cc)))
    phi_R = sc.phi_k + 20 * DEG

    def r_eff(theta_R, t):
        r_hat = Momentum3.from_spherical(1.0, theta_R, phi_R).as_array()
        return kern.correlation_scales(t, r_hat)[0]

    t_form = 1e6
    beta = geom.beta
    assert r_eff(mach - 30 * DEG, t_form) / (beta * t_form) < 0.05
    assert r_eff(mach, t_form) / (beta * t_form) > 0.2
    # linear growth resumes once t' exceeds the (huge) spreading time at
    # the Cherenkov angle
    kern_td = abs(kern.spread.t_d)
    t1, t2 = 30 * kern_td, 120 * kern_td
    ratio = r_eff(mach - 30 * DEG, t2) / r_eff(mach - 30 * DEG, t1)
    assert abs(ratio - t2 / t1) < 0.1 * (t2 / t1)


def test_split_route_matches_complex_route(rng):
    for beta, n, omega, sigma, frac in [(0.99, 1.4, 1e-5, 1e-5, 1.0),
                                        (0.9, 1.5, 1e-6, 1e-4, 0.8),
                                        (0.7, 1.6, 1e-5, 1e-3, 1.3)]:
        kern = kernel_for(beta, n, omega, sigma, frac)
        for _ in range(100):
            t = rng.uniform(0, 1e7)
            R = rng.normal(size=3) * 10 ** rng.uniform(2, 6)
            e_c = complex(kern.exponent_complex(t, R))
            re, im = kern.exponent_split(t, R)
            scale = abs(e_c.real) + abs(e_c.imag) + 1e-300
            assert abs(e_c.real - re) < 1e-12 * scale
            assert abs(e_c.imag - im) < 1e-12 * scale


def test_prefactor_complex_matches_g_and_gouy(rng):
    kern = kernel_for(0.99, 1.4, 1e-5, 1e-5)
    for _ in range(50):
        t = rng.uniform(0, 1e7)
        pre = complex(kern.prefactor_complex(t))
        alt = (1.0 / float(kern.big_g(t))
               * np.exp(-0.5j * float(kern.gouy(t))))
        assert abs(pre - alt) < 1e-12 * abs(pre)


def test_prefactor_root_is_principal_where_the_gouy_phase_is_negative(rng):
    # a strong E gives 1/t_d + 1/t_d~ < 0 at theta_Ch: g < 0 and
    # eta (eta C + chi D) lies below the real axis, where only the principal
    # root matches exp(-i g/2)/G of the explicit arctan split
    sc = balance_scenario(beta=0.99, n=1.4, omega=1e-5, sigma=1e-5)
    medium = AnalyticMedium.from_dispersion_params(1.4, 1e-5, 0.0, 3.0)
    kern = PhaseSpaceKernel.from_geometry(sc.geometry(), sc.packet, medium,
                                          dispersive=True)
    t = rng.uniform(0, 1e7, size=50)
    assert np.all(kern.gouy(t) < 0)
    alt = np.exp(-0.5j * kern.gouy(t)) / kern.big_g(t)
    assert np.all(np.abs(kern.prefactor_complex(t) - alt) < 1e-12 * abs(alt))


def test_coefficient_methods_share_one_eta_chi_pass(rng, monkeypatch):
    # one eta/chi pass per call of each coefficient method, each with the
    # arithmetic of the plain log-prefactor and exponent formulas on the
    # pass's eta and chi, bit for bit
    kern = kernel_for(0.99, 1.4, 1e-5, 1e-5)
    t = rng.uniform(0, 1e7, size=300)
    eta, chi = kern._eta_chi(t)[:2]
    denom = eta * kern.cc + chi * kern.dd
    log_pre, c_a, c_b = kern._log_terms(t)[:3]
    assert np.array_equal(log_pre, -0.5 * np.log(eta * (eta * kern.cc
                                                        + chi * kern.dd)))
    assert np.array_equal(c_a, -0.5 / denom)
    assert np.array_equal(c_b, -0.5 * chi / (eta * denom))
    got = kern.log_integrand_coefficients(t)[:3]
    assert all(np.array_equal(g, w) for g, w in zip(got, (log_pre, c_a, c_b)))
    assert all(np.array_equal(g, w) for g, w in
               zip(kern.exponent_coefficients(t), (c_a, c_b)))
    assert np.array_equal(kern.prefactor_complex(t), np.exp(log_pre))
    calls = []
    method = PhaseSpaceKernel._eta_chi
    monkeypatch.setattr(PhaseSpaceKernel, "_eta_chi",
                        lambda self, t: calls.append(t) or method(self, t))
    for count, coefficients in enumerate(
            (kern._log_terms, kern.log_integrand_coefficients,
             kern.exponent_coefficients, kern.prefactor_complex), 1):
        coefficients(t)
        assert len(calls) == count


@settings(derandomize=True, max_examples=60, deadline=None)
@given(beta=st.floats(0.75, 0.999), n=st.floats(1.35, 1.8),
       log_omega=st.floats(-7.0, -4.0), log_sigma=st.floats(-5.0, -2.0),
       theta_frac=st.floats(0.8, 1.25), log_t=st.floats(-3.0, 7.0),
       R=st.tuples(*[st.floats(-3.0, 3.0)] * 3))
def test_log_integrand_slope_is_the_derivative_of_its_log(
        beta, n, log_omega, log_sigma, theta_frac, log_t, R):
    # L' of the Levin rule, closed-form from eta' = i a/4 and chi' = i b/4,
    # against Richardson differences of L = log F, part by part; exp(L) is
    # F = exp(-(eta A + chi B)/(2 eta (eta C + chi D)) + i t' delta_eps)
    # / sqrt(eta (eta C + chi D)), the square-root form on the principal
    # branch, formed here from the eta/chi pass alone
    sc = balance_scenario(beta=beta, n=n, omega=10 ** log_omega,
                          sigma=10 ** log_sigma, theta_frac=theta_frac)
    kern = PhaseSpaceKernel.from_geometry(sc.geometry(), sc.packet, sc.medium)
    t = 10 ** log_t
    r_eff, _ = kern.correlation_scales(t, np.array([1.0, 0.0, 0.0]))
    a_dir, b_dir = kern.direction_factors(
        np.array(R) * min(r_eff, 1e3 / kern.sigma))

    def log_form(s):
        l0, c_a, c_b, d0, d_a, d_b = kern.log_integrand_coefficients(s)
        return (l0 + c_a * a_dir + c_b * b_dir + 1j * kern.delta_eps * s,
                d0 + d_a * a_dir + d_b * b_dir + 1j * kern.delta_eps)

    L, slope = (complex(x) for x in log_form(t))
    eta, chi, _, scaled = (complex(x) for x in kern._eta_chi(t))
    big_f = (np.exp(-(eta * a_dir + chi * b_dir) / (2.0 * scaled)
                    + 1j * kern.delta_eps * t) / np.sqrt(scaled))
    # both round the phase, |Im L| radians, to a few ulps
    assert abs(np.exp(L) - big_f) <= 1e-14 * (1.0 + abs(L)) * abs(big_f)
    for part in (np.real, np.imag):
        numeric = differentiate(lambda s: float(part(log_form(s)[0])), t,
                                DiffSpec(base_step=1e-4))
        assert abs(numeric - part(slope)) <= 1e-6 * abs(slope) + 1e-9 / t


def coplanar_cherenkov_geometry(beta=0.99, n=1.4, omega=1e-5,
                                theta_p=0.3, sigma=1e-5):
    """p off-axis and k in the same azimuthal plane, with the angle between
    them exactly the classical Cherenkov angle (the amplitude phase has a
    conical singularity at p_perp = 0, so the flash statistics are probed
    away from the axis)."""
    theta_ch = math.acos(1.0 / (beta * n))
    p = Momentum3.from_spherical(momentum_magnitude(beta), theta_p,
                                 0.5 * math.pi)
    k = Momentum3.from_spherical(n * omega, theta_p + theta_ch,
                                 0.5 * math.pi)
    geom = EmissionGeometry.from_final_state(p - k, k, omega)
    return geom, ElectronPacket(p, sigma)


def test_flash_duration_at_cherenkov_angle():
    geom, packet = coplanar_cherenkov_geometry()
    stats = flash_stats(geom, packet, ConstantMedium(1.4), np.zeros(3), 0.0)
    expected = 1.4 / (math.sqrt(2.0) * packet.sigma)
    assert abs(stats.sigma_t - expected) < 1e-10 * expected


def test_flash_duration_identity(rng):
    # sigma_t^2 [u_p x u_k]^2 / (u_p - u_k)^2 = sigma_perp^2 / 2
    sc = balance_scenario(beta=0.9, n=1.5, omega=1e-5, sigma=1e-4,
                          theta_frac=1.2)
    geom = sc.geometry()
    kern = PhaseSpaceKernel.from_geometry(geom, sc.packet, sc.medium)
    for t in (0.0, 1e4, 1e6, -3e5):
        lhs = kern.sigma_t(t) ** 2 * kern.dd / kern.cc
        rhs = float(kern.sigma_perp_sq(t)) / 2.0
        assert abs(lhs - rhs) < 1e-12 * rhs


def test_arrival_time_reduces_to_classical():
    # t_0 with the phase contribution removed equals n (r . l) at the
    # Cherenkov angle
    geom, packet = coplanar_cherenkov_geometry()
    l_hat = geom.k.as_array() / geom.k.mag
    r = 5e6 * l_hat + np.array([100.0, -50.0, 10.0])
    stats = flash_stats(geom, packet, ConstantMedium(1.4), r, 0.0)
    t_zero_phase = stats.t_0 - stats.delta_t
    expected = 1.4 * float(r @ l_hat)
    assert abs(t_zero_phase - expected) < 1e-8 * abs(expected)


def test_arrival_shift_mirror_swap():
    got_p = triangle_from_beta(0.999, 1.3, 1e-6, 1e-6, 30 * DEG, branch=1)
    got_m = triangle_from_beta(0.999, 1.3, 1e-6, 1e-6, 30 * DEG, branch=-1)
    medium = ConstantMedium(1.3)
    s_p = flash_stats(*got_p, medium, np.zeros(3), 0.0)
    s_m = flash_stats(*got_m, medium, np.zeros(3), 0.0)
    assert abs(s_p.delta_t + s_m.delta_t) < 1e-10 * abs(s_p.delta_t)
    assert s_p.delta_t * s_m.delta_t < 0


def test_arrival_shift_linear_in_dispersion_strength():
    geom, packet = triangle_from_beta(0.999, 1.5, 1e-5, 1e-5, 30 * DEG)
    ds = np.linspace(-0.3, 0.3, 9)
    shifts = []
    for d in ds:
        med = AnalyticMedium.from_dispersion_params(1.5, 1e-5, float(d))
        shifts.append(flash_stats(geom, packet, med, np.zeros(3), 0.0,
                                  dispersive=True).delta_t)
    shifts = np.array(shifts)
    coeffs = np.polyfit(ds, shifts, 1)
    resid = shifts - np.polyval(coeffs, ds)
    r_squared = 1.0 - np.sum(resid ** 2) / np.sum((shifts - shifts.mean()) ** 2)
    assert r_squared > 0.999


def test_flash_duration_ranges():
    # sigma in {1e-4, 1e-7} maps to the 10 as and 10 fs scales (the cited
    # relation is an order-of-magnitude one; factor-2 window)
    from cherenkov_wigner.units import convert_units
    for sigma, nominal, unit in ((1e-4, 10.0, "as"), (1e-7, 10.0, "fs")):
        geom, packet = coplanar_cherenkov_geometry(sigma=sigma)
        stats = flash_stats(geom, packet, ConstantMedium(1.4),
                            np.zeros(3), 0.0)
        converted = convert_units(stats.sigma_t, "t_c", unit)
        assert nominal / 2 < converted < nominal * 2


def test_collinear_flash_raises():
    beta, n, omega = 0.9, 1.5, 1e-5
    mean = Momentum3(0, 0, momentum_magnitude(beta))
    packet = ElectronPacket(mean, 1e-4)
    k = Momentum3(0, 0, n * omega)
    geom = EmissionGeometry.from_final_state(mean - k, k, omega)
    with pytest.raises(CollinearVelocities):
        flash_stats(geom, packet, ConstantMedium(n), np.zeros(3), 0.0)


def test_flash_stats_names_the_undefined_azimuth():
    # the balance geometry puts p on the z axis: its azimuth, and with it
    # the amplitude-phase gradient in Delta t, is undefined, while sigma_t
    # does not need the phase
    sc = balance_scenario(beta=0.9, n=1.5, omega=1e-5, sigma=1e-4)
    geom = sc.geometry()
    with pytest.raises(DegeneratePhase, match="azimuth of p "):
        flash_stats(geom, sc.packet, sc.medium, np.zeros(3), 0.0)
    sigma_t = PhaseSpaceKernel.from_geometry(geom, sc.packet,
                                             sc.medium).sigma_t(0.0)
    assert math.isfinite(sigma_t) and sigma_t > 0.0


def test_flash_stats_phi_is_the_amplitude_phase_gradient():
    # Phi = combined_phase_gradient(geom): the Gaussian packet adds no
    # phase, so Delta t and t_0 are l_0 . Phi and l_0 . (r + Phi) bit for bit
    geom, packet = triangle_from_beta(0.999, 1.3, 1e-6, 1e-6, 30 * DEG)
    medium = ConstantMedium(1.3)
    l0 = PhaseSpaceKernel.from_geometry(geom, packet, medium).l_0()
    phi = combined_phase_gradient(geom)
    r = np.array([3e4, -2e4, 5e3])
    stats = flash_stats(geom, packet, medium, r, 0.0)
    assert stats.delta_t == _dot(l0, phi)
    assert stats.t_0 == _dot(l0, r + phi)
    assert stats.t_0 != stats.delta_t


def test_mach_cone_degenerate_raises():
    n = 1.5
    beta = 1.0 / n  # u_p = u_k at theta = 0
    with pytest.raises(MachConeDegenerate):
        spread_times_at_angle(beta, n, 1e-5, lorentz_gamma(beta), 1e-4, 0.0)
    # any angle of an array where u_p = u_k
    with pytest.raises(MachConeDegenerate):
        spread_times_at_angle(beta, n, 1e-5, lorentz_gamma(beta), 1e-4,
                              np.array([0.5, 0.2, 0.0, 0.1]))


def test_spread_times_of_no_angles_are_empty():
    # the input check takes a valid stand-in, not the first of no angles
    st = spread_times_at_angle(0.9, 1.5, 1e-5, lorentz_gamma(0.9), 1e-4,
                               np.array([]))
    assert st.inv_t_d.shape == st.t_d_tilde.shape == st.tau_d.shape == (0,)


def _scenario_flags(sc):
    geom = sc.geometry()
    return wkb_flags(geom, PhaseSpaceKernel.from_geometry(geom, sc.packet,
                                                          sc.medium))


def test_wkb_flags():
    sc = balance_scenario(beta=0.99, n=1.4, sigma=1e-5)
    assert _scenario_flags(sc) == WkbFlags.NONE
    # tiny emission angle trips the small-angle guard
    small = balance_scenario(beta=0.99, n=1.4, sigma=1e-5, theta_frac=0.01)
    assert _scenario_flags(small) & WkbFlags.SMALL_ANGLE
    # |u_p - u_k| < 10 sigma near the turning point
    beta = 1.0 / 1.4 + 1e-6
    turning = balance_scenario(beta=beta, n=1.4, sigma=1e-2, theta_frac=1.0)
    assert _scenario_flags(turning) & WkbFlags.TURNING_POINT


def test_dispersive_tau_d_sign_convention():
    st = spread_times_at_angle(0.99, 1.4, 1e-5, lorentz_gamma(0.99), 1e-5,
                               math.acos(1.0 / (0.99 * 1.4)))
    # tau_d^2 is negative here; the signed-root convention keeps the sign
    assert st.tau_d < 0
    assert st.tau_d_sq < 0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(beta=st.floats(0.3, 0.9999), n=st.floats(1.01, 2.5),
       log_omega=st.floats(-8.0, -2.0), log_sigma=st.floats(-6.0, -2.0),
       theta=st.floats(0.0, 3.1), d_param=st.sampled_from((0.0, 0.2, -0.3)),
       wrap=st.sampled_from((float, np.float64, np.asarray)))
def test_spread_times_at_one_angle_are_those_of_a_one_angle_array(
        beta, n, log_omega, log_sigma, theta, d_param, wrap):
    # a single angle takes no mask, no any() and no np.full, with the same
    # longdouble arithmetic: each field has the bits of the array call's
    # only element, as a float
    args = (beta, n, 10 ** log_omega, lorentz_gamma(beta), 10 ** log_sigma)
    try:
        want = spread_times_at_angle(*args, np.array([theta]), d_param)
    except MachConeDegenerate:
        with pytest.raises(MachConeDegenerate):
            spread_times_at_angle(*args, wrap(theta), d_param)
        return
    got = spread_times_at_angle(*args, wrap(theta), d_param)
    for name in ("inv_t_d", "t_d_tilde", "tau_d"):
        value = getattr(got, name)
        assert type(value) is float
        assert np.array_equal(value, getattr(want, name)[0])
    assert got.dispersive == want.dispersive


@pytest.mark.parametrize("t", [0.0, 1e3, -2.5e6, 7e7, np.float64(3e5),
                               np.array(4e6), np.linspace(-1e7, 1e7, 9),
                               np.array([[0.0, 5e5], [1e6, 3e9]])])
def test_gouy_phase_and_big_g_keep_the_bits_of_their_array_forms(t):
    # a number takes numpy's scalar arctan and G is formed in place: the
    # bits of the expressions on np.asarray(t), and numbers stay numbers
    kern = kernel_for(theta_frac=1.1)
    spread = kern.spread
    ta = np.asarray(t, dtype=float)
    gouy = np.arctan(ta * spread.inv_t_d) + np.arctan(ta / spread.t_d_tilde)
    big_g = (math.sqrt(kern.cc) / (2.0 * kern.sigma ** 2)
             * ((1.0 + (ta * spread.inv_t_d) ** 2)
                * (1.0 + (ta / spread.t_d_tilde) ** 2)) ** 0.25)
    got = gouy_phase(t, spread)
    assert np.array_equal(got, gouy)
    assert np.array_equal(kern.big_g(t), big_g)
    if np.ndim(t) == 0:
        assert type(got) is float
    else:
        assert got.shape == kern.big_g(t).shape == ta.shape


def test_exponent_coefficients_form_no_prefactor(rng, monkeypatch):
    # (cA, cB) alone, with the bits of _log_terms(t)[1:3]: the exponent's
    # users never take the complex log of the prefactor
    kern = kernel_for(theta_frac=0.99)
    t = np.concatenate([[0.0], rng.uniform(0, 1e8, size=200)])
    R = rng.normal(size=(5, 3)) * 1e4
    want = kern._log_terms(t)[1:3]
    A, B = kern.direction_factors(R)
    scales = kern.correlation_scales(3e6, R)

    def forbidden(*args):
        raise AssertionError("exponent formed the prefactor")

    monkeypatch.setattr(PhaseSpaceKernel, "_log_terms", forbidden)
    monkeypatch.setattr(np, "log", forbidden)
    got = kern.exponent_coefficients(t)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(kern.exponent_complex(t, R[0]),
                          want[0] * A[0] + want[1] * B[0])
    assert all(np.array_equal(g, w) for g, w in
               zip(kern.correlation_scales(3e6, R), scales))
