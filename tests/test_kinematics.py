import math
from dataclasses import replace

import numpy as np
import pytest

from cherenkov_wigner.kinematics import (BelowThreshold, ElectronPacket,
                                         EmissionGeometry, Momentum3,
                                         ParaxialWarning,
                                         TriangleViolation,
                                         cherenkov_angle_classical,
                                         cherenkov_angle_quantum,
                                         cutoff_frequency, energy,
                                         lorentz_gamma, mach_angle,
                                         momentum_magnitude,
                                         place_triangles, triangle_angles,
                                         triangle_geometry,
                                         triangle_rules_hold)
from cherenkov_wigner.observables import (singular_angles,
                                          spread_times_at_angle)

DEG = math.pi / 180.0


def test_energy_rest_mass():
    assert energy(Momentum3(0, 0, 0)) == 1.0


def test_energy_gamma_seven():
    # beta = 0.99 packet has gamma ~ 7
    p = momentum_magnitude(0.99)
    eps = energy(Momentum3(0, 0, p))
    assert abs(eps - lorentz_gamma(0.99)) < 1e-14
    assert abs(eps - 7.0888) < 1e-3


def test_mass_shell_identity(rng):
    for _ in range(100):
        p = Momentum3.from_array(rng.normal(size=3) * 10 ** rng.uniform(-3, 1))
        eps = energy(p)
        assert abs(eps * eps - p.mag2 - 1.0) < 1e-14 * eps * eps


def test_momentum3_angles(rng):
    for _ in range(50):
        mag = 10 ** rng.uniform(-3, 1)
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        p = Momentum3.from_spherical(mag, theta, phi)
        assert abs(p.mag - mag) < 1e-12 * mag
        assert abs(p.theta - theta) < 1e-9
        assert 0.0 <= p.phi < 2 * math.pi


def test_cherenkov_classical_threshold():
    with pytest.warns(ParaxialWarning):
        assert cherenkov_angle_classical(0.5, 2.0) == 0.0
    with pytest.raises(BelowThreshold):
        cherenkov_angle_classical(0.5, 1.5)


def test_cherenkov_quantum_recoil_free_limit():
    classical = cherenkov_angle_classical(0.9, 1.5)
    quantum = cherenkov_angle_quantum(0.9, 1.5, 0.0, lorentz_gamma(0.9))
    assert quantum == classical


def test_cherenkov_quantum_direct_evaluation():
    beta, n, omega = 0.99, 1.7, 1e-5
    eps = lorentz_gamma(beta)
    got = cherenkov_angle_quantum(beta, n, omega, eps)
    arg = 1.0 / (beta * n) + omega / (2 * eps) * (n * n - 1) / (beta * n)
    assert abs(got - math.acos(arg)) < 1e-15


def test_cherenkov_quantum_cutoff_consistency():
    beta, n = 0.99, 1.7
    eps = lorentz_gamma(beta)
    omega_cut = cutoff_frequency(beta, n, eps)
    assert abs(cherenkov_angle_quantum(beta, n, omega_cut, eps)) < 1e-10


def test_cherenkov_quantum_monotone_in_omega():
    beta, n = 0.9, 1.5
    eps = lorentz_gamma(beta)
    cut = cutoff_frequency(beta, n, eps)
    omegas = np.linspace(0.0, cut, 40)
    angles = [cherenkov_angle_quantum(beta, n, w, eps) for w in omegas]
    assert all(a >= b - 1e-15 for a, b in zip(angles[:-1], angles[1:]))
    assert angles[0] == cherenkov_angle_classical(beta, n)


def test_cutoff_frequency():
    assert cutoff_frequency(1.0 / 1.5, 1.5, 2.0) == 0.0
    beta, n = 0.99, 1.7
    eps = lorentz_gamma(beta)
    expected = 2 * eps * (beta * n - 1) / (n * n - 1)
    assert abs(cutoff_frequency(beta, n, eps) - expected) < 1e-12
    assert abs(expected - 5.124) < 2e-3
    assert cutoff_frequency(0.9, 1.0 + 1e-9, lorentz_gamma(0.9)) == 0.0


def test_mach_angle_values():
    cases = [
        (0.7, 1.5, 107.8, 0.2),
        (0.9999, 1.5, 138.2, 0.2),
        (0.99, 1.7, 143.9, 0.5),
    ]
    for beta, n, expected_deg, tol in cases:
        theta = cherenkov_angle_classical(beta, n)
        mach = mach_angle(beta, n, theta) / DEG
        assert abs(mach - expected_deg) < tol


def test_mach_angle_forward_direction():
    assert mach_angle(0.7, 1.5, 0.0) == math.pi
    assert mach_angle(0.3, 1.5, 0.0) == math.pi


_EPS = lorentz_gamma(0.9)
# each closed-form angle function with valid keyword arguments
_ANGLE_CALLS = {
    "cherenkov_angle_classical": (cherenkov_angle_classical,
                                  dict(beta=0.9, n=1.5)),
    "cherenkov_angle_quantum": (cherenkov_angle_quantum,
                                dict(beta=0.9, n=1.5, omega=1e-5,
                                     epsilon=_EPS)),
    "cutoff_frequency": (cutoff_frequency,
                         dict(beta=0.9, n=1.5, epsilon=_EPS)),
    "mach_angle": (mach_angle, dict(beta=0.9, n=1.5, theta=0.7)),
    "singular_angles": (singular_angles,
                        dict(beta=0.9, n=1.5, omega=1e-5, epsilon=_EPS)),
    "spread_times_at_angle": (spread_times_at_angle,
                              dict(beta=0.9, n=1.5, omega=1e-5, epsilon=_EPS,
                                   sigma=1e-4, theta=0.7, d_param=0.0,
                                   e_param=0.0)),
}
_BAD_ANGLE_INPUTS = [
    (func, name, bad) for func, (_, args) in _ANGLE_CALLS.items()
    for name, values in [*((arg, (math.nan, math.inf, -math.inf))
                           for arg in args),
                         ("beta", (1.0, 1.2, 1.5, -1.0)),
                         ("n", (0.0, -1.4))]
    for bad in values] + [
    # an array of angles with one NaN or +-inf among them
    ("spread_times_at_angle", "theta", np.array([0.3, bad, 0.7]))
    for bad in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("func", sorted(_ANGLE_CALLS))
def test_closed_form_angles_take_their_valid_inputs(func):
    # the base case of each rejected input below; omega = 0 (no recoil)
    # and theta = 0 (forward) stay valid where other tests use them
    call, args = _ANGLE_CALLS[func]
    call(**args)
    for name in {"cherenkov_angle_quantum": ["omega"], "mach_angle": ["theta"],
                 "spread_times_at_angle": ["theta"]}.get(func, []):
        call(**{**args, name: 0.0})


@pytest.mark.parametrize("func,name,bad", _BAD_ANGLE_INPUTS)
def test_closed_form_angles_reject_invalid_inputs_by_name(func, name, bad):
    # NaN or +-inf in any argument, |beta| >= 1 and n <= 0 raise
    # ValueError naming the argument, where they used to return finite
    # angles (cherenkov_angle_quantum with beta NaN gave 0, mach_angle
    # with n NaN pi/2, singular_angles with n NaN (0, pi, pi)) or passed
    # beta = 1.2 through
    call, args = _ANGLE_CALLS[func]
    with pytest.raises(ValueError, match=f"^{name} must"):
        call(**{**args, name: bad})


# epsilon and sigma must be positive, omega non-negative, and positive in
# spread_times_at_angle, which divides by n omega
_NON_POSITIVE_INPUTS = [
    (func, name, bad) for func, (_, args) in _ANGLE_CALLS.items()
    for name, values in (("epsilon", (0.0, -7.0)), ("sigma", (0.0, -1e-4)),
                         ("omega", (-1e-5,) if func != "spread_times_at_angle"
                          else (0.0, -1e-5)))
    if name in args for bad in values]


@pytest.mark.parametrize("func,name,bad", _NON_POSITIVE_INPUTS)
def test_closed_form_angles_reject_non_positive_inputs_by_name(func, name,
                                                               bad):
    # these used to pass: cutoff_frequency with epsilon = -7 gave 0, a
    # negative sigma the result of |sigma|, omega = 0 a NaN inv_t_d and
    # epsilon = 0 an unnamed ZeroDivisionError
    call, args = _ANGLE_CALLS[func]
    with pytest.raises(ValueError, match=f"^{name} must"):
        call(**{**args, name: bad})


def test_triangle_equilateral():
    tri = triangle_angles(1e-5, 1e-5, 1e-5)
    for ang in (tri.alpha, tri.vartheta, tri.gamma):
        assert abs(ang - math.pi / 3) < 1e-12
    assert abs(tri.area_delta - math.sqrt(3) / 4 * 1e-10) < 1e-22


def test_triangle_collinear():
    tri = triangle_angles(2e-5, 1.2e-5, 0.8e-5)
    assert abs(tri.alpha) < 1e-6
    assert abs(tri.vartheta + tri.gamma - math.pi) < 1e-6
    assert tri.area_delta < 1e-16


def test_triangle_area_expressions_agree(rng):
    # three equivalent area formulas
    # comparable leg scales; extreme ratios lose digits to the law-of-
    # cosines cancellation
    for _ in range(200):
        pp = 10 ** rng.uniform(-7, -4)
        kk = pp * 10 ** rng.uniform(-1, 1)
        lo, hi = abs(pp - kk), pp + kk
        p = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        if not triangle_rules_hold(p, pp, kk) or p == 0:
            continue
        tri = triangle_angles(p, pp, kk)
        a1 = 0.5 * p * pp * math.sin(tri.alpha)
        a2 = 0.5 * kk * pp * math.sin(tri.vartheta)
        a3 = 0.5 * p * kk * math.sin(tri.gamma)
        scale = max(a1, 1e-300)
        assert abs(a1 - a2) < 1e-12 * scale + 1e-30
        assert abs(a1 - a3) < 1e-12 * scale + 1e-30
        assert abs(tri.alpha + tri.vartheta + tri.gamma - math.pi) < 1e-10


def test_triangle_swap_legs_permutes_angles(rng):
    for _ in range(50):
        pp = 10 ** rng.uniform(-6, -4)
        kk = 10 ** rng.uniform(-6, -4)
        p = rng.uniform(abs(pp - kk) * 1.01, (pp + kk) * 0.99)
        t1 = triangle_angles(p, pp, kk)
        t2 = triangle_angles(p, kk, pp)  # swap pp_perp <-> k_perp
        assert abs(t1.alpha - t2.gamma) < 1e-10
        assert abs(t1.gamma - t2.alpha) < 1e-10
        assert abs(t1.vartheta - t2.vartheta) < 1e-10


def test_triangle_violation():
    with pytest.raises(TriangleViolation):
        triangle_angles(1.0, 0.1, 0.1)


def test_electron_packet_validation():
    with pytest.raises(ValueError):
        ElectronPacket(Momentum3(0, 0, 1.0), -1.0)
    with pytest.warns(ParaxialWarning):
        ElectronPacket(Momentum3(0, 0, 1.0), 0.5)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -1e-4])
def test_electron_packet_sigma_must_be_finite_and_positive(sigma):
    with pytest.raises(ValueError, match="sigma must be finite"):
        ElectronPacket(Momentum3(0, 0, 1.0), sigma)


@pytest.mark.parametrize("component", ["x", "y", "z"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_electron_packet_mean_momentum_must_be_finite(component, bad):
    mean = dict(x=0.0, y=0.0, z=1.0)
    mean[component] = bad
    with pytest.raises(ValueError, match="mean_momentum must be finite"):
        ElectronPacket(Momentum3(**mean), 1e-4)


@pytest.mark.parametrize("beta", [1.0, -1.0, 1.5, math.nan, math.inf])
def test_lorentz_gamma_rejects_beta_outside_unit_interval(beta):
    with pytest.raises(ValueError, match="beta"):
        lorentz_gamma(beta)
    with pytest.raises(ValueError, match="beta"):
        momentum_magnitude(beta)


def test_geometry_momentum_balance_enforced():
    p = Momentum3(0, 0, 1.0)
    k = Momentum3(1e-5, 0, 1e-5)
    with pytest.raises(ValueError):
        EmissionGeometry(p, p, k, omega=1e-5)
    geom = EmissionGeometry.from_final_state(p, k, 1e-5)
    assert (geom.p - p - k).mag < 1e-12 * geom.p.mag


def test_momentum_balance_check_is_the_array_check_on_floats(rng):
    # the residual is checked on floats, by the arithmetic of
    # np.max(np.abs((p - p' - k).as_array())) > 1e-12 max(|p|, 1), so a
    # violation within a few ulps of the bound raises exactly as before
    seen = set()
    for _ in range(400):
        p_prime = Momentum3(*(rng.normal(size=3) * 10 ** rng.uniform(-6, 1)))
        k = Momentum3(*(rng.normal(size=3) * 10 ** rng.uniform(-7, -3)))
        p = p_prime + k
        off = 1e-12 * max(p.mag, 1.0) * rng.choice(
            [0.5, 1.0 - 2e-16, 1.0, 1.0 + 2e-16, 2.0])
        axis = "xyz"[rng.integers(3)]
        p = replace(p, **{axis: getattr(p, axis) + off})
        residual = (p - p_prime - k).as_array()
        violated = np.max(np.abs(residual)) > 1e-12 * max(p.mag, 1.0)
        seen.add(bool(violated))
        if violated:
            with pytest.raises(ValueError, match="momentum balance") as err:
                EmissionGeometry(p, p_prime, k, omega=1e-5)
            assert str(residual) in str(err.value)
        else:
            EmissionGeometry(p, p_prime, k, omega=1e-5)
    assert seen == {True, False}


def test_geometry_from_balance_passes_triangle_rules(rng):
    for _ in range(100):
        pp = Momentum3(rng.normal() * 1e-5, rng.normal() * 1e-5,
                       rng.uniform(0.5, 10.0))
        k = Momentum3.from_spherical(10 ** rng.uniform(-7, -4),
                                     rng.uniform(0, math.pi),
                                     rng.uniform(0, 2 * math.pi))
        geom = EmissionGeometry.from_final_state(pp, k, k.mag / 1.5)
        assert triangle_rules_hold(geom.p.perp, pp.perp, k.perp, rtol=1e-9)
        triangle_angles(geom.p.perp, pp.perp, k.perp)  # must not raise


def test_triangle_geometry_placement():
    geom = triangle_geometry(1e-5, 0.99e-5, 0.9, omega=1e-5, n=1.5,
                             theta_k=0.4, branch=1)
    # the initial electron moves at the requested speed
    assert geom.beta == pytest.approx(0.9, rel=1e-15)
    tri = triangle_angles(geom.p.perp, geom.p_prime.perp, geom.k.perp)
    # phi = phi' + alpha and phi_k = phi' + alpha + gamma on the +1 branch
    phi_p = geom.p.phi
    phi_prime = geom.p_prime.phi
    phi_k = geom.k.phi
    wrap = lambda x: math.remainder(x, 2 * math.pi)
    assert abs(wrap(phi_p - phi_prime - tri.alpha)) < 1e-9
    assert abs(wrap(phi_k - phi_p - tri.gamma)) < 1e-9
    mirror = triangle_geometry(1e-5, 0.99e-5, 0.9, omega=1e-5, n=1.5,
                               theta_k=0.4, branch=-1)
    assert abs(wrap(mirror.p.phi - mirror.p_prime.phi + tri.alpha)) < 1e-9


def test_triangle_geometry_none_where_no_triangle():
    # legs that cannot close: |p_perp - pp_perp| = 5e-6 > k_perp = 1.5e-6
    assert triangle_geometry(1e-5, 0.5e-5, 0.9, 1e-5, 1.5, 0.1) is None
    # p_perp >= |p| = beta gamma leaves no real p_z
    p_mag = momentum_magnitude(1e-6)
    assert triangle_geometry(p_mag, p_mag, 1e-6, 1e-7, 1.5, 1.0) is None
    assert triangle_geometry(2e-5, 2e-5, 1e-5, 1e-7, 1.5, 1.0) is None
    with pytest.raises(ValueError, match="beta"):
        triangle_geometry(1e-5, 0.99e-5, 1.0, 1e-5, 1.5, 0.4)


@pytest.mark.parametrize("name,bad", [
    ("lambda_e", 0.3), ("lambda_e", 0), ("lambda_prime", 1.0),
    ("lambda_prime", -0.25), ("lambda_gamma", 0), ("lambda_gamma", 0.5),
    ("lambda_gamma", None)])
def test_emission_geometry_rejects_helicities_by_name(name, bad):
    p_prime, k = Momentum3(1e-5, 0.0, 2.0), Momentum3(0.0, 1e-5, 1e-5)
    geom = EmissionGeometry.from_final_state(p_prime, k, 1e-5)
    assert (geom.lambda_e, geom.lambda_prime, geom.lambda_gamma) == (0.5, 0.5,
                                                                     1)
    labels = dict(lambda_e=0.5, lambda_prime=-0.5, lambda_gamma=-1)
    EmissionGeometry.from_final_state(p_prime, k, 1e-5, **labels)
    with pytest.raises(ValueError, match=f"^{name} must be one of"):
        EmissionGeometry.from_final_state(p_prime, k, 1e-5,
                                          **dict(labels, **{name: bad}))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name,axis", [
    ("omega", None), ("p", "z"), ("p_prime", "x"), ("k", "y")])
def test_emission_geometry_rejects_non_finite_inputs_by_name(name, axis, bad):
    # NaN <= 0 and NaN > bound are both False, so the omega > 0 and
    # momentum-balance checks alone let a NaN through
    p_prime, k = Momentum3(1e-5, 0.0, 2.0), Momentum3(0.0, 1e-5, 1e-5)
    fields = dict(p=p_prime + k, p_prime=p_prime, k=k, omega=1e-5)
    EmissionGeometry(**fields)
    if axis is None:
        fields[name] = bad
    else:
        fields[name] = replace(fields[name], **{axis: bad})
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        EmissionGeometry(**fields)


# place_triangles arguments under which both samples close
_PLACED = dict(p_perp=1e-5, pp_perp=0.99e-5, beta=0.9, omega=1e-5,
               n=np.array([1.5, 1.4]), theta_k=np.array([0.4, 0.5]))


@pytest.mark.parametrize("changes,match", [
    ({"n": np.array([1.5, math.nan])}, "^n must be finite, got nan"),
    ({"theta_k": np.array([0.4, math.inf])},
     "^theta_k must be finite, got inf"),
    ({"theta_k": -math.inf}, "^theta_k must be finite, got -inf"),
    ({"p_perp": -1e-5}, "^p_perp must be finite and non-negative"),
    ({"pp_perp": -1e-12}, "^pp_perp must be finite and non-negative"),
    ({"omega": 0.0}, "^omega must be positive"),
    ({"omega": -1e-5}, "^omega must be positive"),
    ({"lambda_gamma": 0}, "^lambda_gamma must be one of"),
    ({"lambda_e": 0.3}, "^lambda_e must be one of")])
def test_place_triangles_names_a_bad_input_before_placing(monkeypatch,
                                                          changes, match):
    from cherenkov_wigner import kinematics
    batch, closes = place_triangles(**_PLACED)
    assert closes.tolist() == [True, True] and batch.p.shape == (3, 2)

    def placed(*args):
        raise AssertionError("a triangle was placed")

    monkeypatch.setattr(kinematics, "triangle_angles", placed)
    with pytest.raises(ValueError, match=match):
        place_triangles(**dict(_PLACED, **changes))


def test_negative_transverse_legs_do_not_close():
    # theta_k from -2 to 2 degrees at pp_perp = p_perp: the middle sample
    # is -2.2e-16 degrees, whose leg k_perp < 0 lies within the closure
    # slack, and raised TriangleViolation ("legs must be non-negative")
    theta = np.linspace(-2.0, 2.0, 99) * DEG
    assert -1e-15 < theta[49] * 180.0 / math.pi < 0.0
    batch, closes = place_triangles(1e-6, 1e-6, 0.999, 1e-6, 1.3, theta)
    assert closes.tolist() == [False] * 50 + [True] * 49
    assert batch.p.shape == (3, 49)
    assert triangle_geometry(1e-6, 1e-6, 0.999, 1e-6, 1.3, theta[49]) is None
    assert triangle_geometry(1e-6, 1e-6, 0.999, 1e-6, 1.3, -0.4) is None


def test_placed_triangles_close(rng):
    # every placed p has transverse length p_perp and its requested speed
    # beta, on both branches: the law of cosines guarantees it, so the
    # placement no longer checks each sample at run time
    for _ in range(40):
        p_perp = 10 ** rng.uniform(-9, -3)
        beta, omega = rng.uniform(0.5, 0.9999), 10 ** rng.uniform(-8, -4)
        n, theta = rng.uniform(1.0, 2.0, 200), rng.uniform(0.0, math.pi, 200)
        for branch in (1, -1):
            batch, closes = place_triangles(
                p_perp, rng.uniform(0.5, 1.5) * p_perp, beta, omega, n,
                theta, rng.uniform(0.0, 2.0 * math.pi), branch)
            assert batch.p.shape == (3, closes.sum())
            perp = np.hypot(batch.p[0], batch.p[1])
            assert np.all(np.abs(perp - p_perp) <= 1e-12 * p_perp)
            speed = np.sqrt(1.0 - 1.0 / batch.epsilon ** 2)
            assert np.allclose(speed, beta, rtol=1e-12, atol=0.0)
