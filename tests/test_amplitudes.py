import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import triangle_from_beta
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cherenkov_wigner import amplitudes
from cherenkov_wigner.amplitudes import (DegeneratePhase, amplitude_complex,
                                         coupling, helicity_amplitude,
                                         phase_gradient,
                                         combined_phase_gradient,
                                         summed_mod_squared, wigner_d_half,
                                         wigner_d_one)
from cherenkov_wigner.kinematics import (EmissionGeometry, Momentum3,
                                         triangle_geometry)

HALF = 0.5


def random_triangle(rng, lambda_gamma=1, branch=1):
    """Random kinematic triangle around a relativistic electron: the
    ``triangle_geometry`` arguments other than the branch, and the
    geometry (None when the triangle cannot close)."""
    args = dict(beta=rng.uniform(0.5, 0.999), n=rng.uniform(1.1, 1.9),
                omega=10 ** rng.uniform(-7, -4),
                p_perp=10 ** rng.uniform(-6, -4),
                theta_k=rng.uniform(0.1, 2.8))
    args["pp_perp"] = rng.uniform(0.3, 1.7) * args["p_perp"]
    args.update(phi_k=rng.uniform(0, 2 * math.pi), lambda_gamma=lambda_gamma)
    return args, triangle_geometry(**args, branch=branch)


def labelled(geom, lambda_e, lambda_prime, lambda_gamma):
    """The geometry with the helicities (lambda_e, lambda_prime,
    lambda_gamma)."""
    return replace(geom, lambda_e=lambda_e, lambda_prime=lambda_prime,
                   lambda_gamma=lambda_gamma)


def test_d_half_entries():
    assert wigner_d_half(HALF, HALF, 0.0) == 1.0
    assert wigner_d_half(HALF, -HALF, math.pi) == -1.0
    theta = 0.7
    assert abs(wigner_d_half(HALF, HALF, theta) - math.cos(theta / 2)) < 1e-15
    assert abs(wigner_d_half(-HALF, HALF, theta) - math.sin(theta / 2)) < 1e-15


def test_d_half_orthogonality(rng):
    for _ in range(50):
        theta = rng.uniform(0, math.pi)
        for lam in (HALF, -HALF):
            for lam2 in (HALF, -HALF):
                total = sum(wigner_d_half(s, lam, theta)
                            * wigner_d_half(s, lam2, theta)
                            for s in (HALF, -HALF))
                expected = 1.0 if lam == lam2 else 0.0
                assert abs(total - expected) < 1e-14


def test_d_one_entries():
    assert wigner_d_one(1, 1, 0.0) == 1.0
    assert abs(wigner_d_one(1, 1, math.pi)) < 1e-30
    theta = 1.1
    assert abs(wigner_d_one(1, 1, theta) - math.cos(theta / 2) ** 2) < 1e-15
    assert abs(wigner_d_one(-1, 1, theta) - math.sin(theta / 2) ** 2) < 1e-15
    assert abs(wigner_d_one(0, 1, theta) - math.sin(theta) / math.sqrt(2)) < 1e-15
    assert abs(wigner_d_one(0, -1, theta) + math.sin(theta) / math.sqrt(2)) < 1e-15
    # symmetry extension d^1_{sigma,-lambda} = d^1_{-sigma,lambda}
    assert wigner_d_one(1, -1, theta) == wigner_d_one(-1, 1, theta)
    assert wigner_d_one(-1, -1, theta) == wigner_d_one(1, 1, theta)


def test_d_one_normalization(rng):
    for _ in range(50):
        theta = rng.uniform(0, math.pi)
        for lam in (1, -1):
            total = sum(wigner_d_one(s, lam, theta) ** 2 for s in (1, 0, -1))
            assert abs(total - 1.0) < 1e-14


def test_mirror_symmetry(rng):
    # |M|^2 equal, phases opposite, on the two triangle configurations
    for _ in range(1000):
        args, geom_p = random_triangle(rng, branch=1)
        if geom_p is None:
            continue
        geom_m = triangle_geometry(**args, branch=-1)
        a_p = helicity_amplitude(geom_p)
        a_m = helicity_amplitude(geom_m)
        scale = max(a_p.mod_squared, 1e-300)
        assert abs(a_p.mod_squared - a_m.mod_squared) < 1e-12 * scale
        assert abs(a_p.phase + a_m.phase) < 1e-10


def test_phi_prime_rigid_rotation_invariance(rng):
    # rotating the whole transverse triangle about z changes nothing
    for _ in range(200):
        args, geom = random_triangle(rng)
        if geom is None:
            continue
        a0 = helicity_amplitude(geom)
        shift = rng.uniform(0, 2 * math.pi)
        rotated = triangle_geometry(**dict(args, phi_k=args["phi_k"] + shift))
        a1 = helicity_amplitude(rotated)
        assert abs(a0.mod_squared - a1.mod_squared) \
            < 1e-10 * max(a0.mod_squared, 1e-300)
        assert abs(math.remainder(a0.phase - a1.phase, 2 * math.pi)) < 1e-10


def test_forward_degenerate_amplitude():
    # all angles zero with lambda = lambda': only sigma_gamma = 0 survives
    # the selection rule and its d^1_{0 lambda}(0) factor vanishes
    p = Momentum3(0, 0, 1.0)
    k = Momentum3(0, 0, 1e-9)
    geom = EmissionGeometry.from_final_state(p, k, 1e-9 / 1.5)
    amp = helicity_amplitude(geom)
    assert amp.mod_squared < 1e-40
    assert amp.degenerate
    assert amp.phase == 0.0


def test_small_angle_hand_reduction():
    # theta = theta' = 0, theta_k finite: only the (1/2,1/2,0) term remains
    # for lambda = lambda' = +1/2, so |M|^2 = g^2 sin^2(theta_k)/2
    theta_k = 0.3
    pp = Momentum3(0, 0, 2.0)
    kmag = 1e-7
    k = Momentum3(kmag * math.sin(theta_k), 0, kmag * math.cos(theta_k))
    geom = EmissionGeometry.from_final_state(pp, k, kmag / 1.5)
    amp = helicity_amplitude(geom)
    g = coupling(geom.epsilon, geom.epsilon_prime, HALF, HALF)
    expected = g * g * math.sin(theta_k) ** 2 / 2.0
    # theta_p ~ 2.6e-8 so the reduction holds to that accuracy
    assert abs(amp.mod_squared - expected) < 1e-6 * expected


def test_mdz_expansion_matches_complex_sum(rng):
    for _ in range(500):
        _, geom = random_triangle(rng, lambda_gamma=int(rng.choice([1, -1])))
        if geom is None:
            continue
        amp = helicity_amplitude(geom)
        coherent = amplitude_complex(geom)
        assert abs(amp.mod_squared - abs(coherent) ** 2) \
            < 1e-12 * max(abs(coherent) ** 2, 1e-300)
        if not amp.degenerate:
            diff = math.remainder(amp.phase - cmath.phase(coherent),
                                  2 * math.pi)
            assert abs(diff) < 1e-10


def test_helicity_sum_parity_flip(rng):
    # sum over photon helicity invariant under flipping all helicities
    for _ in range(100):
        _, geom = random_triangle(rng)
        if geom is None:
            continue
        up = sum(helicity_amplitude(
            labelled(geom, le, lp, lg)).mod_squared
            for lg in (1, -1)
            for le, lp in [(HALF, HALF)])
        down = sum(helicity_amplitude(
            labelled(geom, -HALF, -HALF, lg)).mod_squared
            for lg in (1, -1))
        assert abs(up - down) < 1e-11 * max(up, 1e-300)


def test_summed_mod_squared():
    got = triangle_from_beta(0.9, 1.5, 1e-5, 1e-5, 0.6)
    geom, _ = got
    total = summed_mod_squared(geom)
    manual = sum(helicity_amplitude(labelled(geom, HALF, HALF, lg))
                 .mod_squared for lg in (1, -1))
    assert total == manual


def test_phase_gradient_in_plane_zero():
    # coplanar momenta (all azimuths 0): the phase vanishes identically
    # under in-plane variations, so those gradient components are zero
    p_perp, pp_perp = 2e-5, 1.2e-5
    kmag = 1e-5 * 1.5
    theta_k = math.asin((p_perp - pp_perp) / kmag)  # collinear triangle
    k = Momentum3(kmag * math.sin(theta_k), 0.0, kmag * math.cos(theta_k))
    pp = Momentum3(pp_perp, 0.0, 2.0)
    geom = EmissionGeometry.from_final_state(pp, k, 1e-5)
    grad_p, grad_k = phase_gradient(geom)
    scale = 1.0 / k.perp
    for g in (grad_p, grad_k):
        assert abs(g[0]) < 1e-6 * scale  # x: in-plane
        assert abs(g[2]) < 1e-6 * scale  # z: in-plane


def test_phase_gradient_scales_inverse_k_perp(rng):
    # |grad zeta| ~ 1/k_perp at large emission angles when the whole
    # transverse triangle scales together (k_perp ~ p_perp by the triangle
    # rules)
    beta, n, theta_k = 0.95, 1.5, 1.2
    mags = []
    for omega, p_perp in ((1e-5, 1e-4), (1e-6, 1e-5)):
        geom, _ = triangle_from_beta(beta, n, omega, p_perp, theta_k)
        grad = combined_phase_gradient(geom)
        mags.append(np.linalg.norm(grad) * geom.k.perp)
    assert abs(mags[0] - mags[1]) < 0.02 * abs(mags[0])


def _zeta(p_arr, k_arr, geom):
    """Amplitude phase at initial electron p and photon k, p' = p - k, at
    the frequency and helicities of geom."""
    p = Momentum3.from_array(p_arr)
    k = Momentum3.from_array(k_arr)
    return helicity_amplitude(replace(geom, p=p, p_prime=p - k, k=k)).phase


def _stencil_gradients(geom, step):
    """Unwrapped 5-point central differences of the phase in p (k fixed)
    and in k (p fixed); the step is in units of the smallest transverse
    momentum, the scale on which the phase varies."""
    scale = min(v.perp for v in (geom.p, geom.p_prime, geom.k))
    p0, k0 = geom.p.as_array(), geom.k.as_array()
    grads = (np.empty(3), np.empty(3))
    for moving, grad in enumerate(grads):
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = step * scale
            z = np.unwrap([_zeta(p0 + u * e * (moving == 0),
                                 k0 + u * e * (moving == 1), geom)
                           for u in (-2, -1, 0, 1, 2)])
            grad[axis] = (z[0] - 8 * z[1] + 8 * z[3] - z[4]) \
                / (12 * step * scale)
    return grads, scale


def test_phase_gradient_vs_dense_stencil():
    # independent high-order 5-point stencil oracle
    geom, _ = triangle_from_beta(0.9, 1.5, 1e-5, 3e-5, 0.8)
    (sten_p, sten_k), scale = _stencil_gradients(geom, 1e-4)
    for got, stencil in zip(phase_gradient(geom), (sten_p, sten_k)):
        for axis in range(3):
            assert abs(got[axis] - stencil[axis]) \
                < 1e-6 * max(abs(stencil[axis]), 1e-3 / scale)


_HELICITIES = [(le, lp, lg) for le in (HALF, -HALF)
               for lp in (HALF, -HALF) for lg in (1, -1)]


def wide_geometry(p_prime, k):
    """Final electron and photon from (magnitude, theta, phi) triples at
    wide polar angles, where the polar-angle partials of the phase are not
    suppressed by theta ~ p_perp / p as on a Cherenkov triangle."""
    return EmissionGeometry.from_final_state(
        Momentum3.from_spherical(*p_prime), Momentum3.from_spherical(*k), 1.0)


_ANGLE = st.floats(0.0, 2 * math.pi)


@st.composite
def emission_geometries(draw):
    if draw(st.booleans()):
        got = triangle_from_beta(
            draw(st.floats(0.5, 0.999)), draw(st.floats(1.1, 1.9)),
            10 ** draw(st.floats(-7, -4)), 10 ** draw(st.floats(-6, -4)),
            draw(st.floats(0.1, 2.8)), pp_ratio=draw(st.floats(0.3, 1.7)),
            phi_k=draw(_ANGLE), branch=draw(st.sampled_from([1, -1])))
        assume(got is not None)
        return got[0]
    geom = wide_geometry(
        (draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)), draw(_ANGLE)),
        (draw(st.floats(0.01, 1.0)), draw(st.floats(0.1, 3.0)), draw(_ANGLE)))
    assume(geom.p.perp > 1e-2 * geom.p.mag)
    return geom


@settings(derandomize=True, max_examples=150, deadline=None)
@given(geom=emission_geometries(), h=st.sampled_from(_HELICITIES))
def test_phase_gradient_matches_stencil_property(geom, h):
    # every helicity triple, the g < 0 ones included, on both triangle
    # branches and at wide angles.  Near a zero of the amplitude the phase
    # turns on a scale far below the transverse one, so the stencil's own
    # error, estimated from the step halving (the h^4 error of the finer
    # one is 1/15 of the change), joins the bound
    geom = labelled(geom, *h)
    assume(not helicity_amplitude(geom).degenerate)
    coarse, scale = _stencil_gradients(geom, 2e-4)
    fine, _ = _stencil_gradients(geom, 1e-4)
    for got, sten, sten_coarse in zip(phase_gradient(geom), fine, coarse):
        assert np.all(np.abs(got - sten)
                      <= 1e-8 / scale + np.abs(sten_coarse - sten))


def _mp_wigner_d(mp, j, m1, m, theta):
    """Wigner small-d d^j_{m1 m}(theta) from Wigner's factorial sum."""
    f = mp.factorial
    norm = mp.sqrt(f(j + m1) * f(j - m1) * f(j + m) * f(j - m))
    cos, sin = mp.cos(theta / 2), mp.sin(theta / 2)
    total = mp.mpf(0)
    for s in range(int(2 * j) + 1):
        denominators = (j + m - s, s, m1 - m + s, j - m1 - s)
        if min(denominators) < 0:
            continue
        total += ((-1) ** int(m1 - m + s) * norm
                  / mp.fprod(f(d) for d in denominators)
                  * cos ** int(2 * j + m - m1 - 2 * s)
                  * sin ** int(m1 - m + 2 * s))
    return total


def _mp_phase_sums(mp, p, k, geom):
    """S, C = sum over sigma = sigma' + sigma_gamma of
    c D^{1/2}_{sigma lambda}(p) D^{1/2}_{sigma' lambda'}(p')
    D^1_{sigma_gamma lambda_gamma}(k) (sin, cos) z with
    z = -sigma phi + sigma' phi' + sigma_gamma phi_k, at the helicities
    (lambda, lambda', lambda_gamma) of geom."""
    p_prime = [a - b for a, b in zip(p, k)]
    (theta, phi), (theta_p, phi_p), (theta_k, phi_k) = [
        (mp.atan2(mp.hypot(v[0], v[1]), v[2]), mp.atan2(v[1], v[0]))
        for v in (p, p_prime, k)]
    s_sin = s_cos = mp.mpf(0)
    for sigma in (HALF, -HALF):
        for sigma_p in (HALF, -HALF):
            sigma_g = int(sigma - sigma_p)
            c = 2 * sigma * (mp.sqrt(2) if sigma_g else -1)
            m = (c * _mp_wigner_d(mp, HALF, sigma, geom.lambda_e, theta)
                 * _mp_wigner_d(mp, HALF, sigma_p, geom.lambda_prime, theta_p)
                 * _mp_wigner_d(mp, 1, sigma_g, geom.lambda_gamma, theta_k))
            z = -sigma * phi + sigma_p * phi_p + sigma_g * phi_k
            s_sin += m * mp.sin(z)
            s_cos += m * mp.cos(z)
    return s_sin, s_cos


def _mp_phase_gradients(mp, geom):
    """d/dp (k fixed) and d/dk (p fixed) of the phase atan2(S, C) at the
    helicities of geom, taken by mpmath's numerical differentiation of the
    phase relative to the central configuration (no branch cut near the
    centre)."""
    p = [mp.mpf(x) for x in (geom.p.x, geom.p.y, geom.p.z)]
    k = [mp.mpf(x) for x in (geom.k.x, geom.k.y, geom.k.z)]
    s0, c0 = _mp_phase_sums(mp, p, k, geom)

    def relative_phase(p_arr, k_arr):
        s, c = _mp_phase_sums(mp, p_arr, k_arr, geom)
        return mp.atan2(s * c0 - c * s0, c * c0 + s * s0)

    def shifted(v, axis, u):
        return [x + u if i == axis else x for i, x in enumerate(v)]

    grad_p = [mp.diff(lambda u: relative_phase(shifted(p, a, u), k), 0)
              for a in range(3)]
    grad_k = [mp.diff(lambda u: relative_phase(p, shifted(k, a, u)), 0)
              for a in range(3)]
    return (np.array([float(x) for x in grad_p]),
            np.array([float(x) for x in grad_k]))


@pytest.mark.parametrize("geom", [
    labelled(triangle_from_beta(0.999, 1.3, 1e-6, 1e-6, 0.5)[0],
             HALF, HALF, 1),
    labelled(triangle_from_beta(0.999, 1.3, 1e-6, 1e-6, 2.0, branch=-1)[0],
             HALF, HALF, -1),
    labelled(triangle_from_beta(0.9, 1.5, 1e-5, 3e-5, 0.8)[0],
             -HALF, HALF, 1),
    labelled(triangle_from_beta(0.7, 1.6, 1e-7, 1e-6, 1.3, branch=-1)[0],
             HALF, -HALF, -1),
    labelled(triangle_from_beta(0.99, 1.35, 7.8e-6, 1e-5, 0.72)[0],
             -HALF, -HALF, 1),
    labelled(wide_geometry((1.2, 0.7, 0.4), (0.3, 1.9, 2.5)),
             HALF, -HALF, 1),
    labelled(wide_geometry((0.5, 2.4, 5.1), (0.2, 0.9, 1.3)),
             -HALF, HALF, -1),
], ids=["tri-a", "tri-b", "tri-c", "tri-d", "tri-e", "wide-a", "wide-b"])
def test_phase_gradient_matches_50_digit_reference(geom):
    # the phase re-derived in mpmath from the general Wigner d-function,
    # sharing no code with amplitudes, and differentiated at 50 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want = _mp_phase_gradients(mpmath.mp, geom)
    for got, ref in zip(phase_gradient(geom), want):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.linalg.norm(ref)


def test_phase_gradient_degenerate_raises():
    p = Momentum3(0, 0, 1.0)
    k = Momentum3(0, 0, 1e-9)
    geom = EmissionGeometry.from_final_state(p, k, 1e-9 / 1.5)
    with pytest.raises(DegeneratePhase):
        phase_gradient(geom)


@pytest.mark.parametrize("on_axis", ["p", "p'", "k"])
def test_phase_gradient_names_the_vector_without_azimuth(on_axis):
    # a vector along z has no azimuth, and the phase gradient carries its
    # 1/v_perp; the error names the vector
    tilted = Momentum3(3e-5, -2e-5, 2.0)
    axial = Momentum3(0.0, 0.0, 2.0)
    k_tilted = Momentum3(1e-5, 1e-5, 1.2e-5)
    k_axial = Momentum3(0.0, 0.0, 1.5e-5)
    if on_axis == "p":
        geom = EmissionGeometry.from_final_state(axial - k_tilted, k_tilted,
                                                 1e-5)
    elif on_axis == "p'":
        geom = EmissionGeometry.from_final_state(axial, k_tilted, 1e-5)
    else:
        geom = EmissionGeometry.from_final_state(tilted, k_axial, 1e-5)
    assert not helicity_amplitude(geom).degenerate
    with pytest.raises(DegeneratePhase, match=f"azimuth of {on_axis} "):
        phase_gradient(geom)


def test_phase_gradient_costs_one_amplitude_evaluation(monkeypatch):
    # closed form: one amplitude evaluation per gradient (central
    # differences took 25)
    calls = []
    real = amplitudes.helicity_amplitude

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(amplitudes, "helicity_amplitude", counted)
    geom, _ = triangle_from_beta(0.999, 1.3, 1e-6, 1e-6, 0.5)
    combined_phase_gradient(geom)
    assert len(calls) <= 1


def test_coupling_sign_folded_into_phase():
    # lambda = -1/2, lambda' = +1/2 makes g negative for eps' > eps - ish;
    # mod_squared must stay >= 0 and the phase absorb the sign
    got = triangle_from_beta(0.9, 1.5, 1e-5, 1e-5, 0.7)
    geom = labelled(got[0], -HALF, HALF, 1)
    amp = helicity_amplitude(geom)
    coherent = amplitude_complex(geom)
    assert amp.mod_squared >= 0.0
    assert abs(amp.mod_squared - abs(coherent) ** 2) \
        <= 1e-12 * max(abs(coherent) ** 2, 1e-300)


_ANGLES = st.floats(-4.0, 4.0, allow_nan=False)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(thetas=st.tuples(_ANGLES, _ANGLES, _ANGLES),
       phis=st.tuples(_ANGLES, _ANGLES, _ANGLES),
       lambda_e=st.sampled_from((HALF, -HALF)),
       lambda_prime=st.sampled_from((HALF, -HALF)),
       lambda_gammas=st.sampled_from(((1,), (-1,), (1, -1), (-1, 1))),
       size=st.sampled_from((None, 1, 7)))
def test_partial_terms_are_the_products_of_the_public_d_functions(
        thetas, phis, lambda_e, lambda_prime, lambda_gammas, size):
    # each d-function entry is computed once per angle and shared by the
    # terms that take it: every term keeps the bits of
    # c * d_half(sigma) * d_half(sigma') * d_one(sigma_gamma), on numbers
    # and elementwise on arrays (size None: numbers)
    if size is not None:
        shift = np.linspace(0.0, 0.3, size)
        thetas = tuple(a + shift for a in thetas)
        phis = tuple(a - shift for a in phis)
    (theta, theta_p, theta_k) = thetas
    ms, zs = amplitudes._partial_terms(thetas, phis, lambda_e, lambda_prime,
                                       lambda_gammas)
    assert len(ms) == len(lambda_gammas)
    for terms, lg in zip(ms, lambda_gammas):
        want = [c * wigner_d_half(s, lambda_e, theta)
                * wigner_d_half(sp, lambda_prime, theta_p)
                * wigner_d_one(sg, lg, theta_k)
                for c, s, sp, sg in amplitudes._TERMS]
        assert len(terms) == 4
        for got, expected in zip(terms, want):
            assert type(got) is type(expected)
            assert np.array_equal(got, expected)
    phi, phi_p, phi_k = phis
    z1, z2 = -0.5 * (phi + phi_p) + phi_k, 0.5 * (phi_p - phi)
    for got, expected in zip(zs, (z1, z2, -z1, -z2)):
        assert np.array_equal(got, expected)
