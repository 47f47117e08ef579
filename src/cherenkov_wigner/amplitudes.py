"""Tree-level helicity amplitudes for photon emission by an electron in a
medium: small Wigner d-functions, the four contributing partial amplitudes,
|M|^2, and the amplitude phase with its momentum gradients.

The partial-amplitude structure is hard-enumerated: exactly the four
(sigma, sigma', sigma_gamma) combinations obeying sigma = sigma' + sigma_gamma
contribute.  Partial amplitudes are real but signed; the overall coupling
g(lambda, lambda') is folded into the phase only through its sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import EmissionGeometry, GeometryBatch

__all__ = [
    "ALPHA_EM",
    "AmplitudeValue",
    "DegeneratePhase",
    "wigner_d_half",
    "wigner_d_one",
    "coupling",
    "helicity_amplitude",
    "amplitude_complex",
    "summed_mod_squared",
    "phase_gradient",
    "phase_gradients",
    "combined_phase_gradient",
]

ALPHA_EM = 1.0 / 137.035999084

_TWO_PI = 2.0 * math.pi


class DegeneratePhase(ArithmeticError):
    """The amplitude phase or its momentum gradient is undefined: both
    phase sums vanish, or an azimuth is undefined (zero transverse
    momentum)."""


@dataclass(frozen=True)
class AmplitudeValue:
    """|M|^2 (coupling included) and the amplitude phase in (-pi, pi]."""

    mod_squared: float
    phase: float
    degenerate: bool = False


def _lib(x):
    """``np`` for an array argument, ``math`` for a number: the scalar
    amplitude keeps math's rounding, and a sweep takes one numpy pass."""
    return np if isinstance(x, np.ndarray) else math


def wigner_d_half(sigma: float, lam: float, theta):
    """d^(1/2)_{sigma lambda}(theta) = delta_{sigma lambda} cos(theta/2)
    - 2 sigma delta_{sigma,-lambda} sin(theta/2), elementwise over an
    array theta."""
    if sigma not in (0.5, -0.5) or lam not in (0.5, -0.5):
        raise ValueError("spin-1/2 projections must be +-1/2")
    if sigma == lam:
        return _lib(theta).cos(0.5 * theta)
    return -2.0 * sigma * _lib(theta).sin(0.5 * theta)


def wigner_d_one(sigma: int, lam: int, theta):
    """Spin-1 entries needed here: d^1_{11} = cos^2(theta/2),
    d^1_{-11} = sin^2(theta/2), d^1_{0 lambda} = (lambda/sqrt2) sin(theta),
    extended to lambda = -1 by d^1_{sigma,-lambda} = d^1_{-sigma,lambda};
    elementwise over an array theta."""
    if sigma not in (1, 0, -1) or lam not in (1, -1):
        raise ValueError("sigma in {0,+-1}, lambda in {+-1}")
    if sigma == 0:
        return lam / math.sqrt(2.0) * _lib(theta).sin(theta)
    if sigma == lam:
        return _lib(theta).cos(0.5 * theta) ** 2
    return _lib(theta).sin(0.5 * theta) ** 2


def coupling(epsilon: float, epsilon_prime: float, lambda_e: float,
             lambda_prime: float) -> float:
    """g = sqrt(4 pi alpha) (2 lam sqrt(eps-1) sqrt(eps'+1)
    + 2 lam' sqrt(eps'-1) sqrt(eps+1)); real, possibly negative."""
    return math.sqrt(4.0 * math.pi * ALPHA_EM) * (
        2.0 * lambda_e * math.sqrt(max(epsilon - 1.0, 0.0))
        * math.sqrt(epsilon_prime + 1.0)
        + 2.0 * lambda_prime * math.sqrt(max(epsilon_prime - 1.0, 0.0))
        * math.sqrt(epsilon + 1.0))


def _d_half_slope(sigma: float, lam: float, theta: np.ndarray) -> np.ndarray:
    """d/dtheta of ``wigner_d_half``."""
    if sigma == lam:
        return -0.5 * np.sin(0.5 * theta)
    return -sigma * np.cos(0.5 * theta)


def _d_one_slope(sigma: int, lam: int, theta: np.ndarray) -> np.ndarray:
    """d/dtheta of ``wigner_d_one``."""
    if sigma == 0:
        return lam / math.sqrt(2.0) * np.cos(theta)
    if sigma == lam:
        return -0.5 * np.sin(theta)
    return 0.5 * np.sin(theta)


# (prefactor, sigma, sigma', sigma_gamma) of the four partial amplitudes,
# in the order _partial_terms returns them
_TERMS = ((math.sqrt(2.0), 0.5, -0.5, 1), (-1.0, 0.5, 0.5, 0),
          (-math.sqrt(2.0), -0.5, 0.5, -1), (1.0, -0.5, -0.5, 0))

# each term's prefactor and the places of its three d-function entries
# among the spin projections _HALF (sigma, sigma') and _ONE (sigma_gamma)
_HALF, _ONE = (0.5, -0.5), (1, 0, -1)
_TERM_ENTRIES = tuple((c, _HALF.index(s), _HALF.index(sp), _ONE.index(sg))
                      for c, s, sp, sg in _TERMS)

# the slopes (-sigma, sigma', sigma_gamma) of each term's azimuthal phase
# z_i in the azimuths (phi, phi', phi_k); z_i is free of the polar angles
_Z_WEIGHTS = tuple((-s, sp, sg) for _, s, sp, sg in _TERMS)


def _helicity_terms(geom: EmissionGeometry, lambda_gammas):
    """(one tuple of the four signed partial amplitudes per photon helicity
    of ``lambda_gammas``, ordered (1/2,-1/2,1), (1/2,1/2,0), (-1/2,1/2,-1),
    (-1/2,-1/2,0); their azimuthal phases, which no helicity changes; the
    coupling g) at the geometry's electron helicities."""
    phi_k = geom.k.phi
    ms, zs = _partial_terms(
        (geom.p.theta, geom.p_prime.theta, geom.k.theta),
        (_anchored(geom.p.phi, phi_k), _anchored(geom.p_prime.phi, phi_k),
         phi_k), geom.lambda_e, geom.lambda_prime, lambda_gammas)
    return ms, zs, coupling(geom.epsilon, geom.epsilon_prime, geom.lambda_e,
                            geom.lambda_prime)


def _anchored(phi: float, phi_k: float) -> float:
    """The azimuth phi within pi of phi_k.  Half-integer phases are
    double-valued under 2*pi relabeling of a single azimuth; anchoring all
    azimuths within pi of phi_k (the triangle-point convention) keeps zeta
    continuous and gives mirror configurations exactly opposite phases."""
    return phi_k + math.remainder(phi - phi_k, _TWO_PI)


def _d_entries(d_half, d_one, thetas, helicities):
    """Each d-function entry that the terms take, once per angle, by
    ``d_half`` and ``d_one`` (the d-functions or their slopes) at the
    helicities (lambda, lambda', photon helicities): over _HALF at theta
    and theta', over _ONE at theta_k per photon helicity."""
    (theta, theta_p, theta_k), (lam, lam_p, lambda_gammas) = thetas, helicities
    return ([d_half(s, lam, theta) for s in _HALF],
            [d_half(s, lam_p, theta_p) for s in _HALF],
            [[d_one(s, lg, theta_k) for s in _ONE] for lg in lambda_gammas])


def _products(d_e, d_p, d_k) -> tuple:
    """c d_e[sigma] d_p[sigma'] d_k[sigma_gamma] of each term."""
    return tuple([c * d_e[i] * d_p[j] * d_k[k]
                  for c, i, j, k in _TERM_ENTRIES])


def _azimuthal_phases(phis) -> tuple:
    """Each term's z_i at the anchored azimuths (phi, phi', phi_k)."""
    phi, phi_p, phi_k = phis
    return tuple((a * phi + b * phi_p) + c * phi_k for a, b, c in _Z_WEIGHTS)


def _partial_terms(thetas, phis, lambda_e: float, lambda_prime: float,
                   lambda_gammas):
    """The partial amplitudes and azimuthal phases of ``_helicity_terms``
    from the polar angles (theta, theta', theta_k) and the anchored
    azimuths (phi, phi', phi_k), elementwise over arrays of them."""
    d_e, d_p, d_ks = _d_entries(wigner_d_half, wigner_d_one, thetas,
                                (lambda_e, lambda_prime, lambda_gammas))
    return ([_products(d_e, d_p, d_k) for d_k in d_ks],
            _azimuthal_phases(phis))


def helicity_amplitude(geom: EmissionGeometry) -> AmplitudeValue:
    """|M|^2 from the four-term coherent expansion (squares plus the six
    cosine cross terms) and the phase from the two-argument arctangent of
    the partial sine/cosine sums, with the coupling sign folded in as 0/pi,
    at the geometry's helicities.
    """
    (ms,), zs, g = _helicity_terms(geom, (geom.lambda_gamma,))
    mod2 = _mod_squared(ms, _cosines(zs), g)
    s_sin, s_cos, undefined = _phase_sums(ms, zs)
    if undefined:
        return AmplitudeValue(mod2, 0.0, degenerate=True)
    phase = math.atan2(s_sin, s_cos)
    if g < 0:  # the coupling sign as pi, wrapped into (-pi, pi]
        phase = math.remainder(phase + math.pi, _TWO_PI)
        phase = math.pi if phase == -math.pi else phase
    return AmplitudeValue(mod2, phase, degenerate=False)


# the six pairs (i, j), i < j, of the four partial amplitudes
_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


def _cosines(zs) -> list:
    """cos(z_i - z_j) of each of the ``_PAIRS``."""
    return [math.cos(zs[i] - zs[j]) for i, j in _PAIRS]


def _mod_squared(ms, cosines, g: float) -> float:
    """|M|^2 of the partial amplitudes ms: their squares plus the six
    cross terms 2 m_i m_j cos(z_i - z_j), clipped at zero, times g^2."""
    mod2 = sum(m * m for m in ms)
    for (i, j), c in zip(_PAIRS, cosines):
        mod2 += 2.0 * ms[i] * ms[j] * c
    return max(mod2, 0.0) * g * g


def _phase_sums(ms, zs):
    """S, C = sum_i m_i (sin, cos) z_i, the sums whose atan2 is the
    amplitude phase, and whether that phase is undefined: |S + iC| below
    1e-15 of sum_i |m_i|, or that sum at most 1e-300.  Elementwise over
    arrays of the terms."""
    lib = _lib(zs[0])
    s_sin = sum(m * lib.sin(z) for m, z in zip(ms, zs))
    s_cos = sum(m * lib.cos(z) for m, z in zip(ms, zs))
    total = sum(abs(m) for m in ms)
    return s_sin, s_cos, ((lib.hypot(s_sin, s_cos) < 1e-15 * total)
                          | (total <= 1e-300))


def amplitude_complex(geom: EmissionGeometry) -> complex:
    """Coherent sum g * sum_i M_i exp(i zeta_i); cross-check route for the
    cosine expansion used by ``helicity_amplitude``."""
    (ms,), zs, g = _helicity_terms(geom, (geom.lambda_gamma,))
    return g * sum(m * complex(math.cos(z), math.sin(z))
                   for m, z in zip(ms, zs))


def summed_mod_squared(geom: EmissionGeometry) -> float:
    """Sum of |M|^2 over the photon helicity at the geometry's electron
    helicities.  The azimuthal phases do not depend on the photon
    helicity, so their cosines serve both terms, and no amplitude phase is
    formed."""
    (ms_plus, ms_minus), zs, g = _helicity_terms(geom, (1, -1))
    cosines = _cosines(zs)
    return _mod_squared(ms_plus, cosines, g) + _mod_squared(ms_minus,
                                                            cosines, g)


def _zeta_partials(thetas, zs, helicities):
    """The partials of the amplitude phase zeta in (theta, phi, theta',
    phi', theta_k, phi_k), six arrays over the samples of the polar angles
    ``thetas`` and azimuthal phases ``zs`` at the ``helicities`` (lambda,
    lambda', (lambda_gamma,)), and where zeta is undefined.

    zeta = atan2(S, C) with S, C = sum_i m_i (sin, cos) z_i, so
    d zeta = (C dS - S dC) / (S^2 + C^2).  The m_i are products of
    d-functions of the polar angles, each entry and slope taken once per
    angle; the z_i are linear in the anchored azimuths, whose anchoring
    phi_k + remainder(phi - phi_k, 2 pi) has unit slope in phi and none in
    phi_k.  The coupling sign is a constant pi.  Each sum over the four
    terms is spelled out, so a sample's bits do not depend on the others.
    """
    d_e, d_p, (d_k,) = _d_entries(wigner_d_half, wigner_d_one, thetas,
                                  helicities)
    s_e, s_p, (s_k,) = _d_entries(_d_half_slope, _d_one_slope, thetas,
                                  helicities)
    ms = _products(d_e, d_p, d_k)
    # m_i varies with the polar angles, z_i with the azimuths
    polar = ((0, _products(s_e, d_p, d_k)), (2, _products(d_e, s_p, d_k)),
             (4, _products(d_e, d_p, s_k)))
    s_sin, s_cos, undefined = _phase_sums(ms, zs)
    d_sin, d_cos = np.zeros((2, 6, len(zs[0])))
    for i, (m, z, weights) in enumerate(zip(ms, zs, _Z_WEIGHTS)):
        sin, cos = np.sin(z), np.cos(z)
        for col, dms in polar:
            d_sin[col] += sin * dms[i]
            d_cos[col] += cos * dms[i]
        for col, w in zip((1, 3, 5), weights):
            if w:
                d_sin[col] += m * cos * w
                d_cos[col] -= m * sin * w
    return ((s_cos * d_sin - s_sin * d_cos) / (s_sin ** 2 + s_cos ** 2),
            undefined)


def _angle_gradients(v: np.ndarray, rho: np.ndarray):
    """Cartesian gradients of the polar angle and the azimuth of each
    column of v, of transverse length rho:
    (cos theta cos phi, cos theta sin phi, -sin theta)/|v| and
    (-sin phi, cos phi, 0)/v_perp."""
    x, y, z = v
    grad_theta = np.array([x * z / rho, y * z / rho, -rho]) / (
        x * x + y * y + z * z)
    grad_phi = np.array([-y, x, np.zeros_like(x)]) / (rho * rho)
    return grad_theta, grad_phi


def phase_gradients(batch: GeometryBatch):
    """Gradients of the amplitude phase with respect to p (at fixed k) and
    k (at fixed p) at each geometry of ``batch``, the final electron
    p' = p - k varying accordingly: (grad_p, grad_k, checks), the
    gradients as (3, N) arrays.

    Closed form: the angle partials of ``_zeta_partials`` chained through
    the angle gradients of p, p' and k, with dp'/dp = 1 and dp'/dk = -1.
    Their sum is the fixed-p' joint gradient entering the arrival-time
    shift.  ``checks`` lists (mask, ``DegeneratePhase``) pairs in the order
    a sample runs them: where p, p' or k has no transverse momentum (its
    azimuth is undefined; the error names the vector), then where the phase
    is undefined.  The gradients are not defined where a mask holds.
    """
    vectors = (batch.p, batch.p_prime, batch.k)
    rho = [np.hypot(v[0], v[1]) for v in vectors]
    thetas = [np.arctan2(r, v[2]) for r, v in zip(rho, vectors)]
    phis = [np.arctan2(v[1], v[0]) % _TWO_PI for v in vectors]
    # math.remainder has no numpy twin
    anchored = [np.array([_anchored(a, b) for a, b in
                          zip(phi.tolist(), phis[2].tolist())])
                for phi in phis[:2]]
    zs = _azimuthal_phases((*anchored, phis[2]))
    with np.errstate(divide="ignore", invalid="ignore"):
        d, undefined = _zeta_partials(thetas, zs, (
            batch.lambda_e, batch.lambda_prime, (batch.lambda_gamma,)))
        (theta_p, phi_p), (theta_pp, phi_pp), (theta_k, phi_k) = (
            _angle_gradients(v, r) for v, r in zip(vectors, rho))
    checks = [(r == 0.0, DegeneratePhase(
        f"azimuth of {name} undefined: zero transverse momentum, so the "
        "phase gradient is singular"))
        for r, name in zip(rho, ("p", "p'", "k"))]
    checks.append((undefined, DegeneratePhase(
        "amplitude phase undefined at this geometry")))
    final = d[2] * theta_pp + d[3] * phi_pp
    grad_p = d[0] * theta_p + d[1] * phi_p + final
    grad_k = d[4] * theta_k + d[5] * phi_k - final
    return grad_p, grad_k, checks


def phase_gradient(geom: EmissionGeometry):
    """(grad_p, grad_k) of ``phase_gradients`` at one geometry: raises the
    ``DegeneratePhase`` of its first check that holds, where p, p' or k has
    no transverse momentum (its azimuth is undefined) or the phase is
    undefined."""
    grad_p, grad_k, checks = phase_gradients(GeometryBatch.of(geom))
    for mask, error in checks:
        if mask[0]:
            raise error
    return grad_p[:, 0], grad_k[:, 0]


def combined_phase_gradient(geom: EmissionGeometry) -> np.ndarray:
    """(d/dp + d/dk) of the amplitude phase at fixed final electron: the
    sum of the two gradients of ``phase_gradient``."""
    grad_p, grad_k = phase_gradient(geom)
    return grad_p + grad_k
