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

from .kinematics import EmissionGeometry, Momentum3

__all__ = [
    "ALPHA_EM",
    "HelicityConfig",
    "AmplitudeValue",
    "DegeneratePhase",
    "wigner_d_half",
    "wigner_d_one",
    "coupling",
    "helicity_amplitude",
    "amplitude_complex",
    "summed_mod_squared",
    "phase_gradient",
    "combined_phase_gradient",
]

ALPHA_EM = 1.0 / 137.035999084

_TWO_PI = 2.0 * math.pi


class DegeneratePhase(ArithmeticError):
    """The amplitude phase or its momentum gradient is undefined: both
    phase sums vanish, or an azimuth is undefined (zero transverse
    momentum)."""


@dataclass(frozen=True)
class HelicityConfig:
    lambda_e: float = 0.5
    lambda_prime: float = 0.5
    lambda_gamma: int = 1

    def __post_init__(self):
        if self.lambda_e not in (0.5, -0.5) or self.lambda_prime not in (0.5, -0.5):
            raise ValueError("electron helicities must be +-1/2")
        if self.lambda_gamma not in (1, -1):
            raise ValueError("photon helicity must be +-1")


@dataclass(frozen=True)
class AmplitudeValue:
    """|M|^2 (coupling included) and the amplitude phase in (-pi, pi]."""

    mod_squared: float
    phase: float
    degenerate: bool = False


def wigner_d_half(sigma: float, lam: float, theta: float) -> float:
    """d^(1/2)_{sigma lambda}(theta) = delta_{sigma lambda} cos(theta/2)
    - 2 sigma delta_{sigma,-lambda} sin(theta/2)."""
    if sigma not in (0.5, -0.5) or lam not in (0.5, -0.5):
        raise ValueError("spin-1/2 projections must be +-1/2")
    if sigma == lam:
        return math.cos(0.5 * theta)
    return -2.0 * sigma * math.sin(0.5 * theta)


def wigner_d_one(sigma: int, lam: int, theta: float) -> float:
    """Spin-1 entries needed here: d^1_{11} = cos^2(theta/2),
    d^1_{-11} = sin^2(theta/2), d^1_{0 lambda} = (lambda/sqrt2) sin(theta),
    extended to lambda = -1 by d^1_{sigma,-lambda} = d^1_{-sigma,lambda}."""
    if sigma not in (1, 0, -1) or lam not in (1, -1):
        raise ValueError("sigma in {0,+-1}, lambda in {+-1}")
    if sigma == 0:
        return lam / math.sqrt(2.0) * math.sin(theta)
    if sigma == lam:
        return math.cos(0.5 * theta) ** 2
    return math.sin(0.5 * theta) ** 2


def coupling(epsilon: float, epsilon_prime: float, lambda_e: float,
             lambda_prime: float) -> float:
    """g = sqrt(4 pi alpha) (2 lam sqrt(eps-1) sqrt(eps'+1)
    + 2 lam' sqrt(eps'-1) sqrt(eps+1)); real, possibly negative."""
    return math.sqrt(4.0 * math.pi * ALPHA_EM) * (
        2.0 * lambda_e * math.sqrt(max(epsilon - 1.0, 0.0))
        * math.sqrt(epsilon_prime + 1.0)
        + 2.0 * lambda_prime * math.sqrt(max(epsilon_prime - 1.0, 0.0))
        * math.sqrt(epsilon + 1.0))


def _d_half_slope(sigma: float, lam: float, theta: float) -> float:
    """d/dtheta of ``wigner_d_half``."""
    if sigma == lam:
        return -0.5 * math.sin(0.5 * theta)
    return -sigma * math.cos(0.5 * theta)


def _d_one_slope(sigma: int, lam: int, theta: float) -> float:
    """d/dtheta of ``wigner_d_one``."""
    if sigma == 0:
        return lam / math.sqrt(2.0) * math.cos(theta)
    if sigma == lam:
        return -0.5 * math.sin(theta)
    return 0.5 * math.sin(theta)


# (prefactor, sigma, sigma', sigma_gamma) of the four partial amplitudes,
# in the order _partial_terms returns them
_TERMS = ((math.sqrt(2.0), 0.5, -0.5, 1), (-1.0, 0.5, 0.5, 0),
          (-math.sqrt(2.0), -0.5, 0.5, -1), (1.0, -0.5, -0.5, 0))

# d z_i / d(theta, phi, theta', phi', theta_k, phi_k): the azimuthal phases
# are linear in the azimuths and free of the polar angles
_Z_SLOPES = np.array([[0.0, -0.5, 0.0, -0.5, 0.0, 1.0],
                      [0.0, -0.5, 0.0, 0.5, 0.0, 0.0],
                      [0.0, 0.5, 0.0, 0.5, 0.0, -1.0],
                      [0.0, 0.5, 0.0, -0.5, 0.0, 0.0]])


def _partial_terms(theta, phi, theta_p, phi_p, theta_k, phi_k,
                   lambda_e, lambda_prime, lambda_gamma):
    """The four signed partial amplitudes and their azimuthal phases,
    ordered (1/2,-1/2,1), (1/2,1/2,0), (-1/2,1/2,-1), (-1/2,-1/2,0)."""
    ms = tuple(c * wigner_d_half(s, lambda_e, theta)
               * wigner_d_half(sp, lambda_prime, theta_p)
               * wigner_d_one(sg, lambda_gamma, theta_k)
               for c, s, sp, sg in _TERMS)
    z1 = -0.5 * (phi + phi_p) + phi_k
    z2 = 0.5 * (phi_p - phi)
    return ms, (z1, z2, -z1, -z2)


def _geometry_terms(geom: EmissionGeometry, h: HelicityConfig):
    # half-integer phases are double-valued under 2*pi relabeling of a
    # single azimuth; anchor all azimuths within pi of phi_k (the
    # triangle-point convention) so that zeta is continuous and mirror
    # configurations give exactly opposite phases
    phi_k = geom.k.phi
    phi = phi_k + math.remainder(geom.p.phi - phi_k, _TWO_PI)
    phi_p = phi_k + math.remainder(geom.p_prime.phi - phi_k, _TWO_PI)
    return _partial_terms(geom.p.theta, phi,
                          geom.p_prime.theta, phi_p,
                          geom.k.theta, phi_k,
                          h.lambda_e, h.lambda_prime, h.lambda_gamma)


def _wrap(phase: float) -> float:
    """Wrap into (-pi, pi]."""
    w = math.remainder(phase, _TWO_PI)
    return w if w != -math.pi else math.pi


def helicity_amplitude(geom: EmissionGeometry,
                       h: HelicityConfig | None = None) -> AmplitudeValue:
    """|M|^2 from the four-term coherent expansion (squares plus the six
    cosine cross terms) and the phase from the two-argument arctangent of
    the partial sine/cosine sums, with the coupling sign folded in as 0/pi.
    """
    h = h or HelicityConfig(geom.lambda_e, geom.lambda_prime, geom.lambda_gamma)
    ms, zs = _geometry_terms(geom, h)
    g = coupling(geom.epsilon, geom.epsilon_prime, h.lambda_e, h.lambda_prime)
    mod2 = sum(m * m for m in ms)
    for i in range(4):
        for j in range(i + 1, 4):
            mod2 += 2.0 * ms[i] * ms[j] * math.cos(zs[i] - zs[j])
    mod2 = max(mod2, 0.0) * g * g
    s_sin = sum(m * math.sin(z) for m, z in zip(ms, zs))
    s_cos = sum(m * math.cos(z) for m, z in zip(ms, zs))
    scale = max(sum(abs(m) for m in ms), 1e-300)
    if math.hypot(s_sin, s_cos) < 1e-15 * scale or scale <= 1e-300:
        return AmplitudeValue(mod2, 0.0, degenerate=True)
    phase = math.atan2(s_sin, s_cos)
    if g < 0:
        phase = _wrap(phase + math.pi)
    return AmplitudeValue(mod2, phase, degenerate=False)


def amplitude_complex(geom: EmissionGeometry,
                      h: HelicityConfig | None = None) -> complex:
    """Coherent sum g * sum_i M_i exp(i zeta_i); cross-check route for the
    cosine expansion used by ``helicity_amplitude``."""
    h = h or HelicityConfig(geom.lambda_e, geom.lambda_prime, geom.lambda_gamma)
    ms, zs = _geometry_terms(geom, h)
    g = coupling(geom.epsilon, geom.epsilon_prime, h.lambda_e, h.lambda_prime)
    return g * sum(m * complex(math.cos(z), math.sin(z))
                   for m, z in zip(ms, zs))


def summed_mod_squared(geom: EmissionGeometry) -> float:
    """Sum of |M|^2 over the photon helicity at the geometry's electron
    helicities."""
    return sum(helicity_amplitude(geom, HelicityConfig(
        geom.lambda_e, geom.lambda_prime, lg)).mod_squared for lg in (1, -1))


def _zeta_partials(geom: EmissionGeometry, h: HelicityConfig):
    """The amplitude phase zeta and its partials with respect to (theta,
    phi, theta', phi', theta_k, phi_k).

    zeta = atan2(S, C) with S, C = sum_i m_i (sin, cos) z_i, so
    d zeta = (C dS - S dC) / (S^2 + C^2).  The m_i are products of
    d-functions of the polar angles; the z_i are linear in the anchored
    azimuths, whose anchoring phi_k + remainder(phi - phi_k, 2 pi) has unit
    slope in phi and none in phi_k.  The coupling sign is a constant pi.
    """
    amp = helicity_amplitude(geom, h)
    if amp.degenerate:
        raise DegeneratePhase("amplitude phase undefined at this geometry")
    ms, zs = _geometry_terms(geom, h)
    theta, theta_p, theta_k = geom.p.theta, geom.p_prime.theta, geom.k.theta
    dm = np.zeros((4, 6))
    for i, (c, s, sp, sg) in enumerate(_TERMS):
        a = wigner_d_half(s, h.lambda_e, theta)
        b = wigner_d_half(sp, h.lambda_prime, theta_p)
        d = wigner_d_one(sg, h.lambda_gamma, theta_k)
        dm[i, 0] = c * _d_half_slope(s, h.lambda_e, theta) * b * d
        dm[i, 2] = c * a * _d_half_slope(sp, h.lambda_prime, theta_p) * d
        dm[i, 4] = c * a * b * _d_one_slope(sg, h.lambda_gamma, theta_k)
    m = np.array(ms)
    sin, cos = np.sin(zs), np.cos(zs)
    s_sin, s_cos = m @ sin, m @ cos
    d_sin = sin @ dm + (m * cos) @ _Z_SLOPES
    d_cos = cos @ dm - (m * sin) @ _Z_SLOPES
    return amp.phase, (s_cos * d_sin - s_sin * d_cos) / (s_sin ** 2
                                                         + s_cos ** 2)


def _angle_gradients(v: Momentum3, name: str):
    """Cartesian gradients of the polar angle and the azimuth of v:
    (cos theta cos phi, cos theta sin phi, -sin theta)/|v| and
    (-sin phi, cos phi, 0)/v_perp."""
    rho = v.perp
    if rho == 0.0:
        raise DegeneratePhase(f"azimuth of {name} undefined: zero transverse "
                              "momentum, so the phase gradient is singular")
    grad_theta = np.array([v.x * v.z / rho, v.y * v.z / rho, -rho]) / v.mag2
    grad_phi = np.array([-v.y, v.x, 0.0]) / (rho * rho)
    return grad_theta, grad_phi


def phase_gradient(geom: EmissionGeometry, h: HelicityConfig | None = None):
    """Gradients of the amplitude phase with respect to p (at fixed k) and
    k (at fixed p), the final electron p' = p - k varying accordingly.

    Closed form: the angle partials of ``_zeta_partials`` chained through
    the angle gradients of p, p' and k, with dp'/dp = 1 and dp'/dk = -1.
    Their sum is the fixed-p' joint gradient entering the arrival-time
    shift.  Raises ``DegeneratePhase`` where the phase is undefined or
    p, p' or k has no transverse momentum (its azimuth is undefined).
    """
    h = h or HelicityConfig(geom.lambda_e, geom.lambda_prime, geom.lambda_gamma)
    theta_p, phi_p = _angle_gradients(geom.p, "p")
    theta_pp, phi_pp = _angle_gradients(geom.p_prime, "p'")
    theta_k, phi_k = _angle_gradients(geom.k, "k")
    _, d = _zeta_partials(geom, h)
    final = d[2] * theta_pp + d[3] * phi_pp
    grad_p = d[0] * theta_p + d[1] * phi_p + final
    grad_k = d[4] * theta_k + d[5] * phi_k - final
    return grad_p, grad_k


def combined_phase_gradient(geom: EmissionGeometry,
                            h: HelicityConfig | None = None) -> np.ndarray:
    """(d/dp + d/dk) of the amplitude phase at fixed final electron: the
    sum of the two gradients of ``phase_gradient``."""
    grad_p, grad_k = phase_gradient(geom, h)
    return grad_p + grad_k
