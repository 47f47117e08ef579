"""Closed-form phase-space observables of the emitted photon field:
spreading (diffraction) times and their singular angles, Gouy phases,
correlation radii, flash duration, and arrival time and its quantum
shift, in both weak-dispersion and dispersive variants.

The central object is the pair of complex coefficients

    eta(t') = 1/(2 sigma^2) + (i t'/4) a,     chi(t') = (i t'/4) b,

with a = |u_k|/|k| - 1/eps and b = 1/eps - xi |u_k|/|k|; every closed form
below (G, Gouy phase, correlation exponent) is algebra on (eta, chi) and
the velocity pair (u_p, u_k).  The weak-dispersion branch is the same
algebra with the dispersion parameters D and E set to zero.

1/t_d is stored instead of t_d: the singular angles are then ordinary
zeros instead of poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntFlag
from typing import Optional

import numpy as np

from . import amplitudes
from .kinematics import (ElectronPacket, EmissionGeometry,
                         check_speed_and_index)
from .medium import (WEAK_DISPERSION_THRESHOLD, DegenerateGroupVelocity,
                     MediumModel)

__all__ = [
    "SpreadTimes",
    "FlashStats",
    "PhaseSpaceKernel",
    "WkbFlags",
    "NoSingularAngles",
    "MachConeDegenerate",
    "CollinearVelocities",
    "dispersion_coefficients",
    "spreading_times",
    "spread_times_at_angle",
    "singular_angles",
    "singular_width_approx",
    "gouy_phase",
    "flash_stats",
    "wkb_flags",
    "count_flags",
]


class NoSingularAngles(ValueError):
    """The spreading time has no poles (Cherenkov condition not met)."""


class MachConeDegenerate(ZeroDivisionError):
    """u_p = u_k; the correlation exponent is degenerate."""


class CollinearVelocities(ZeroDivisionError):
    """[u_p x u_k] = 0; temporal localization is absent."""


class WkbFlags(IntFlag):
    NONE = 0
    SMALL_ANGLE = 1       # theta_k below 1/gamma
    TURNING_POINT = 2     # |u_p - u_k| within 10 sigma
    QUAD_NONCONVERGED = 4


def count_flags(flags) -> dict:
    """{lower-case flag name: number of entries of ``flags`` that carry it}
    for each flag that at least one entry carries."""
    flags = np.asarray(flags, dtype=int)
    counts = {}
    for f in (WkbFlags.SMALL_ANGLE, WkbFlags.TURNING_POINT,
              WkbFlags.QUAD_NONCONVERGED):
        c = int(np.count_nonzero(flags & int(f)))
        if c:
            counts[f.name.lower()] = c
    return counts


@dataclass(frozen=True)
class SpreadTimes:
    """Diffraction times in Compton-time units.

    ``inv_t_d`` is 1/t_d (zero at the singular angles); ``tau_d`` stores the
    spreading-mixing time as a signed square root, i.e. tau_d_sq =
    sign(tau_d) * tau_d^2, since only tau_d^2 (which can be negative) enters
    the correlation radius.
    """

    inv_t_d: float
    t_d_tilde: float
    tau_d: float
    dispersive: bool = False

    @property
    def t_d(self) -> float:
        return 1.0 / self.inv_t_d if self.inv_t_d != 0.0 else math.inf

    @property
    def tau_d_sq(self) -> float:
        return math.copysign(self.tau_d * self.tau_d, self.tau_d)


@dataclass(frozen=True)
class FlashStats:
    """Flash duration, arrival-probability peak, and its quantum shift,
    with the WKB validity flags of the kernel they were computed from."""

    sigma_t: float
    t_0: float
    delta_t: float
    l_0: np.ndarray
    flags: WkbFlags


def dispersion_coefficients(n: float, omega: float, epsilon: float,
                            d_param: float = 0.0, e_param: float = 0.0):
    """(a, b, |u_k|) for a medium with local dispersion strengths D, E:

        |u_k| = 1/(n (1+D)),   a = |u_k|/|k| - 1/eps,
        b = 1/eps - xi |u_k|/|k|,   xi = E + n^2 (1 + 4 D + D^2),

    reducing at D = E = 0 to a = 1/(omega n^2) - 1/eps, b = 1/eps - 1/omega.
    The arithmetic runs in the arguments' dtype (``np.longdouble`` in
    ``spread_times_at_angle``).
    """
    one_plus_d = 1.0 + d_param
    if abs(n * one_plus_d) < 1e-12:
        raise DegenerateGroupVelocity(f"n (1 + D) = {n * one_plus_d} at "
                                      f"omega={omega}")
    uk_mag = 1.0 / (n * one_plus_d)
    uk_over_k = uk_mag / (n * omega)
    xi = e_param + n * n * (1.0 + d_param * (4.0 + d_param))
    a = uk_over_k - 1.0 / epsilon
    b = 1.0 / epsilon - xi * uk_over_k
    return a, b, uk_mag


def _resolve_branch(medium: MediumModel, omega: float,
                    dispersive: Optional[bool]):
    d, e = 0.0, 0.0
    params = medium.dispersion_params(omega)
    if dispersive is None:
        thr = WEAK_DISPERSION_THRESHOLD
        dispersive = (abs(params.d_param) >= thr or abs(params.e_param) >= thr)
    if dispersive:
        d, e = params.d_param, params.e_param
    return dispersive, d, e


def _spread_from_coeffs(a: float, b: float, sigma: float, cc: float,
                        dd: float, dispersive: bool) -> SpreadTimes:
    """SpreadTimes from the (a, b) pair and the velocity invariants
    cc = (u_p - u_k)^2, dd = [u_p x u_k]^2, computed in the arguments' dtype
    and rounded to float at the end."""
    if cc < 1e-28:
        raise MachConeDegenerate("|u_p - u_k| ~ 0: WKB turning point")
    half_s2 = 0.5 * sigma * sigma
    inv_t_d = half_s2 * (a + b * dd / cc)
    t_d_tilde = (1.0 / (half_s2 * a)) if a != 0.0 else math.inf
    inv_tilde = half_s2 * a
    inv_tau_sq = half_s2 * b * (inv_t_d + inv_tilde)
    if inv_tau_sq == 0.0:
        tau_d = math.inf
    else:
        tau_sq = 1.0 / inv_tau_sq
        tau_d = math.copysign(math.sqrt(abs(tau_sq)), tau_sq)
    return SpreadTimes(float(inv_t_d), float(t_d_tilde), float(tau_d),
                       dispersive)


def spreading_times(geom: EmissionGeometry, packet: ElectronPacket,
                    medium: MediumModel,
                    dispersive: Optional[bool] = None) -> SpreadTimes:
    """Diffraction times for the geometry's velocity pair.

    The branch is selected automatically from the medium's dispersion
    strengths unless ``dispersive`` forces it; singular angles show up as
    inv_t_d = 0, never as overflow.
    """
    return PhaseSpaceKernel.from_geometry(geom, packet, medium,
                                          dispersive).spread


def spread_times_at_angle(beta: float, n: float, omega: float, epsilon: float,
                          sigma: float, theta: float, d_param: float = 0.0,
                          e_param: float = 0.0) -> SpreadTimes:
    """Parametric form with the z axis along the electron momentum and the
    photon at polar angle theta; used for angle sweeps and root searches.

    Evaluated in extended precision: near the Cherenkov angle the two terms
    of 1/t_d cancel to ~6 digits, which plain doubles cannot afford.
    Inputs are checked by ``kinematics.check_speed_and_index``, and omega
    must be positive: 1/t_d divides by n omega.
    """
    check_speed_and_index(beta, n, omega=omega, epsilon=epsilon, sigma=sigma,
                          theta=theta, d_param=d_param, e_param=e_param)
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega!r}")
    ld = np.longdouble
    beta, theta = ld(beta), ld(theta)
    a, b, uk = dispersion_coefficients(ld(n), ld(omega), ld(epsilon),
                                       ld(d_param), ld(e_param))
    cc = uk * uk + beta * beta - 2.0 * beta * uk * np.cos(theta)
    dd = (beta * uk * np.sin(theta)) ** 2
    return _spread_from_coeffs(a, b, ld(sigma), cc, dd,
                               dispersive=(d_param != 0.0 or e_param != 0.0))


def singular_angles(beta: float, n: float, omega: float, epsilon: float):
    """Exact poles of the spreading time: the two roots of the quadratic in
    cos(theta) where aC + bD = 0.  Returns (theta_lo, theta_hi, width); the
    poles exist only under the Cherenkov condition beta*n > 1.  Inputs are
    checked by ``kinematics.check_speed_and_index``."""
    check_speed_and_index(beta, n, omega=omega, epsilon=epsilon)
    if beta * n <= 1.0:
        raise NoSingularAngles(f"beta*n = {beta * n} <= 1: spreading time "
                               "finite at all angles")
    r = omega / epsilon
    lead = 1.0 - n * n * r
    disc = lead * lead - (1.0 - r) * (
        1.0 - n * n * r * (1.0 - beta * beta + (n * beta) ** 2))
    if disc < 0.0:
        raise NoSingularAngles("no real singular angles at this frequency")
    base = 1.0 / (beta * n * (1.0 - r))
    cos_lo = min(1.0, base * (lead + math.sqrt(disc)))
    cos_hi = max(-1.0, base * (lead - math.sqrt(disc)))
    theta_lo = math.acos(cos_lo)
    theta_hi = math.acos(cos_hi)
    return theta_lo, theta_hi, theta_hi - theta_lo


def singular_width_approx(beta: float, n: float, omega: float,
                          epsilon: float) -> float:
    """Leading-order angular width between the singular points,
    2 sqrt(omega/eps) sqrt(n^2 - 1)."""
    return 2.0 * math.sqrt(omega / epsilon) * math.sqrt(n * n - 1.0)


def gouy_phase(t_prime, spread: SpreadTimes):
    """g(t') = arctan(t'/t_d) + arctan(t'/t_d~); odd and continuous in t',
    with a negative first partial phase wherever t_d < 0."""
    t = np.asarray(t_prime, dtype=float)
    g = np.arctan(t * spread.inv_t_d) + np.arctan(t / spread.t_d_tilde)
    return float(g) if np.ndim(t_prime) == 0 else g


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b of two 3-vectors, spelled out: np.cross costs over ten times
    as much on one pair, and the kernel is built once per point."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0])


class PhaseSpaceKernel:
    """Velocity pair, (a, b) coefficients and packet width bundled with the
    complex eta/chi algebra of the master integrand.

    The exponent is linear in the two direction scalars
    A = |R x (u_p - u_k)|^2 and B = (R . [u_p x u_k])^2, so the
    t'-dependent coefficient arrays can be shared across map nodes.
    """

    def __init__(self, u_p: np.ndarray, u_k: np.ndarray, a: float, b: float,
                 sigma: float, delta_eps: float = 0.0, dispersive: bool = False):
        self.u_p = np.asarray(u_p, dtype=float)
        self.u_k = np.asarray(u_k, dtype=float)
        self.a = a
        self.b = b
        self.sigma = sigma
        self.delta_eps = delta_eps
        self.diff = self.u_p - self.u_k
        self.cross = _cross(self.u_p, self.u_k)
        self.cc = float(self.diff @ self.diff)
        self.dd = float(self.cross @ self.cross)
        self.spread = _spread_from_coeffs(a, b, sigma, self.cc, self.dd,
                                          dispersive)

    @classmethod
    def from_geometry(cls, geom: EmissionGeometry, packet: ElectronPacket,
                      medium: MediumModel,
                      dispersive: Optional[bool] = None) -> "PhaseSpaceKernel":
        dispersive, d, e = _resolve_branch(medium, geom.omega, dispersive)
        n = medium.index(geom.omega)[0]
        a, b, uk_mag = dispersion_coefficients(n, geom.omega, geom.epsilon,
                                               d, e)
        u_p = geom.p.as_array() / geom.epsilon
        u_k = uk_mag * (geom.k.as_array() / geom.k.mag)
        delta_eps = geom.epsilon - geom.epsilon_prime - geom.omega
        return cls(u_p, u_k, a, b, packet.sigma, delta_eps, dispersive)

    # complex eta/chi route -------------------------------------------------

    def eta(self, t):
        return 1.0 / (2.0 * self.sigma ** 2) + 0.25j * np.asarray(t) * self.a

    def chi(self, t):
        return 0.25j * np.asarray(t) * self.b

    def direction_factors(self, R: np.ndarray):
        """A = |R x (u_p - u_k)|^2 and B = (R . [u_p x u_k])^2 of one node
        R, shape (3,), or of each row of R, shape (k, 3)."""
        R = np.asarray(R, dtype=float)
        x, y, z = R[..., 0], R[..., 1], R[..., 2]
        dx, dy, dz = self.diff
        cr2 = ((y * dz - z * dy) ** 2 + (z * dx - x * dz) ** 2
               + (x * dy - y * dx) ** 2)
        return cr2, (R @ self.cross) ** 2

    def integrand_coefficients(self, t):
        """The t'-dependent factors of the master integrand, sharing eta,
        chi and eta C + chi D: ``prefactor_complex`` and the
        ``exponent_coefficients`` (cA, cB).  Each intermediate is dropped
        after its last use: on the reference evaluator's abscissae one
        complex array takes 4 MB."""
        eta = self.eta(t)
        chi = self.chi(t)
        denom = eta * self.cc + chi * self.dd
        scaled = eta * denom
        del eta
        c_b = -0.5 * chi / scaled
        del chi
        c_a = -0.5 / denom
        del denom
        return 1.0 / np.sqrt(scaled), c_a, c_b

    def log_integrand_coefficients(self, t):
        """The t'-dependent factors of the log-integrand
        L = log pre + cA A + cB B + i t' delta_eps, where pre is
        ``prefactor_complex`` and log pre = -log(eta (eta C + chi D))/2 on
        the principal branch, and of its derivative
        L' = d_log_pre + d_c_a A + d_c_b B + i delta_eps, in closed form
        from eta' = i a/4 and chi' = i b/4.  Returns (log_pre, c_a, c_b,
        d_log_pre, d_c_a, d_c_b)."""
        t = np.asarray(t)
        eta = 1.0 / (2.0 * self.sigma ** 2) + (0.25j * self.a) * t
        chi = (0.25j * self.b) * t
        denom = eta * self.cc + chi * self.dd
        scaled = eta * denom
        # (eta denom)'/(eta denom) = eta'/eta + denom'/denom
        d_denom = (0.25j * (self.a * self.cc + self.b * self.dd)) / denom
        rate = (0.25j * self.a) / eta + d_denom
        c_a = -0.5 / denom
        c_b = -0.5 * chi / scaled
        return (-0.5 * np.log(scaled), c_a, c_b, -0.5 * rate, -c_a * d_denom,
                (-0.125j * self.b) / scaled - c_b * rate)

    def exponent_coefficients(self, t):
        """Complex (cA, cB) with exponent(t, R) = cA A + cB B."""
        return self.integrand_coefficients(t)[1:]

    def exponent_complex(self, t, R: np.ndarray):
        """-(eta A + chi B) / (2 eta (eta C + chi D)); real part is
        -R^2/R_eff^2, imaginary part +R^2/R_im^2."""
        A, B = self.direction_factors(R)
        cA, cB = self.exponent_coefficients(t)
        return cA * A + cB * B

    def correlation_scales(self, t: float, R: np.ndarray):
        """(R_eff, 1/R_im^2) along a unit vector R at t': the exponent
        -R^2/R_eff^2 + i R^2/R_im^2 at R, with R_eff = inf where its real
        part is not negative.  R is taken as given, not renormalized."""
        expo = complex(self.exponent_complex(t, R))
        r_eff = math.inf if expo.real >= 0.0 else 1.0 / math.sqrt(-expo.real)
        return r_eff, expo.imag

    def prefactor_complex(self, t):
        """1/sqrt(eta (eta C + chi D)) = exp(-i g/2)/G; both factors lie in
        the right half-plane, so the principal square root is continuous."""
        return self.integrand_coefficients(t)[0]

    # explicit split (independent evaluation route) -------------------------

    def sigma_perp_sq(self, t):
        t = np.asarray(t, dtype=float)
        return (1.0 + (t * self.spread.inv_t_d) ** 2) / self.sigma ** 2

    def big_g(self, t):
        """G(t') = |u_p - u_k|/(2 sigma^2) [(1 + (t/t_d)^2)(1 + (t/t~)^2)]^(1/4)."""
        t = np.asarray(t, dtype=float)
        x2 = (t * self.spread.inv_t_d) ** 2
        y2 = (t / self.spread.t_d_tilde) ** 2
        return (math.sqrt(self.cc) / (2.0 * self.sigma ** 2)
                * ((1.0 + x2) * (1.0 + y2)) ** 0.25)

    def gouy(self, t):
        return gouy_phase(t, self.spread)

    def exponent_split(self, t, R: np.ndarray):
        """(real, imaginary) parts of the exponent from the explicit
        spreading-time split; dual route to ``exponent_complex``."""
        A, B = self.direction_factors(R)
        t = np.asarray(t, dtype=float)
        inv_td = self.spread.inv_t_d
        tilde = self.spread.t_d_tilde
        sp2 = self.sigma_perp_sq(t)
        a_over = A / self.cc
        b_over = B / self.cc
        y2 = (t / tilde) ** 2
        inv_tau_sq = (0.5 * self.sigma ** 2 * self.b
                      * (inv_td + 0.5 * self.sigma ** 2 * self.a))
        re = -(a_over + t * t * inv_tau_sq / (1.0 + y2) * b_over) / sp2
        im = (t / sp2) * (inv_td * a_over
                          - 0.5 * self.sigma ** 2 * self.b
                          * (1.0 - t * t * inv_td / tilde) / (1.0 + y2)
                          * b_over)
        return re, im

    # flash-statistics geometry ---------------------------------------------

    def sigma_t(self, t) -> float:
        if self.dd < 1e-28:
            raise CollinearVelocities("[u_p x u_k] = 0: flash duration "
                                      "undefined")
        return float(np.sqrt(self.sigma_perp_sq(t) / 2.0 * self.cc / self.dd))

    def l_0(self) -> np.ndarray:
        if self.dd < 1e-28:
            raise CollinearVelocities("[u_p x u_k] = 0")
        return _cross(self.diff, -self.cross) / self.dd


def flash_stats(geom: EmissionGeometry, packet: ElectronPacket,
                medium: MediumModel, r, t_prime: float,
                dispersive: Optional[bool] = None) -> FlashStats:
    """Flash duration sigma_t(t'), the detection-probability peak time
    t_0 = (r + Phi) . l_0 and the quantum shift Delta t = Phi . l_0, where
    Phi = ``amplitudes.combined_phase_gradient(geom)``, the closed-form
    amplitude-phase gradient (the Gaussian packet adds no phase).
    ``flags`` holds the ``wkb_flags`` of the one kernel all three are read
    from, so a caller needs no second kernel for them.  With p, p' or k
    along z the azimuth, and so Phi, is undefined:
    ``amplitudes.DegeneratePhase`` names the vector (``kernel.sigma_t``
    alone does not need Phi).
    """
    kernel = PhaseSpaceKernel.from_geometry(geom, packet, medium, dispersive)
    sigma_t = kernel.sigma_t(float(t_prime))
    l0 = kernel.l_0()
    phi_vec = amplitudes.combined_phase_gradient(geom)
    r = np.asarray(r, dtype=float)
    delta_t = float(l0 @ phi_vec)
    t_0 = float(l0 @ (r + phi_vec))
    return FlashStats(sigma_t=sigma_t, t_0=t_0, delta_t=delta_t, l_0=l0,
                      flags=wkb_flags(geom, kernel))


def wkb_flags(geom: EmissionGeometry, kernel: PhaseSpaceKernel) -> WkbFlags:
    """Validity guards: the paraxial treatment degrades for emission angles
    below 1/gamma and near the turning point |u_p - u_k| -> 0, read from
    the geometry's kernel (its velocities and packet width)."""
    flags = WkbFlags.NONE
    theta_k = math.acos(max(-1.0, min(1.0,
        geom.p.dot(geom.k) / (geom.p.mag * geom.k.mag))))
    if theta_k < 1.0 / geom.epsilon:
        flags |= WkbFlags.SMALL_ANGLE
    if math.sqrt(kernel.cc) < 10.0 * kernel.sigma:
        flags |= WkbFlags.TURNING_POINT
    return flags
