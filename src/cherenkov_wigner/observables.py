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
from .kinematics import (ElectronPacket, EmissionGeometry, GeometryBatch,
                         check_speed_and_index, column_cross, column_dot)
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
    "read_media",
    "spreading_times",
    "spread_times_at_angle",
    "singular_angles",
    "singular_width_approx",
    "gouy_phase",
    "flash_stats",
    "flash_stats_batch",
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
    counts = ((f.name.lower(), int(np.count_nonzero(flags & int(f))))
              for f in (WkbFlags.SMALL_ANGLE, WkbFlags.TURNING_POINT,
                        WkbFlags.QUAD_NONCONVERGED))
    return {name: c for name, c in counts if c}


@dataclass(frozen=True)
class SpreadTimes:
    """Diffraction times in Compton-time units: floats, or arrays over the
    samples of a sweep.  ``inv_t_d`` is 1/t_d (zero at the singular
    angles); ``tau_d`` stores the spreading-mixing time as a signed square
    root, i.e. tau_d_sq = sign(tau_d) * tau_d^2, since only tau_d^2 (which
    can be negative) enters the correlation radius.
    """

    inv_t_d: float
    t_d_tilde: float
    tau_d: float
    dispersive: bool = False

    @property
    def t_d(self):
        return _reciprocal(self.inv_t_d)

    @property
    def tau_d_sq(self):
        return self.tau_d * abs(self.tau_d)


@dataclass(frozen=True)
class FlashStats:
    """Flash duration, arrival-probability peak, and its quantum shift,
    with the WKB validity flags of the velocities they were computed from:
    of one geometry, or arrays over a sweep's samples (``l_0`` then of
    shape (3, N), and ``flags`` of ints)."""

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
    if _no_group_velocity(n, d_param):
        raise _no_group_velocity_error(n * (1.0 + d_param), omega)
    return _coefficients(n, omega, epsilon, d_param, e_param)


def _no_group_velocity(n, d_param):
    """|n (1 + D)| < 1e-12: no group velocity 1/(n (1 + D)); elementwise."""
    return abs(n * (1.0 + d_param)) < 1e-12


def _no_group_velocity_error(n_d, omega):
    return DegenerateGroupVelocity(f"n (1 + D) = {n_d} at omega={omega}")


def _coefficients(n, omega, epsilon, d_param, e_param):
    """(a, b, |u_k|) of ``dispersion_coefficients``, unchecked and
    elementwise."""
    uk_mag = 1.0 / (n * (1.0 + d_param))
    uk_over_k = uk_mag / (n * omega)
    xi = e_param + n * n * (1.0 + d_param * (4.0 + d_param))
    a = uk_over_k - 1.0 / epsilon
    b = 1.0 / epsilon - xi * uk_over_k
    return a, b, uk_mag


def _read_medium(medium: MediumModel, omega: float, dispersive):
    """(n, D, E, dispersive) at omega, with D = E = 0 on the weak-dispersion
    branch, selected from D and E unless ``dispersive`` forces it."""
    params = medium.dispersion_params(omega)
    if dispersive is None:
        thr = WEAK_DISPERSION_THRESHOLD
        dispersive = (abs(params.d_param) >= thr or abs(params.e_param) >= thr)
    d, e = (params.d_param, params.e_param) if dispersive else (0.0, 0.0)
    return medium.index(omega)[0], d, e, dispersive


def read_media(media, omega: float,
               dispersive: Optional[bool] = None) -> np.ndarray:
    """``_read_medium`` of ``media[i]`` in column i of a (4, N) array (the
    branch as 0 or 1), reading each distinct medium once."""
    reads = {id(m): _read_medium(m, omega, dispersive)
             for m in {id(m): m for m in media}.values()}
    return np.array([reads[id(m)] for m in media], float).reshape(-1, 4).T


def _reciprocal(x):
    """1/x in x's dtype, inf where x is zero; elementwise."""
    if isinstance(x, np.ndarray):
        return np.divide(1.0, x, out=np.full_like(x, np.inf), where=x != 0.0)
    return 1.0 / x if x != 0.0 else math.inf


def _float64(x):
    """x rounded to float64: an array, or a Python float."""
    return np.asarray(x, float) if isinstance(x, np.ndarray) else float(x)


def _exponent_scales(c_a, c_b, A, B):
    """(R_eff, 1/R_im^2) of c_a A + c_b B = -R^2/R_eff^2 + i R^2/R_im^2
    for real direction factors A and B, each part summed in real
    arithmetic (the bits of the complex sum, up to the sign of a zero);
    R_eff = inf where the real part is not negative, NaN kept.  Python
    floats for numbers (math.sqrt, max), else elementwise."""
    re = c_a.real * A + c_b.real * B
    im = c_a.imag * A + c_b.imag * B
    if isinstance(re, np.ndarray):
        root = np.sqrt(np.maximum(-re, 0.0))
    else:  # max keeps a NaN first argument
        root = math.sqrt(max(-re, 0.0))
    return _float64(_reciprocal(root)), _float64(im)


def _spread_from_coeffs(a, b, sigma, cc, dd, dispersive=False):
    """SpreadTimes from the (a, b) pair and the velocity invariants
    cc = (u_p - u_k)^2, dd = [u_p x u_k]^2, elementwise in the arguments'
    dtype, rounded to float at the end: 1/t_d = (sigma^2/2)(a + b dd/cc),
    t_d~ = 2/(sigma^2 a), tau_d^2 = 1/((sigma^2/2) b (1/t_d + 1/t_d~))."""
    half_s2 = 0.5 * sigma * sigma
    inv_t_d = half_s2 * (a + b * dd / cc)
    inv_tilde = half_s2 * a
    tau_sq = _float64(_reciprocal(half_s2 * b * (inv_t_d + inv_tilde)))
    xp = np if isinstance(tau_sq, np.ndarray) else math
    return SpreadTimes(_float64(inv_t_d), _float64(_reciprocal(inv_tilde)),
                       xp.copysign(xp.sqrt(abs(tau_sq)), tau_sq), dispersive)


_DEGENERATE = 1e-28  # C = (u_p - u_k)^2 or D = [u_p x u_k]^2 below it
_MACH_CONE = "|u_p - u_k| ~ 0: WKB turning point"
_COLLINEAR = "[u_p x u_k] = 0: flash duration undefined"


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
                          sigma: float, theta, d_param: float = 0.0,
                          e_param: float = 0.0) -> SpreadTimes:
    """Parametric form with the z axis along the electron momentum and the
    photon at polar angle theta (an array of angles gives arrays); used
    for angle sweeps and root searches.

    Evaluated in extended precision: near the Cherenkov angle the two terms
    of 1/t_d cancel to ~6 digits, which plain doubles cannot afford.
    Inputs are checked by ``kinematics.check_speed_and_index`` (theta by
    its first non-finite angle), and omega must be positive: 1/t_d divides
    by n omega.  u_p = u_k at any angle raises ``MachConeDegenerate``.
    """
    thetas = np.asarray(theta, dtype=float)
    # one angle is a number throughout: no mask, no any(), no np.full, and
    # longdouble scalars in place of 0-d arrays, with the same arithmetic
    one = thetas.ndim == 0
    if one:
        first = float(thetas)
        first = 0.0 if math.isfinite(first) else first
    else:  # the first non-finite angle, else a valid one
        first = (thetas[~np.isfinite(thetas)].tolist() + [0.0])[0]
    check_speed_and_index(beta, n, omega=omega, epsilon=epsilon, sigma=sigma,
                          theta=first, d_param=d_param, e_param=e_param)
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega!r}")
    ld = np.longdouble
    beta, theta = ld(beta), thetas.astype(ld)
    a, b, uk = dispersion_coefficients(ld(n), ld(omega), ld(epsilon),
                                       ld(d_param), ld(e_param))
    cc = uk * uk + beta * beta - 2.0 * beta * uk * np.cos(theta)
    dd = (beta * uk * np.sin(theta)) ** 2
    mach_cone = cc < _DEGENERATE
    if mach_cone if one else mach_cone.any():
        raise MachConeDegenerate(_MACH_CONE)
    return _spread_from_coeffs(a if one else np.full(theta.shape, a), b,
                               ld(sigma), cc, dd,
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
    scalar = t.ndim == 0
    # a float takes numpy's scalar arctan, with the bits of its array loop
    t = float(t) if scalar else t
    g = np.arctan(t * spread.inv_t_d) + np.arctan(t / spread.t_d_tilde)
    return float(g) if scalar else g


class PhaseSpaceKernel:
    """Velocity pair, (a, b) coefficients and packet width bundled with the
    complex eta/chi algebra of the master integrand.

    The integrand is stated once, in log form (``_log_terms``): its
    exponent is linear in the two direction scalars
    A = |R x (u_p - u_k)|^2 and B = (R . [u_p x u_k])^2, so the
    t'-dependent coefficient arrays can be shared across map nodes.

    It holds one velocity pair (shape (3,)), (3, N) columns of pairs, or a
    pair and an array of widths, in elementwise sums; the integrand
    methods (``_eta_chi`` to ``exponent_split``) take one pair.  A kernel
    built from momenta and a medium read (``from_geometry``) keeps the
    refractive index n it read.
    """

    def __init__(self, u_p: np.ndarray, u_k: np.ndarray, a, b, sigma,
                 delta_eps=0.0, dispersive=False):
        self.u_p = u_p = np.asarray(u_p, dtype=float)
        self.u_k = u_k = np.asarray(u_k, dtype=float)
        self.a, self.b, self.sigma, self.delta_eps = a, b, sigma, delta_eps
        self.diff = u_p - u_k
        self.cross = column_cross(u_p, u_k)
        self.cc = column_dot(self.diff, self.diff)
        self.dd = column_dot(self.cross, self.cross)
        # one sample raises at C ~ 0 or D ~ 0; over samples, callers mask
        if not isinstance(self.cc, np.ndarray) and self.cc < _DEGENERATE:
            raise MachConeDegenerate(_MACH_CONE)
        self.spread = _spread_from_coeffs(a, b, sigma, self.cc, self.dd,
                                          dispersive)

    @classmethod
    def from_geometry(cls, geom: EmissionGeometry, packet: ElectronPacket,
                      medium: MediumModel,
                      dispersive: Optional[bool] = None) -> "PhaseSpaceKernel":
        return cls._from_momenta(
            *(v.as_array() for v in (geom.p, geom.p_prime, geom.k)),
            geom.omega, _read_medium(medium, geom.omega, dispersive),
            packet.sigma)

    @classmethod
    def _from_momenta(cls, p, p_prime, k, omega: float, medium_values,
                      sigma) -> "PhaseSpaceKernel":
        """The kernel of momenta p, p', k (3-vectors, or (3, N) columns free
        of n (1 + D) = 0) in a medium read by ``_read_medium`` or
        ``read_media``; for one pair, math.sqrt (numpy's bits, less cost)."""
        n, d, e, dispersive = medium_values
        xp = math if p.ndim == 1 else np
        if xp is math and _no_group_velocity(n, d):
            raise _no_group_velocity_error(n * (1.0 + d), omega)
        eps = xp.sqrt(1.0 + column_dot(p, p))
        eps_prime = xp.sqrt(1.0 + column_dot(p_prime, p_prime))
        a, b, uk_mag = _coefficients(n, omega, eps, d, e)
        u_k = uk_mag * (k / xp.sqrt(column_dot(k, k)))
        kernel = cls(p / eps, u_k, a, b, sigma, eps - eps_prime - omega,
                     dispersive)
        kernel.n = n
        return kernel

    # complex eta/chi route -------------------------------------------------

    def _eta_chi(self, t):
        """(eta, chi, eta C + chi D, eta (eta C + chi D)) at t', from one
        i t'/4: the pass that every integrand coefficient reads."""
        chi = 0.25j * np.asarray(t)  # i t'/4 until scaled by b
        eta = 1.0 / (2.0 * self.sigma ** 2) + chi * self.a
        chi *= self.b
        denom = eta * self.cc + chi * self.dd
        return eta, chi, denom, eta * denom

    def direction_factors(self, R: np.ndarray):
        """A = |R x (u_p - u_k)|^2 and B = (R . [u_p x u_k])^2 of one node
        R, shape (3,), or of each row of R, shape (k, 3), elementwise."""
        R = np.asarray(R, dtype=float)
        x, y, z = R[..., 0], R[..., 1], R[..., 2]
        (dx, dy, dz), (cx, cy, cz) = self.diff.tolist(), self.cross.tolist()
        along = x * cx + y * cy + z * cz
        return ((y * dz - z * dy) ** 2 + (z * dx - x * dz) ** 2
                + (x * dy - y * dx) ** 2), along * along

    def _exponent_terms(self, t):
        """(cA, cB, eta, eta C + chi D, eta (eta C + chi D)) at t', from one
        ``_eta_chi`` pass."""
        eta, chi, denom, scaled = self._eta_chi(t)
        c_b = -0.5 * chi / scaled
        return -0.5 / denom, c_b, eta, denom, scaled

    def _log_terms(self, t):
        """(log pre, cA, cB, eta, eta C + chi D, eta (eta C + chi D)) at t'
        of L = log pre + cA A + cB B + i t' delta_eps, the master integrand
        Re exp(L) that both panel rules read, from one ``_eta_chi`` pass:
        log pre = -log(eta (eta C + chi D))/2 on the principal branch."""
        c_a, c_b, eta, denom, scaled = self._exponent_terms(t)
        return -0.5 * np.log(scaled), c_a, c_b, eta, denom, scaled

    def log_integrand_coefficients(self, t):
        """The factors of L (see ``_log_terms``) and of its derivative
        L' = d_log_pre + d_c_a A + d_c_b B + i delta_eps, in closed form
        from eta' = i a/4 and chi' = i b/4.  Returns (log_pre, c_a, c_b,
        d_log_pre, d_c_a, d_c_b)."""
        log_pre, c_a, c_b, eta, denom, scaled = self._log_terms(t)
        # (eta denom)'/(eta denom) = eta'/eta + denom'/denom
        d_denom = (0.25j * (self.a * self.cc + self.b * self.dd)) / denom
        rate = (0.25j * self.a) / eta + d_denom
        return (log_pre, c_a, c_b, -0.5 * rate, -c_a * d_denom,
                (-0.125j * self.b) / scaled - c_b * rate)

    def exponent_coefficients(self, t):
        """Complex (cA, cB) with exponent(t, R) = cA A + cB B."""
        return self._exponent_terms(t)[:2]

    def exponent_complex(self, t, R: np.ndarray):
        """-(eta A + chi B) / (2 eta (eta C + chi D)); real part is
        -R^2/R_eff^2, imaginary part +R^2/R_im^2."""
        A, B = self.direction_factors(R)
        cA, cB = self.exponent_coefficients(t)
        return cA * A + cB * B

    def correlation_scales(self, t: float, R: np.ndarray):
        """(R_eff, 1/R_im^2) along a unit vector R, or each row of R, at t'
        (``_exponent_scales`` of ``exponent_coefficients`` and
        ``direction_factors``): Python floats for one R at one t', else
        arrays.  R is not renormalized."""
        return _exponent_scales(*self.exponent_coefficients(t),
                               *self.direction_factors(R))

    def prefactor_complex(self, t):
        """exp(log pre) = 1/sqrt(eta (eta C + chi D)) = exp(-i g/2)/G: both
        factors lie in the right half-plane, so the branch is continuous."""
        return np.exp(self._log_terms(t)[0])

    # explicit split (independent evaluation route) -------------------------

    def sigma_perp_sq(self, t):
        """(1 + (t'/t_d)^2)/sigma^2, elementwise."""
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

    def sigma_t(self, t):
        """sigma_t(t') = sqrt(sigma_perp^2/2 (u_p - u_k)^2/[u_p x u_k]^2)."""
        if not isinstance(self.dd, np.ndarray) and self.dd < _DEGENERATE:
            raise CollinearVelocities(_COLLINEAR)
        return _float64(np.sqrt(self.sigma_perp_sq(t) / 2.0
                                * self.cc / self.dd))

    def l_0(self) -> np.ndarray:
        """l_0 = (u_p - u_k) x (u_k x u_p)/[u_p x u_k]^2."""
        if not isinstance(self.dd, np.ndarray) and self.dd < _DEGENERATE:
            raise CollinearVelocities(_COLLINEAR)
        return column_cross(self.diff, -self.cross) / self.dd


def flash_stats_batch(batch: GeometryBatch, media: np.ndarray,
                      sigma: float, r, t_prime: float):
    """``flash_stats`` at each geometry of ``batch``, sample i in a medium
    read as column i of ``media`` (``read_media``), with packet width
    ``sigma`` and observation point r of shape (3,) or (3, N), in one
    numpy pass over one ``PhaseSpaceKernel`` of the samples.  Returns
    (stats, checks): ``stats`` is a ``FlashStats`` of arrays over the
    samples, and ``checks`` lists (reason, mask, error) in the order
    ``flash_stats`` runs them: degenerate_group_velocity where
    n (1 + D) = 0 (``DegenerateGroupVelocity``, naming n (1 + D) at the
    first sample it holds at), mach_cone (``MachConeDegenerate``),
    collinear_velocities (``CollinearVelocities``), then degenerate_phase
    once per check of ``amplitudes.phase_gradients``.  Each mask runs over
    the samples; where one holds, the stats are NaN with no flags.
    """
    omega = batch.omega
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = PhaseSpaceKernel._from_momenta(
            batch.p, batch.p_prime, batch.k, omega, media, sigma)
        grad_p, grad_k, phase_checks = amplitudes.phase_gradients(batch)
        phi = grad_p + grad_k
        l_0 = kernel.l_0()
        values = np.array([kernel.sigma_t(t_prime), column_dot(l_0, phi),
                           column_dot(l_0, np.reshape(r, (3, -1)) + phi),
                           *l_0])
        cos_pk = column_dot(batch.p, batch.k) / (
            np.sqrt(column_dot(batch.p, batch.p))
            * np.sqrt(column_dot(batch.k, batch.k)))
        flags = _wkb_flag_values(cos_pk, batch.epsilon, kernel.cc, sigma)
    no_velocity = _no_group_velocity(media[0], media[1])
    n_d = (media[0] * (1.0 + media[1]))[no_velocity].tolist()
    checks = [("degenerate_group_velocity", no_velocity,
               _no_group_velocity_error(n_d[0] if n_d else 0.0, omega)),
              ("mach_cone", kernel.cc < _DEGENERATE,
               MachConeDegenerate(_MACH_CONE)),
              ("collinear_velocities", kernel.dd < _DEGENERATE,
               CollinearVelocities(_COLLINEAR)),
              *(("degenerate_phase", *check) for check in phase_checks)]
    failed = np.logical_or.reduce([mask for _, mask, _ in checks])
    values[:, failed] = np.nan
    flags[failed] = 0
    stats = FlashStats(sigma_t=values[0], t_0=values[2], delta_t=values[1],
                       l_0=values[3:], flags=flags)
    return stats, checks


def flash_stats(geom: EmissionGeometry, packet: ElectronPacket,
                medium: MediumModel, r, t_prime: float,
                dispersive: Optional[bool] = None) -> FlashStats:
    """Flash duration sigma_t(t'), the detection-probability peak time
    t_0 = (r + Phi) . l_0 and the quantum shift Delta t = Phi . l_0, where
    Phi = ``amplitudes.combined_phase_gradient(geom)``, the closed-form
    amplitude-phase gradient (the Gaussian packet adds no phase), and
    l_0 = (u_p - u_k) x (u_k x u_p)/[u_p x u_k]^2.  ``flags`` holds the
    ``wkb_flags`` of the same velocities.  With p, p' or k along z the
    azimuth, and so Phi, is undefined: ``amplitudes.DegeneratePhase``
    names the vector (``PhaseSpaceKernel.sigma_t`` alone does not need
    Phi).  The one-sample call of ``flash_stats_batch``: raises the error
    of its first check that holds.
    """
    stats, checks = flash_stats_batch(
        GeometryBatch.of(geom), read_media([medium], geom.omega, dispersive),
        packet.sigma, np.asarray(r, dtype=float)[:, None], float(t_prime))
    for _, mask, error in checks:
        if mask[0]:
            raise error
    return FlashStats(sigma_t=float(stats.sigma_t[0]),
                      t_0=float(stats.t_0[0]),
                      delta_t=float(stats.delta_t[0]), l_0=stats.l_0[:, 0],
                      flags=WkbFlags(int(stats.flags[0])))


def wkb_flags(geom: EmissionGeometry, kernel: PhaseSpaceKernel) -> WkbFlags:
    """Validity guards: the paraxial treatment degrades for emission angles
    below 1/gamma and near the turning point |u_p - u_k| -> 0, read from
    the geometry's kernel (its velocities and packet width)."""
    return WkbFlags(_wkb_flag_values(
        geom.p.dot(geom.k) / (geom.p.mag * geom.k.mag), geom.epsilon,
        kernel.cc, kernel.sigma))


def _wkb_flag_values(cos_pk, epsilon, cc, sigma):
    """The ``wkb_flags`` value from the cosine of the angle theta_k between
    p and k, the energy and (u_p - u_k)^2: SMALL_ANGLE where theta_k is
    below 1/epsilon, and TURNING_POINT where |u_p - u_k| is below
    10 sigma.  Elementwise over arrays, with math.acos per sample (it
    rounds differently from np.arccos)."""
    if isinstance(cos_pk, np.ndarray):
        theta_k = np.array([math.acos(max(-1.0, min(1.0, c)))
                            for c in cos_pk.tolist()])
        speed_gap = np.sqrt(cc)
    else:
        theta_k = math.acos(max(-1.0, min(1.0, cos_pk)))
        speed_gap = math.sqrt(cc)
    return ((theta_k < 1.0 / epsilon) * int(WkbFlags.SMALL_ANGLE)
            | (speed_gap < 10.0 * sigma) * int(WkbFlags.TURNING_POINT))
