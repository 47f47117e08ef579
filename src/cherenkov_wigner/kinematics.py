"""Relativistic kinematics in natural units (hbar = c = m_e = 1).

Energies are in electron masses, momenta in m_e*c, times in Compton times
t_c and lengths in Compton wavelengths lambda_c.  Angle conventions:
theta in [0, pi], phi in [0, 2*pi).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Momentum3",
    "ElectronPacket",
    "EmissionGeometry",
    "GeometryBatch",
    "TriangleAngles",
    "BelowThreshold",
    "Unphysical",
    "TriangleViolation",
    "ParaxialWarning",
    "HELICITIES",
    "energy",
    "lorentz_gamma",
    "momentum_magnitude",
    "check_speed_and_index",
    "cherenkov_angle_classical",
    "cherenkov_angle_quantum",
    "cutoff_frequency",
    "mach_angle",
    "triangle_angles",
    "triangle_rules_hold",
    "place_triangles",
    "triangle_geometry",
    "column_cross",
    "column_dot",
]

_THRESHOLD_EPS = 1e-12

# the values each helicity label of an emission may take
HELICITIES = {"lambda_e": (0.5, -0.5), "lambda_prime": (0.5, -0.5),
              "lambda_gamma": (1, -1)}


class BelowThreshold(ValueError):
    """Cherenkov condition beta*n >= 1 is not met."""


class Unphysical(ValueError):
    """Requested angle has |cos| or |sin| outside [-1, 1]."""


class TriangleViolation(ValueError):
    """Transverse momenta cannot close into a triangle."""


class ParaxialWarning(UserWarning):
    """Packet width too large for the paraxial treatment."""


@dataclass(frozen=True)
class Momentum3:
    """Cartesian 3-momentum in units of m_e*c."""

    x: float
    y: float
    z: float

    @classmethod
    def from_spherical(cls, mag: float, theta: float, phi: float) -> "Momentum3":
        st = math.sin(theta)
        return cls(mag * st * math.cos(phi), mag * st * math.sin(phi),
                   mag * math.cos(theta))

    @classmethod
    def from_array(cls, arr) -> "Momentum3":
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def mag2(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    @property
    def mag(self) -> float:
        return math.sqrt(self.mag2)

    @property
    def perp(self) -> float:
        """Transverse magnitude with respect to the z axis."""
        return math.hypot(self.x, self.y)

    @property
    def theta(self) -> float:
        # atan2 stays well-conditioned at tiny polar angles, where
        # acos(z/|p|) loses half the digits
        if self.mag == 0.0:
            return 0.0
        return math.atan2(self.perp, self.z)

    @property
    def phi(self) -> float:
        return math.atan2(self.y, self.x) % (2.0 * math.pi)

    def __add__(self, other: "Momentum3") -> "Momentum3":
        return Momentum3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Momentum3") -> "Momentum3":
        return Momentum3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Momentum3":
        return Momentum3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def dot(self, other: "Momentum3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


def lorentz_gamma(beta: float) -> float:
    if not abs(beta) < 1.0:
        raise ValueError(f"beta must satisfy |beta| < 1, got {beta!r}")
    return 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))


def check_speed_and_index(beta: float, n: float, **others: float) -> None:
    """The one input check of the closed-form angle functions: raises
    ``ValueError`` naming the first of beta, n and ``others`` that is NaN
    or infinite, then a beta with |beta| >= 1 (as ``lorentz_gamma`` does),
    an n <= 0, and among ``others`` an epsilon or sigma <= 0 or an
    omega < 0 (omega = 0 is the recoil-free limit)."""
    for name, value in (("beta", beta), ("n", n), *others.items()):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not abs(beta) < 1.0:
        raise ValueError(f"beta must satisfy |beta| < 1, got {beta!r}")
    for name, value in (("n", n), *others.items()):
        if name in ("n", "epsilon", "sigma") and not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")
        if name == "omega" and not value >= 0.0:
            raise ValueError(f"omega must be non-negative, got {value!r}")


def momentum_magnitude(beta: float) -> float:
    """|p| = beta * gamma for an electron of speed beta."""
    return beta * lorentz_gamma(beta)


def energy(p: Momentum3) -> float:
    """On-shell electron energy sqrt(1 + |p|^2)."""
    return math.sqrt(1.0 + p.mag2)


def cherenkov_angle_classical(beta: float, n: float) -> float:
    """arccos(1/(beta*n)); radiation threshold is beta*n >= 1.

    Within 1e-12 of the threshold the angle is clamped to zero (with a
    warning) instead of producing NaN.  Inputs are checked by
    ``check_speed_and_index``.
    """
    check_speed_and_index(beta, n)
    bn = beta * n
    if bn < 1.0 - _THRESHOLD_EPS:
        raise BelowThreshold(f"beta*n = {bn} < 1: no Cherenkov radiation")
    if bn < 1.0 + _THRESHOLD_EPS:
        warnings.warn("beta*n at the Cherenkov threshold; angle clamped to 0",
                      ParaxialWarning, stacklevel=2)
        return 0.0
    return math.acos(1.0 / bn)


def cherenkov_angle_quantum(beta: float, n: float, omega: float,
                            epsilon: float) -> float:
    """Emission angle with electron recoil:
    cos(theta) = 1/(beta n) + (omega/2 eps) (n^2-1)/(beta n).  Inputs are
    checked by ``check_speed_and_index``."""
    check_speed_and_index(beta, n, omega=omega, epsilon=epsilon)
    arg = (1.0 + 0.5 * (omega / epsilon) * (n * n - 1.0)) / (beta * n)
    if abs(arg) > 1.0 + 1e-12:
        raise Unphysical(f"cos(theta) = {arg} outside [-1, 1]")
    return math.acos(max(-1.0, min(1.0, arg)))


def cutoff_frequency(beta: float, n: float, epsilon: float) -> float:
    """Spectral cutoff 2 eps (beta n - 1)/(n^2 - 1), clamped to 0 below
    threshold.  Inputs are checked by ``check_speed_and_index``."""
    check_speed_and_index(beta, n, epsilon=epsilon)
    if n <= 1.0:
        raise ValueError("cutoff frequency requires n > 1")
    return max(0.0, 2.0 * epsilon * (beta * n - 1.0) / (n * n - 1.0))


def mach_angle(beta: float, n: float, theta: float) -> float:
    """Opening angle of the Mach cone:
    pi - arcsin(sin(theta) / (n |u_k - u_p|)).  Inputs are checked by
    ``check_speed_and_index``."""
    check_speed_and_index(beta, n, theta=theta)
    diff2 = 1.0 / n ** 2 + beta * beta - 2.0 * beta * math.cos(theta) / n
    if diff2 <= 0.0:
        raise Unphysical("u_p and u_k coincide; Mach angle undefined")
    s = math.sin(theta) / (n * math.sqrt(diff2))
    if abs(s) > 1.0 + 1e-12:
        raise Unphysical(f"sin of Mach complement = {s} outside [-1, 1]")
    return math.pi - math.asin(max(-1.0, min(1.0, s)))


@dataclass(frozen=True)
class TriangleAngles:
    """Interior angles of the transverse-momentum triangle and its area.

    alpha is opposite the k_perp leg (between p_perp and pp_perp),
    vartheta opposite p_perp, gamma opposite pp_perp.
    """

    alpha: float
    vartheta: float
    gamma: float
    area_delta: float


def triangle_rules_hold(p_perp: float, pp_perp: float, k_perp,
                        rtol: float = 1e-12):
    """Transverse closure: each leg no longer than the sum of the others;
    a boolean array over the samples of an array ``k_perp``."""
    longest = (np.maximum(k_perp, max(p_perp, pp_perp, 1e-300))
               if isinstance(k_perp, np.ndarray)
               else max(p_perp, pp_perp, k_perp, 1e-300))
    slack = rtol * longest
    return ((p_perp <= pp_perp + k_perp + slack)
            & (pp_perp <= p_perp + k_perp + slack)
            & (k_perp <= p_perp + pp_perp + slack))


def _clamped_acos(x: float) -> float:
    return math.acos(max(-1.0, min(1.0, x)))


def triangle_angles(p_perp: float, pp_perp: float, k_perp: float) -> TriangleAngles:
    """Law-of-cosines angles of the triangle with legs (p_perp, pp_perp,
    k_perp), plus its area Delta = p_perp pp_perp sin(alpha) / 2."""
    if min(p_perp, pp_perp, k_perp) < 0:
        raise TriangleViolation("legs must be non-negative")
    if not triangle_rules_hold(p_perp, pp_perp, k_perp):
        raise TriangleViolation(
            f"legs ({p_perp}, {pp_perp}, {k_perp}) violate the triangle rules")
    # zero-leg degeneracies: the opposite angle closes, the others split pi
    if k_perp == 0.0:
        return TriangleAngles(0.0, math.pi / 2, math.pi / 2, 0.0)
    if p_perp == 0.0:
        return TriangleAngles(math.pi / 2, 0.0, math.pi / 2, 0.0)
    if pp_perp == 0.0:
        return TriangleAngles(math.pi / 2, math.pi / 2, 0.0, 0.0)
    alpha = _clamped_acos((p_perp ** 2 + pp_perp ** 2 - k_perp ** 2)
                          / (2.0 * p_perp * pp_perp))
    vartheta = _clamped_acos((pp_perp ** 2 + k_perp ** 2 - p_perp ** 2)
                             / (2.0 * k_perp * pp_perp))
    gamma = _clamped_acos((p_perp ** 2 + k_perp ** 2 - pp_perp ** 2)
                          / (2.0 * k_perp * p_perp))
    area = 0.5 * p_perp * pp_perp * math.sin(alpha)
    return TriangleAngles(alpha, vartheta, gamma, area)


@dataclass(frozen=True)
class ElectronPacket:
    """Gaussian electron wave packet in momentum space: mean momentum and
    momentum width sigma in m_e units, with no momentum-dependent phase."""

    mean_momentum: Momentum3
    sigma: float
    helicity: float = 0.5

    def __post_init__(self):
        mean = self.mean_momentum
        if not all(map(math.isfinite, (mean.x, mean.y, mean.z))):
            raise ValueError(f"mean_momentum must be finite, got {mean!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(
                f"sigma must be finite and positive, got {self.sigma!r}")
        if self.helicity not in HELICITIES["lambda_e"]:
            raise ValueError("helicity must be +-1/2")
        if self.sigma > 0.1:
            warnings.warn(f"sigma = {self.sigma} m_e exceeds the paraxial "
                          "regime (sigma << 1)", ParaxialWarning, stacklevel=2)


@dataclass(frozen=True)
class EmissionGeometry:
    """On-shell (p, p', k) momentum triple with helicity labels.

    Momentum balance p = p' + k is enforced at construction; use
    ``from_final_state`` to build p from the final-state pair.
    """

    p: Momentum3
    p_prime: Momentum3
    k: Momentum3
    omega: float
    lambda_e: float = 0.5
    lambda_prime: float = 0.5
    lambda_gamma: int = 1

    def __post_init__(self):
        _check_emission(self.omega, self.lambda_e, self.lambda_prime,
                        self.lambda_gamma)
        for name in ("p", "p_prime", "k"):
            mom = getattr(self, name)
            if not all(map(math.isfinite, (mom.x, mom.y, mom.z))):
                raise ValueError(f"{name} must be finite, got {mom!r}")
        scale = max(self.p.mag, 1.0)
        # p - p' - k by component; finite momenta leave no NaN component,
        # so max sees every one
        p, p_prime, k = self.p, self.p_prime, self.k
        residual = (p.x - p_prime.x - k.x, p.y - p_prime.y - k.y,
                    p.z - p_prime.z - k.z)
        if max(map(abs, residual)) > 1e-12 * scale:
            raise ValueError("momentum balance p = p' + k violated: "
                             f"residual {np.array(residual)}")

    @classmethod
    def from_final_state(cls, p_prime: Momentum3, k: Momentum3, omega: float,
                         lambda_e: float = 0.5, lambda_prime: float = 0.5,
                         lambda_gamma: int = 1) -> "EmissionGeometry":
        return cls(p_prime + k, p_prime, k, omega, lambda_e, lambda_prime,
                   lambda_gamma)

    @property
    def epsilon(self) -> float:
        return energy(self.p)

    @property
    def epsilon_prime(self) -> float:
        return energy(self.p_prime)

    @property
    def beta(self) -> float:
        return self.p.mag / self.epsilon


def _check_emission(omega: float, lambda_e: float, lambda_prime: float,
                    lambda_gamma: int) -> None:
    """Raises ``ValueError`` naming omega if it is not finite and positive,
    or the first helicity label outside its ``HELICITIES``."""
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    if omega <= 0:
        raise ValueError("omega must be positive")
    for name, value in zip(HELICITIES, (lambda_e, lambda_prime,
                                        lambda_gamma)):
        if value not in HELICITIES[name]:
            raise ValueError(f"{name} must be one of {HELICITIES[name]}, "
                             f"got {value!r}")


def column_dot(a: np.ndarray, b: np.ndarray):
    """The dot product of each column of two (3, N) arrays, spelled out so
    that a column's bits do not depend on the other columns; of two
    3-vectors, in Python floats (numpy's bits, without its call cost)."""
    a0, a1, a2 = a.tolist() if a.ndim == 1 else a
    b0, b1, b2 = b.tolist() if b.ndim == 1 else b
    return a0 * b0 + a1 * b1 + a2 * b2


def column_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b, summed as ``column_dot`` sums (np.cross costs ten times more)."""
    a0, a1, a2 = a.tolist() if a.ndim == 1 else a
    b0, b1, b2 = b.tolist() if b.ndim == 1 else b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0])


@dataclass(frozen=True, eq=False)
class GeometryBatch:
    """Emission geometries of a sweep: p, p' and k as (3, N) arrays of
    their x, y and z components, at one omega and one helicity triple.
    ``place_triangles`` builds them; the sweep functions of ``amplitudes``
    and ``observables`` take them."""

    p: np.ndarray
    p_prime: np.ndarray
    k: np.ndarray
    omega: float
    lambda_e: float = 0.5
    lambda_prime: float = 0.5
    lambda_gamma: int = 1

    @classmethod
    def of(cls, geom: EmissionGeometry) -> "GeometryBatch":
        """The one-sample batch of ``geom``."""
        return cls(*(v.as_array()[:, None]
                     for v in (geom.p, geom.p_prime, geom.k)),
                   geom.omega, geom.lambda_e, geom.lambda_prime,
                   geom.lambda_gamma)

    def geometry(self, i: int) -> EmissionGeometry:
        """Sample ``i`` as an ``EmissionGeometry``."""
        return EmissionGeometry(
            *(Momentum3.from_array(v[:, i])
              for v in (self.p, self.p_prime, self.k)),
            self.omega, self.lambda_e, self.lambda_prime, self.lambda_gamma)

    @property
    def epsilon(self) -> np.ndarray:
        return np.sqrt(1.0 + column_dot(self.p, self.p))


def place_triangles(p_perp: float, pp_perp: float, beta: float,
                    omega: float, n, theta_k, phi_k: float = 0.5 * math.pi,
                    branch: int = 1, lambda_e: float = 0.5,
                    lambda_prime: float = 0.5, lambda_gamma: int = 1):
    """``triangle_geometry`` over arrays of n and theta_k (broadcast
    together): returns (batch, closes).  ``closes`` masks the samples whose
    legs close with p_perp < |p| (a negative leg k_perp, where theta_k lies
    outside [0, pi], does not), and ``batch`` is the ``GeometryBatch`` of
    those samples.  Raises ``ValueError`` naming the first bad input, before
    any placement: a branch other than +-1, a non-finite n, theta_k or
    phi_k, a p_perp or pp_perp that is not finite and non-negative, beta
    (as ``momentum_magnitude``), omega or a helicity (as
    ``EmissionGeometry``)."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    n, theta_k = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(n, dtype=float), np.asarray(theta_k, dtype=float)))
    for name, values in (("n", n), ("theta_k", theta_k),
                         ("phi_k", np.array([phi_k], dtype=float))):
        bad = values[~np.isfinite(values)].tolist()
        if bad:
            raise ValueError(f"{name} must be finite, got {bad[0]!r}")
    for name, value in (("p_perp", p_perp), ("pp_perp", pp_perp)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(
                f"{name} must be finite and non-negative, got {value!r}")
    p_mag = momentum_magnitude(beta)
    _check_emission(omega, lambda_e, lambda_prime, lambda_gamma)
    kmag = n * omega
    k_perp = kmag * np.sin(theta_k)
    k_z = kmag * np.cos(theta_k)
    closes = ((k_perp >= 0.0) & triangle_rules_hold(p_perp, pp_perp, k_perp)
              & (p_mag > p_perp))
    k_perp, k_z = k_perp[closes], k_z[closes]
    # per sample: math.acos rounds differently from np.arccos
    vartheta = np.array([triangle_angles(p_perp, pp_perp, leg).vartheta
                         for leg in k_perp.tolist()])
    phi_prime = phi_k - branch * (math.pi - vartheta)
    # (no sample closes where p_perp >= |p|, and none needs p'_z)
    pp_z = math.sqrt(max(p_mag ** 2 - p_perp ** 2, 0.0)) - k_z
    p_prime = np.array([pp_perp * np.cos(phi_prime),
                        pp_perp * np.sin(phi_prime), pp_z])
    k = np.array([k_perp * math.cos(phi_k), k_perp * math.sin(phi_k), k_z])
    return GeometryBatch(p_prime + k, p_prime, k, omega, lambda_e,
                         lambda_prime, lambda_gamma), closes


def triangle_geometry(p_perp: float, pp_perp: float, beta: float,
                      omega: float, n: float, theta_k: float,
                      phi_k: float = 0.5 * math.pi, branch: int = 1,
                      lambda_e: float = 0.5, lambda_prime: float = 0.5,
                      lambda_gamma: int = 1) -> Optional[EmissionGeometry]:
    """Place the transverse triangle with legs (p_perp, pp_perp, k_perp)
    around a photon emitted at (theta_k, phi_k), for an initial electron of
    speed beta: p_z = sqrt(|p|^2 - p_perp^2) with |p| = beta gamma, and
    p' = p - k exactly.  None when the legs cannot close or p_perp >= |p|.

    ``branch=+1`` selects the configuration phi = phi' + alpha,
    phi_k = phi' + alpha + gamma; ``branch=-1`` its mirror.  The one-sample
    call of ``place_triangles``.
    """
    batch, closes = place_triangles(
        p_perp, pp_perp, beta, omega, n, theta_k, phi_k, branch, lambda_e,
        lambda_prime, lambda_gamma)
    return batch.geometry(0) if closes[0] else None
