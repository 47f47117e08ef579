"""Refractive-index models with frequency derivatives and the dimensionless
dispersion-strength parameters.

Three model variants: constant n, analytic n(omega) with its derivatives,
and tabulated samples interpolated by a natural cubic spline (C^2, so the
second derivative feeding the dispersive spreading time is continuous).
Frequencies are in m_e units throughout; the table loader converts from eV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Tuple

import numpy as np

from .units import ME_EV as EV_PER_ME  # electron rest energy in eV

__all__ = [
    "MediumModel",
    "ConstantMedium",
    "AnalyticMedium",
    "TabulatedMedium",
    "DispersionParams",
    "OutOfDomain",
    "DegenerateGroupVelocity",
    "TableFormatError",
    "load_index_table",
    "EV_PER_ME",
]

WEAK_DISPERSION_THRESHOLD = 0.01


class OutOfDomain(ValueError):
    """Frequency outside the model's valid domain."""


class DegenerateGroupVelocity(ZeroDivisionError):
    """n(omega)(1 + D) vanished; group velocity undefined."""


class TableFormatError(ValueError):
    """Malformed refractive-index table."""


@dataclass(frozen=True)
class DispersionParams:
    """Dimensionless dispersion strengths D = omega n'/n and
    E = n omega^2 n'' at a given frequency."""

    d_param: float
    e_param: float
    omega: float


class MediumModel:
    """Base class; subclasses implement index(omega) -> (n, n', n'')."""

    def index(self, omega: float) -> Tuple[float, float, float]:
        raise NotImplementedError

    def domain(self) -> Tuple[float, float]:
        """Valid frequency range (open-ended by default)."""
        return (0.0, math.inf)

    def dispersion_params(self, omega: float) -> DispersionParams:
        n, n1, n2 = self.index(omega)
        return DispersionParams(omega * n1 / n, n * omega * omega * n2, omega)


class ConstantMedium(MediumModel):
    """Dispersionless medium with fixed refractive index."""

    def __init__(self, n: float):
        if not (math.isfinite(n) and n > 0):
            raise ValueError(
                f"refractive index must be finite and positive, got {n!r}")
        self.n = float(n)

    def index(self, omega: float) -> Tuple[float, float, float]:
        return (self.n, 0.0, 0.0)

    def __repr__(self):
        return f"ConstantMedium(n={self.n})"


class AnalyticMedium(MediumModel):
    """Medium defined by callables n(omega), n'(omega), n''(omega)."""

    def __init__(self, n: Callable, n_prime: Callable,
                 n_double_prime: Callable):
        self._n = n
        self._n1 = n_prime
        self._n2 = n_double_prime

    @classmethod
    def from_dispersion_params(cls, n0: float, omega0: float, d_param: float,
                               e_param: float = 0.0) -> "AnalyticMedium":
        """Local quadratic model matching (n, D, E) at omega0.  Raises
        ``ValueError`` naming the first argument that is NaN or infinite,
        then an n0 or omega0 that is not positive."""
        args = {"n0": n0, "omega0": omega0, "d_param": d_param,
                "e_param": e_param}
        for name, value in args.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("n0", "omega0"):
            if not args[name] > 0:
                raise ValueError(
                    f"{name} must be positive, got {args[name]!r}")
        n1 = d_param * n0 / omega0
        n2 = e_param / (n0 * omega0 ** 2)
        return cls(lambda w: n0 + n1 * (w - omega0) + 0.5 * n2 * (w - omega0) ** 2,
                   lambda w: n1 + n2 * (w - omega0),
                   lambda w: n2)

    def index(self, omega: float) -> Tuple[float, float, float]:
        lo, hi = self.domain()
        if not (lo <= omega <= hi):
            raise OutOfDomain(f"omega={omega} outside [{lo}, {hi}]")
        n, n1, n2 = (float(f(omega)) for f in (self._n, self._n1, self._n2))
        for name, value in (("n", n), ("n'", n1), ("n''", n2)):
            if not math.isfinite(value):
                raise OutOfDomain(f"{name}({omega}) = {value} is not finite")
        if n <= 0:
            raise OutOfDomain(f"n({omega}) = {n} <= 0")
        return n, n1, n2


class TabulatedMedium(MediumModel):
    """Natural cubic spline through sampled (omega_i, n_i) pairs.

    Samples must be finite, strictly increasing in omega, with at least 4
    points.  Between knots omega_i and omega_i+1 the spline is the cubic
    n_i + b_i t + c_i t^2 + d_i t^3 in t = omega - omega_i.
    """

    def __init__(self, omegas, ns):
        omegas = np.asarray(omegas, dtype=float)
        ns = np.asarray(ns, dtype=float)
        if omegas.ndim != 1 or omegas.shape != ns.shape:
            raise TableFormatError("omega and n arrays must be 1-D, same length")
        if len(omegas) < 4:
            raise TableFormatError("need at least 4 samples")
        if not (np.all(np.isfinite(omegas)) and np.all(np.isfinite(ns))):
            raise TableFormatError("omega and n samples must be finite")
        if np.any(np.diff(omegas) <= 0):
            raise TableFormatError("omega samples must be strictly increasing")
        if np.any(ns <= 0):
            raise TableFormatError("refractive index must be positive")
        self.omegas = omegas
        self.ns = ns
        h = np.diff(omegas)
        slope = np.diff(ns) / h
        # knot second derivatives m: natural ends m_0 = m_last = 0, interior
        # h_i-1 m_i-1 + 2 (h_i-1 + h_i) m_i + h_i m_i+1 = 6 (slope_i - slope_i-1)
        # solved by forward elimination and back substitution (the system
        # is diagonally dominant, so no pivoting is needed)
        diag = 2.0 * (h[:-1] + h[1:])
        rhs = 6.0 * np.diff(slope)
        for i in range(1, len(diag)):
            w = h[i] / diag[i - 1]
            diag[i] -= w * h[i]
            rhs[i] -= w * rhs[i - 1]
        m = np.zeros_like(ns)
        for i in range(len(diag) - 1, -1, -1):
            m[i + 1] = (rhs[i] - h[i + 1] * m[i + 2]) / diag[i]
        self._b = slope - h * (2.0 * m[:-1] + m[1:]) / 6.0
        self._c = 0.5 * m[:-1]
        self._d = np.diff(m) / (6.0 * h)

    def domain(self):
        return (float(self.omegas[0]), float(self.omegas[-1]))

    def index(self, omega: float) -> Tuple[float, float, float]:
        lo, hi = self.domain()
        if not (lo <= omega <= hi):
            raise OutOfDomain(f"omega={omega} outside table range [{lo}, {hi}]")
        i = min(int(np.searchsorted(self.omegas, omega, side="right")) - 1,
                len(self.omegas) - 2)
        t = omega - float(self.omegas[i])
        b, c, d = float(self._b[i]), float(self._c[i]), float(self._d[i])
        n = float(self.ns[i]) + t * (b + t * (c + t * d))
        if n <= 0:
            raise OutOfDomain(f"interpolated n({omega}) = {n} <= 0")
        return n, b + t * (2.0 * c + 3.0 * t * d), 2.0 * c + 6.0 * t * d


def load_index_table(path) -> TabulatedMedium:
    """Load a refractive-index table: UTF-8 text, '#' comment lines, data
    rows "omega_eV,n".  Frequencies are converted to m_e units."""
    path = Path(path)
    omegas = []
    ns = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise TableFormatError(
                    f"{path}:{lineno}: expected 'omega_eV,n', got {raw!r}")
            try:
                w_ev = float(parts[0])
                n = float(parts[1])
            except ValueError as exc:
                raise TableFormatError(f"{path}:{lineno}: {exc}") from None
            if not (math.isfinite(w_ev) and math.isfinite(n)):
                raise TableFormatError(
                    f"{path}:{lineno}: non-finite value in {raw.strip()!r}")
            omegas.append(w_ev / EV_PER_ME)
            ns.append(n)
    if len(omegas) < 4:
        raise TableFormatError(f"{path}: need at least 4 data rows")
    diffs = np.diff(omegas)
    if np.any(diffs <= 0):
        bad = int(np.argmax(diffs <= 0)) + 2
        raise TableFormatError(f"{path}: data row {bad}: omega not increasing")
    return TabulatedMedium(omegas, ns)

