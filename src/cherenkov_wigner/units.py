"""Unit conversions between natural units (m_e = hbar = c = 1) and
laboratory units.

Energies and frequencies: {m_e, eV, MeV}.  Times: {t_c, as, fs, ps, s}
with the Compton time t_c = hbar/(m_e c^2).  Lengths: {lambda_c, nm, um,
cm} with the reduced Compton wavelength lambda_c = hbar/(m_e c).
"""

from __future__ import annotations

__all__ = ["IncompatibleDimensions", "convert_units",
           "ME_EV", "TC_SECONDS", "LAMBDAC_CM"]

ME_EV = 510998.95                  # m_e c^2 in eV
HBAR_EV_S = 6.582119569e-16        # hbar in eV s
C_CM_PER_S = 2.99792458e10

TC_SECONDS = HBAR_EV_S / ME_EV     # ~1.3e-21 s
LAMBDAC_CM = C_CM_PER_S * TC_SECONDS  # ~3.9e-11 cm

# Conversion factors to the base unit of each dimension (m_e, t_c and
# lambda_c respectively).
_FACTORS = {
    "energy": {"m_e": 1.0, "eV": 1.0 / ME_EV, "MeV": 1.0e6 / ME_EV},
    "time": {"t_c": 1.0, "s": 1.0 / TC_SECONDS, "as": 1.0e-18 / TC_SECONDS,
             "fs": 1.0e-15 / TC_SECONDS, "ps": 1.0e-12 / TC_SECONDS},
    "length": {"lambda_c": 1.0, "cm": 1.0 / LAMBDAC_CM,
               "um": 1.0e-4 / LAMBDAC_CM, "nm": 1.0e-7 / LAMBDAC_CM},
}


class IncompatibleDimensions(ValueError):
    """Units belong to different dimensions (or are unknown)."""


def _dimension_of(unit: str) -> str:
    for name, table in _FACTORS.items():
        if unit in table:
            return name
    raise IncompatibleDimensions(f"unknown unit {unit!r}")


def convert_units(value: float, from_unit: str, to_unit: str) -> float:
    """Exact factor conversion; raises if the dimensions differ."""
    dim_from = _dimension_of(from_unit)
    dim_to = _dimension_of(to_unit)
    if dim_from != dim_to:
        raise IncompatibleDimensions(
            f"cannot convert {from_unit} ({dim_from}) to {to_unit} ({dim_to})")
    table = _FACTORS[dim_from]
    return value * table[from_unit] / table[to_unit]
