"""Spreading time of the photon field across the emission angle.

The inverse spreading time 1/t_d has two zeros bracketing the Cherenkov
angle; between them t_d is negative and the field contracts instead of
spreading.  Run from the repository root:

    python3 demos/spreading_time.py
"""

import math
from pathlib import Path

import numpy as np

from cherenkov_wigner.kinematics import lorentz_gamma
from cherenkov_wigner.observables import (singular_angles,
                                          singular_width_approx,
                                          spread_times_at_angle)
from cherenkov_wigner.svgplot import polyline_svg
from cherenkov_wigner.units import convert_units

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

beta, n, omega, sigma = 0.99, 1.7, 1e-5, 1e-4
eps = lorentz_gamma(beta)
theta_ch = math.degrees(math.acos(1 / (beta * n)))
print(f"beta = {beta}, n = {n}: Cherenkov angle {theta_ch:.2f} deg")

thetas = np.linspace(1.0, 179.0, 713)
inv_td = spread_times_at_angle(beta, n, omega, eps, sigma,
                               np.radians(thetas)).inv_t_d

lo, hi, width = singular_angles(beta, n, omega, eps)
print(f"singular angles: {math.degrees(lo):.4f} and {math.degrees(hi):.4f} "
      f"deg (width {math.degrees(width):.4f} deg, leading-order "
      f"{math.degrees(singular_width_approx(beta, n, omega, eps)):.4f} deg)")

td_ps = np.where(inv_td != 0, convert_units(1.0, "t_c", "ps") / inv_td,
                 np.inf)
inside = (thetas > math.degrees(lo)) & (thetas < math.degrees(hi))
print(f"t_d inside the singular interval: {td_ps[inside].max():.3g} ps "
      "(negative: the field is still forming)")

polyline_svg(OUT / "spreading_time_inverse.svg", thetas, [inv_td],
             title="inverse spreading time",
             xlabel="theta_k [deg]", ylabel="1/t_d [1/t_c]")
print(f"wrote {OUT / 'spreading_time_inverse.svg'}")
