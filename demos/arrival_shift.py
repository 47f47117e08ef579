"""Quantum shift of the photon arrival time across the emission angle.

The shift is the amplitude-phase gradient projected on the arrival-time
direction l_0; its sign swaps between the two mirror configurations of the
transverse-momentum triangle, and the flash duration always dominates it.

    python3 demos/arrival_shift.py
"""

import math
from pathlib import Path

import numpy as np

from cherenkov_wigner.amplitudes import (combined_phase_gradient,
                                         helicity_amplitude)
from cherenkov_wigner.kinematics import ElectronPacket, triangle_geometry
from cherenkov_wigner.medium import AnalyticMedium, ConstantMedium
from cherenkov_wigner.observables import flash_stats
from cherenkov_wigner.svgplot import polyline_svg
from cherenkov_wigner.units import convert_units

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)


def shift_curve(beta, n, omega, p_perp, medium, thetas_deg, branch=1):
    out = []
    for thd in thetas_deg:
        geom = triangle_geometry(p_perp, 0.99 * p_perp, beta, omega, n,
                                 math.radians(thd), branch=branch)
        if geom is None:
            out.append((math.nan, math.nan))
            continue
        packet = ElectronPacket(geom.p, p_perp)
        stats = flash_stats(geom, packet, medium, np.zeros(3), 0.0)
        out.append((stats.delta_t, stats.sigma_t))
    return np.array(out)


thetas = np.linspace(2.0, 178.0, 89)

# weak dispersion, accelerator regime
beta, n, omega, p_perp = 0.999, 1.3, 1e-6, 1e-6
curve_p = shift_curve(beta, n, omega, p_perp, ConstantMedium(n), thetas, +1)
curve_m = shift_curve(beta, n, omega, p_perp, ConstantMedium(n), thetas, -1)
print("weak dispersion (beta=0.999, n=1.3, p_perp=1e-6):")
print(f"  |shift| at 30 deg: {abs(curve_p[14, 0]):.3g} t_c "
      f"= {convert_units(abs(curve_p[14, 0]), 't_c', 'fs'):.3g} fs")
print(f"  mirror branches are exact opposites: "
      f"{np.nanmax(np.abs(curve_p[:, 0] + curve_m[:, 0])):.2e} t_c residual")
print(f"  flash duration dominates everywhere: "
      f"{np.nanmin(curve_p[:, 1] - np.abs(curve_p[:, 0])):.3g} t_c margin")
geom = triangle_geometry(p_perp, 0.99 * p_perp, beta, omega, n,
                         math.radians(30.0))
phi = combined_phase_gradient(geom)
print(f"  amplitude phase at 30 deg: {helicity_amplitude(geom).phase:.3f} "
      "rad; transverse part of its gradient: "
      f"{math.hypot(phi[0], phi[1]) * 2.0 * p_perp:.3f} / (2 p_perp)")
polyline_svg(OUT / "arrival_shift_weak.svg", thetas,
             [curve_p[:, 0], curve_m[:, 0], curve_p[:, 1]],
             title="arrival-time shift, weak dispersion",
             xlabel="theta_k [deg]", ylabel="time [t_c]",
             labels=["shift (+branch)", "shift (-branch)", "flash duration"])

# slow-light sodium vapor: the shift reaches the picosecond range
n0, omega0 = 1.001, 2e-5
sodium = AnalyticMedium.from_dispersion_params(n0, omega0, 5e6)
curve_na = shift_curve(0.999, n0, omega0, 1e-5, sodium, thetas)
ps = convert_units(1.0, "t_c", "ps")
print("sodium slow light (n=1.001, D=5e6):")
print(f"  |shift| at 5 deg: {abs(curve_na[1, 0]) * ps:.0f} ps; "
      f"at 40 deg: {abs(curve_na[19, 0]) * ps:.0f} ps")
polyline_svg(OUT / "arrival_shift_sodium.svg", thetas,
             [curve_na[:, 0] * ps],
             title="arrival-time shift in a slow-light medium",
             xlabel="theta_k [deg]", ylabel="shift [ps]")
print(f"wrote two SVG plots under {OUT}")
