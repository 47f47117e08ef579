"""Strong material dispersion from a tabulated refractive index.

Loads the bundled ice-like n(omega) sample, reads off the dimensionless
dispersion strengths, and shows how the spreading-time profile and the
arrival-time shift react to the first-derivative strength D.

    python3 demos/ice_dispersion.py
"""

import math
from pathlib import Path

import numpy as np

from cherenkov_wigner.kinematics import (ElectronPacket, lorentz_gamma,
                                         triangle_geometry)
from cherenkov_wigner.medium import (EV_PER_ME, AnalyticMedium,
                                     load_index_table)
from cherenkov_wigner.observables import flash_stats, spread_times_at_angle
from cherenkov_wigner.svgplot import polyline_svg
from cherenkov_wigner.units import convert_units

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

table = Path(__file__).resolve().parents[1] / "data" / \
    "ice_refractive_index.csv"
ice = load_index_table(table)
for ev in (0.37, 4.0, 4.3):
    w = ev / EV_PER_ME
    n, n1, n2 = ice.index(w)
    dp = ice.dispersion_params(w)
    print(f"{ev:4.2f} eV: n = {n:.3f}, D = {dp.d_param:+8.2f}, "
          f"E = {dp.e_param:+.2e}")

# spreading-time profile for several dispersion strengths at fixed n
beta, n0, omega, sigma = 0.8, 1.5, 1e-6, 1e-5
eps = lorentz_gamma(beta)
thetas = np.linspace(5.0, 85.0, 161)
curves = [spread_times_at_angle(beta, n0, omega, eps, sigma,
                                np.radians(thetas), d_param=d).inv_t_d
          for d in (-0.1, 0.0, 0.1)]
polyline_svg(OUT / "ice_spreading_dispersion.svg", thetas, curves,
             title="inverse spreading time vs dispersion strength",
             xlabel="theta_k [deg]", ylabel="1/t_d [1/t_c]",
             labels=["D = -0.1", "D = 0", "D = +0.1"])
print("the negative-t_d interval widens with growing |D| "
      "(see ice_spreading_dispersion.svg)")

# arrival shift is exactly linear in D at fixed kinematics
beta, omega, p_perp = 0.99, 4.0 / EV_PER_ME, 1e-5
n_ice = ice.index(omega)[0]
geom = triangle_geometry(p_perp, 0.99 * p_perp, beta, omega, n_ice,
                         math.radians(41.5))
packet = ElectronPacket(geom.p, p_perp)
ds = np.linspace(-14.0, 5.0, 39)
ds = ds[np.abs(1.0 + ds) > 1e-6]  # skip the D = -1 group-velocity pole
shifts = []
for d in ds:
    med = AnalyticMedium.from_dispersion_params(n_ice, omega, float(d))
    shifts.append(flash_stats(geom, packet, med, np.zeros(3), 0.0,
                              dispersive=True).delta_t)
shifts = np.array(shifts)
slope = np.polyfit(ds, shifts, 1)[0]
print(f"shift slope d(dt)/dD = {convert_units(slope, 't_c', 'as'):.1f} as; "
      f"at the ice value D = -13.65 the shift is "
      f"{convert_units(np.interp(-13.65, ds, shifts), 't_c', 'fs'):+.3f} fs")
polyline_svg(OUT / "ice_shift_vs_dispersion.svg", ds, [shifts],
             title="arrival-time shift vs dispersion strength",
             xlabel="D", ylabel="shift [t_c]")
print(f"wrote plots under {OUT}")
