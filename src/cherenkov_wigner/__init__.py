"""Phase-space observables and Wigner-function maps for Cherenkov photon
emission by an electron wave packet, in natural units (hbar = c = m_e = 1).
"""

from . import amplitudes, kinematics, medium, numerics, observables, \
    svgplot, units, wignerfield
from .kinematics import (ElectronPacket, EmissionGeometry, Momentum3,
                         cherenkov_angle_classical, cherenkov_angle_quantum,
                         cutoff_frequency, energy, mach_angle,
                         triangle_angles, triangle_geometry)
from .medium import (AnalyticMedium, ConstantMedium, TabulatedMedium,
                     load_index_table)
from .observables import (PhaseSpaceKernel, flash_stats, gouy_phase,
                          singular_angles, spread_times_at_angle,
                          spreading_times)
from .wignerfield import (EmissionScenario, MapGrid, SnapshotMap, WignerMap,
                          delta_p_scan, evaluate_map, evaluate_point,
                          evaluate_point_reference, near_field_snapshot)

__version__ = "0.1.0"
