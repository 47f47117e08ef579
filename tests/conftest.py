import math
from pathlib import Path

import pytest

from cherenkov_wigner.kinematics import (ElectronPacket, Momentum3,
                                         momentum_magnitude,
                                         triangle_geometry)
from cherenkov_wigner.medium import ConstantMedium
from cherenkov_wigner.wignerfield import EmissionScenario

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
ICE_TABLE = DATA_DIR / "ice_refractive_index.csv"


def balance_scenario(beta=0.99, n=1.4, omega=1e-5, sigma=1e-5,
                     theta_frac=1.0, t_out=1e6, phi_k=0.5 * math.pi,
                     lambda_gamma=None):
    """Momentum-balance scenario with theta_k at a multiple of the classical
    Cherenkov angle; the packet mean momentum defines the z axis."""
    theta_ch = math.acos(1.0 / (beta * n))
    mean = Momentum3(0.0, 0.0, momentum_magnitude(beta))
    packet = ElectronPacket(mean, sigma)
    return EmissionScenario(packet=packet, medium=ConstantMedium(n),
                            omega=omega, theta_k=theta_frac * theta_ch,
                            phi_k=phi_k, t_out=t_out,
                            lambda_gamma=lambda_gamma)


def acceptance_11_scenario(beta, n, omega, sigma, theta_frac, t_out,
                           phi_k=0.5 * math.pi):
    """A scenario of acceptance 11's draws: theta_k at theta_frac times the
    classical Cherenkov angle (0.5 rad below threshold), at least 0.05."""
    theta_ch = (math.acos(min(1.0, 1.0 / (beta * n))) if beta * n > 1.0
                else 0.5)
    mean = Momentum3(0.0, 0.0, momentum_magnitude(beta))
    return EmissionScenario(packet=ElectronPacket(mean, sigma),
                            medium=ConstantMedium(n), omega=omega,
                            theta_k=max(0.05, theta_ch * theta_frac),
                            phi_k=phi_k, t_out=t_out)


def triangle_from_beta(beta, n, omega, p_perp, theta_k, pp_ratio=0.99,
                       phi_k=0.5 * math.pi, branch=1, lambda_gamma=1,
                       sigma=None):
    """Transverse-triangle geometry at initial electron speed beta with
    pp_perp = pp_ratio * p_perp, and a packet about p of width sigma
    (default p_perp).  Returns (geom, packet) or None when the triangle
    cannot close."""
    geom = triangle_geometry(p_perp, pp_ratio * p_perp, beta, omega, n,
                             theta_k, phi_k, branch, lambda_gamma=lambda_gamma)
    if geom is None:
        return None
    packet = ElectronPacket(geom.p, sigma if sigma is not None else p_perp)
    return geom, packet


@pytest.fixture
def rng():
    import numpy as np
    return np.random.default_rng(20240817)
