"""Evaluation of the reduced master integral over the formation time t':
pointwise Wigner-function values, 2-D maps in the plane of the shifted
coordinate R, the near-field snapshot limit and the final-electron
displacement scan.

The production path is the manifestly real cosine form

    W ~ pref * 2 Int_0^{t_out} dt' (1/G) exp(-R^2/R_eff^2)
        cos(t' (eps - eps' - omega) - g/2 + R^2/R_im^2),

with G, g, R_eff and R_im taken from the complex eta/chi algebra of
``observables.PhaseSpaceKernel``; where its phase turns fast, the
quadrature integrates the same integrand in log form, Re exp(L), on Levin
collocation panels.  The complex symmetric-interval form over
[-t_out, t_out] is kept as an independent reference evaluator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import amplitudes, numerics, observables
from .kinematics import (HELICITIES, ElectronPacket, EmissionGeometry,
                         Momentum3, energy)
from .medium import MediumModel
from .observables import PhaseSpaceKernel, WkbFlags, count_flags

__all__ = [
    "EmissionScenario",
    "MapGrid",
    "WignerMap",
    "SnapshotMap",
    "evaluate_point",
    "evaluate_point_reference",
    "evaluate_map",
    "delta_p_scan",
    "near_field_snapshot",
    "default_grid",
    "central_value",
]


@dataclass(frozen=True)
class EmissionScenario:
    """One emission configuration: packet, medium, photon mode (omega,
    theta_k, phi_k), final-electron choice and the evolution window t_out.

    ``p_prime=None`` selects momentum balance at the packet mean
    (DeltaP = 0); ``lambda_gamma=None`` sums |M|^2 over the photon helicity.
    """

    packet: ElectronPacket
    medium: MediumModel
    omega: float
    theta_k: float
    phi_k: float
    t_out: float
    p_prime: Optional[Momentum3] = None
    lambda_prime: float = 0.5
    lambda_gamma: Optional[int] = None
    dispersive: Optional[bool] = None

    def __post_init__(self):
        for name in ("t_out", "omega"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {value!r}")
        for name in ("theta_k", "phi_k"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.p_prime is not None and not np.all(
                np.isfinite(self.p_prime.as_array())):
            raise ValueError(f"p_prime must be finite, got {self.p_prime!r}")
        for name, allowed in (("lambda_prime", HELICITIES["lambda_prime"]),
                              ("lambda_gamma",
                               (None, *HELICITIES["lambda_gamma"]))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, "
                                 f"got {getattr(self, name)!r}")

    def photon_momentum(self) -> Momentum3:
        n = self.medium.index(self.omega)[0]
        return Momentum3.from_spherical(n * self.omega, self.theta_k,
                                        self.phi_k)

    def geometry(self) -> EmissionGeometry:
        k = self.photon_momentum()
        p_prime = self.p_prime
        if p_prime is None:
            p_prime = self.packet.mean_momentum - k
        return EmissionGeometry.from_final_state(
            p_prime, k, self.omega, lambda_e=self.packet.helicity,
            lambda_prime=self.lambda_prime,
            lambda_gamma=1 if self.lambda_gamma is None else self.lambda_gamma)

    def delta_p(self) -> float:
        """|p' + k - <p>|, the momentum-balance mismatch."""
        geom = self.geometry()
        return (geom.p - self.packet.mean_momentum).mag


@dataclass(frozen=True)
class MapGrid:
    """Rectangular (X, Y) grid at fixed Z, node-centered and inclusive of
    the extents."""

    x_min: float
    x_max: float
    nx: int
    y_min: float
    y_max: float
    ny: int
    z: float = 0.0

    def __post_init__(self):
        for name in ("nx", "ny"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"grid {name} must be an integer, "
                                 f"got {getattr(self, name)!r}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must be non-empty")
        for name in ("x_min", "x_max", "y_min", "y_max", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"grid {name} must be finite, "
                                 f"got {getattr(self, name)!r}")

    @classmethod
    def centered(cls, half_x: float, half_y: float, nx: int, ny: int,
                 z: float = 0.0) -> "MapGrid":
        return cls(-half_x, half_x, nx, -half_y, half_y, ny, z)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)


def _format_float(x: float) -> str:
    return repr(float(x))


@dataclass
class WignerMap:
    """Normalized map values (max |value| scaled to 1) with the raw scale
    and per-node evaluation flags retained; ``panels`` and ``rounds`` hold,
    for each row, the ``panels_used`` and ``rounds`` of the
    ``BatchQuadrature`` record of the batch that integrated its source
    row: the pilot's own, or its row group's, shared by every row of the
    group (see ``evaluate_map``; not written to the CSV)."""

    grid: MapGrid
    values: np.ndarray
    scale: float
    flags: np.ndarray
    error_estimates: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)
    panels: Optional[np.ndarray] = None
    rounds: Optional[np.ndarray] = None

    def flag_counts(self) -> dict:
        return count_flags(self.flags)

    def to_csv(self, path) -> None:
        write_map_csv(path, self.grid, self.values, scale=self.scale,
                      meta=self.meta, flag_counts=self.flag_counts())


@dataclass
class SnapshotMap:
    """Transverse probability density of the spreading packet (the
    out-of-plane coordinate is marginalized), so the grid integral is the
    contained probability mass."""

    grid: MapGrid
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def mass(self) -> float:
        dx = (self.grid.x_max - self.grid.x_min) / max(self.grid.nx - 1, 1)
        dy = (self.grid.y_max - self.grid.y_min) / max(self.grid.ny - 1, 1)
        return float(np.sum(self.values) * dx * dy)

    def to_csv(self, path) -> None:
        write_map_csv(path, self.grid, self.values, scale=1.0, meta=self.meta,
                      flag_counts={})


def write_map_csv(path, grid: MapGrid, values: np.ndarray, scale: float,
                  meta: dict, flag_counts: dict) -> None:
    """CSV matrix with a '#'-prefixed header block of key: value lines.
    Rows run over Y nodes, columns over X nodes; shortest round-trip
    float formatting keeps output byte-deterministic."""
    path = Path(path)
    lines = ["# cherenkov-wigner map v1"]
    header = {
        "x_min": grid.x_min, "x_max": grid.x_max, "nx": grid.nx,
        "y_min": grid.y_min, "y_max": grid.y_max, "ny": grid.ny,
        "z": grid.z, "scale": scale,
    }
    header.update(meta)
    for key in header:
        lines.append(f"# {key}: {header[key]}")
    for fname, count in sorted(flag_counts.items()):
        lines.append(f"# flag.{fname}: {count}")
    for row in values:
        lines.append(",".join(_format_float(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_map_csv(path):
    """Inverse of ``write_map_csv``: returns (grid, values, meta)."""
    meta = {}
    rows = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        if raw.startswith("#"):
            body = raw[1:].strip()
            if ":" in body:
                key, _, val = body.partition(":")
                meta[key.strip()] = val.strip()
            continue
        if raw.strip():
            rows.append([float(tok) for tok in raw.split(",")])
    grid = MapGrid(float(meta["x_min"]), float(meta["x_max"]),
                   int(meta["nx"]), float(meta["y_min"]),
                   float(meta["y_max"]), int(meta["ny"]), float(meta["z"]))
    return grid, np.array(rows), meta


# scenario context ---------------------------------------------------------

def _mod_squared(geom: EmissionGeometry, lambda_gamma: Optional[int]) -> float:
    """|M|^2 summed over the photon helicity, or at the geometry's one
    helicity when ``lambda_gamma`` is set."""
    if lambda_gamma is None:
        return amplitudes.summed_mod_squared(geom)
    return amplitudes.helicity_amplitude(geom).mod_squared


def _x_normal(kernel: PhaseSpaceKernel) -> bool:
    """Whether X is normal to the plane of u_p and u_k: d = u_p - u_k has
    no X component and c = u_p x u_k lies along X, so A and B are even in
    X.  cos(pi/2) leaves ~6e-17, hence the 1e-15 of each norm."""
    d, c = kernel.diff, kernel.cross
    return bool(abs(d[0]) <= 1e-15 * math.hypot(*d)
                and max(abs(c[1]), abs(c[2])) <= 1e-15 * math.hypot(*c))


class _Context:
    """Per-scenario precomputation: kernel, constant prefactor, the
    oscillation-rate hint, the Gouy knee and the scenario-wide WKB
    flags."""

    def __init__(self, scenario: EmissionScenario):
        self.scenario = scenario
        self.geom = scenario.geometry()
        self.kernel = PhaseSpaceKernel.from_geometry(
            self.geom, scenario.packet, scenario.medium, scenario.dispersive)
        sigma = scenario.packet.sigma
        self.n = n = scenario.medium.index(scenario.omega)[0]
        m2 = _mod_squared(self.geom, scenario.lambda_gamma)
        eps = self.geom.epsilon
        eps_p = self.geom.epsilon_prime
        self.delta_p = dp = (self.geom.p - scenario.packet.mean_momentum).mag
        self.prefactor = (
            (2.0 * math.sqrt(math.pi) / sigma) ** 3 * math.sqrt(4.0 * math.pi)
            * (1.0 + n * n) / (2.0 * n * n) ** 2 / (4.0 * eps * eps_p)
            * m2 * math.exp(-(dp / sigma) ** 2))
        spread = self.kernel.spread
        # oscillation-rate hint: the energy mismatch plus the Gouy rate.
        # g'(0) = 1/t_d + 1/t_d~ overstates the latter wildly once
        # t_d~ << t_out (the Gouy swing is bounded by pi), so the rate is
        # capped by the bounded-variation equivalent g(t_out)/t_out.
        gouy_rate = min(abs(spread.inv_t_d + 1.0 / spread.t_d_tilde),
                        abs(float(self.kernel.gouy(scenario.t_out)))
                        / scenario.t_out)
        self.phase_rate_hint = abs(self.kernel.delta_eps) + gouy_rate
        # the Gouy knee: the integrand's boundary layer at t' = 0
        knee = min(abs(spread.t_d), abs(spread.t_d_tilde))
        self.knee = knee if math.isfinite(knee) and knee > 0 else None
        self.base_flags = int(observables.wkb_flags(self.geom, self.kernel))
        # natural magnitude of the t' integral, Int dt'/G: sets the scale of
        # absolute quadrature tolerances (the integrand envelope is 1/G).
        # np.trapezoid on np.linspace(0, t_out, 513), spelled out: the
        # same arithmetic without their argument handling
        t = np.arange(513.0) * (scenario.t_out / 512)
        t[-1] = scenario.t_out
        inv_g = 1.0 / self.kernel.big_g(t)
        self.envelope_scale = float(
            ((t[1:] - t[:-1]) * (inv_g[1:] + inv_g[:-1]) / 2.0).sum())

    def integrand_for(self, R) -> callable:
        """Master integrand (prefactor excluded) at one node R of shape (3,)
        or at k nodes of shape (k, 3); ``f(t)`` then has shape (len(t),)
        or (k, len(t)).  The t'-dependent coefficients are computed once
        per call and shared by the nodes, which enter only through A and
        B.  ``f.levin(t)`` returns the same rows in log form (L, L'), each
        of shape (k, len(t)), k = 1 for one node, with Re exp(L) the
        integrand and L' in closed form (see
        ``PhaseSpaceKernel.log_integrand_coefficients``): the form that
        ``numerics.integrate_batch`` takes for its Levin panels."""
        R = np.asarray(R, dtype=float)
        a_dir, b_dir = self.kernel.direction_factors(R.reshape(-1, 3))
        a_dir, b_dir = a_dir[:, None], b_dir[:, None]
        delta_eps = self.kernel.delta_eps

        def f(t):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            pre, c_a, c_b = self.kernel.integrand_coefficients(t)
            env = c_a.real * a_dir + c_b.real * b_dir
            osc = c_a.imag * a_dir + c_b.imag * b_dir
            out = np.abs(pre) * np.exp(env) * np.cos(
                np.angle(pre) + t * delta_eps + osc)
            return out if R.ndim == 2 else out[0]

        def levin(t):
            log_pre, c_a, c_b, d_pre, d_a, d_b = (
                self.kernel.log_integrand_coefficients(t))
            return (log_pre + c_a * a_dir + c_b * b_dir + 1j * delta_eps * t,
                    d_pre + d_a * a_dir + d_b * b_dir + 1j * delta_eps)

        f.levin = levin
        return f

    def nodes(self, R, rel_tol: float, abs_tol: Optional[float],
              max_panels: int,
              pilot: Optional[numerics.BatchQuadrature] = None):
        """The t' integrals (prefactor excluded) at k nodes R of shape
        (k, 3) on one shared adaptive mesh, each held to max(abs_tol,
        rel_tol times their largest |integral|); ``abs_tol`` None is a
        point's 1e-10 of the envelope integral.  A map row follows its
        ``pilot``, the record of the map's pilot batch: its start mesh
        gains the pilot's final edges when every pilot node converged, and
        it may take Levin panels only if the pilot did (see
        ``numerics.integrate_batch``).  Returns the quadrature's
        ``BatchQuadrature`` record and the nodes' flags."""
        if abs_tol is None:
            abs_tol = max(1e-10 * self.envelope_scale, 1e-300)
        f = self.integrand_for(R)
        follow = pilot is not None
        res = numerics.integrate_batch(
            f, 0.0, self.scenario.t_out, abs_tol=abs_tol, rel_tol=rel_tol,
            phase_rate_hint=self.phase_rate_hint, max_panels=max_panels,
            knee=self.knee,
            guide=pilot.edges if follow and pilot.converged.all() else None,
            levin=None if follow and not pilot.levin else f.levin)
        flags = np.where(res.converged, self.base_flags,
                         self.base_flags | int(WkbFlags.QUAD_NONCONVERGED))
        return res, flags.astype(np.uint16)


def _node(R) -> np.ndarray:
    """The node R as a float array of shape (3,); ``ValueError`` naming R
    when it is not three values or not finite."""
    R = np.asarray(R, dtype=float)
    if R.size != 3:
        raise ValueError(f"R must be three values, got shape {R.shape}")
    R = R.reshape(3)
    if not np.isfinite(R).all():
        raise ValueError(f"R must be finite, got {R.tolist()}")
    return R


def evaluate_point(scenario: EmissionScenario, R, rel_tol: float = 1e-10,
                   abs_tol: Optional[float] = None, max_panels: int = 4096):
    """Wigner-function value at R: adaptive quadrature of the cosine form
    over [0, t_out], doubled, times the scenario prefactor.  A point is the
    one-node row of a map, on the map's quadrature path.  A node ``R`` that
    is not three finite values raises ``ValueError`` naming R before any
    work; so do a tolerance that is not finite and positive and a
    ``max_panels`` that is not an integer >= 1, before any quadrature
    (see ``numerics.integrate_batch``).

    Returns (value, error_estimate, flags)."""
    R = _node(R)[None, :]
    ctx = _Context(scenario)
    res, flags = ctx.nodes(R, rel_tol, abs_tol, max_panels)
    scale = 2.0 * ctx.prefactor
    return (float(scale * res.values[0]),
            float(scale * res.error_estimates[0]), int(flags[0]))


@lru_cache(maxsize=1)
def _gl_nodes():
    """32-point Gauss-Legendre rule, built on first use, not at import."""
    return np.polynomial.legendre.leggauss(32)


def _reference_edges(ctx: "_Context", R, max_phase: float = 0.35,
                     max_panels: int = 8192) -> np.ndarray:
    """Fixed panel edges on [0, t_out] equidistributing the integrand's
    oscillation phase and envelope variation, with geometric refinement
    toward the Gouy-phase knee; regions where the envelope is dead (more
    than ~40 decades below its peak) need no resolution."""
    t_out = ctx.scenario.t_out
    spread = ctx.kernel.spread
    knee = max(min(abs(spread.t_d), abs(spread.t_d_tilde), t_out), 1e-12 * t_out)
    probe = np.unique(np.concatenate([
        np.linspace(0.0, t_out, 4097),
        np.geomspace(knee / 64.0, t_out, 1025),
    ]))
    a_dir, b_dir = ctx.kernel.direction_factors(np.asarray(R, float))
    c_a, c_b = ctx.kernel.exponent_coefficients(probe)
    expo = c_a * a_dir + c_b * b_dir
    phase = expo.imag + probe * ctx.kernel.delta_eps
    log_env = expo.real - np.log(np.abs(ctx.kernel.big_g(probe)))
    alive = (log_env - np.max(log_env)) > -100.0
    seg_alive = alive[:-1] | alive[1:]
    dm = (np.abs(np.diff(phase)) + 0.2 * np.abs(np.diff(log_env))) * seg_alive
    dm = dm + max_phase / 256.0  # minimum coverage everywhere
    measure = np.concatenate([[0.0], np.cumsum(dm)])
    n_panels = int(min(max(measure[-1] / max_phase, 64), max_panels))
    targets = np.linspace(0.0, measure[-1], n_panels + 1)
    edges = np.interp(targets, measure, probe)
    return np.unique(edges)


def evaluate_point_reference(scenario: EmissionScenario, R):
    """Brute-force reference: composite 32-point Gauss-Legendre quadrature
    of the complex integrand over the symmetric interval [-t_out, t_out],
    on a non-adaptive mesh graded by the integrand's analytic scales.

    Returns the complex integral times the prefactor; its real part should
    match ``evaluate_point`` and its imaginary part should vanish.  A node
    ``R`` that is not three finite values raises ``ValueError``."""
    R = _node(R)
    ctx = _Context(scenario)
    x, w = _gl_nodes()
    edges = _reference_edges(ctx, R)
    a_dir, b_dir = ctx.kernel.direction_factors(R)
    half = 0.5 * np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    t = centers[:, None] + half[:, None] * x[None, :]
    pre, c_a, c_b = ctx.kernel.integrand_coefficients(t)
    expo = c_a * a_dir + c_b * b_dir + 1j * t * ctx.kernel.delta_eps
    vals = pre * np.exp(expo)
    # t' > 0 plus the conjugate contribution from t' < 0
    total = np.sum(half[:, None] * w[None, :] * (vals + np.conj(vals)))
    return ctx.prefactor * complex(total)


def default_grid(scenario: EmissionScenario, nx: int = 128, ny: int = 128,
                 z: float = 0.0) -> MapGrid:
    """Grid extents of +-4 R_eff(t_out) per axis around the packet center,
    each capped at max(beta, |u_k|) * t_out, the farther of the electron's
    and the photon's flight distances.  Reads only the scenario's kernel:
    no amplitude, prefactor or envelope is evaluated."""
    geom = scenario.geometry()
    kernel = PhaseSpaceKernel.from_geometry(
        geom, scenario.packet, scenario.medium, scenario.dispersive)
    return _kernel_grid(kernel, geom.beta, scenario.t_out, nx, ny, z)


def _kernel_grid(kernel: PhaseSpaceKernel, beta: float, t_out: float,
                 nx: int = 128, ny: int = 128, z: float = 0.0) -> MapGrid:
    """``default_grid`` of a scenario's kernel, electron speed and t_out."""
    cap = max(beta, float(np.linalg.norm(kernel.u_k))) * t_out
    halves = []
    for axis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        r_eff, _ = kernel.correlation_scales(t_out, axis)
        halves.append(min(4.0 * r_eff, cap))
    return MapGrid.centered(halves[0], halves[1], nx, ny, z)


def _source_rows(grid: MapGrid) -> np.ndarray:
    """Each row's source row under W(R) = W(-R) (see ``evaluate_map``)."""
    xs, ys, iy = grid.xs(), grid.ys(), np.arange(grid.ny)
    # end nodes, not extents: a one-column grid sits at x_min
    symmetric = xs[0] == -xs[-1] and ys[0] == -ys[-1] and grid.z == 0.0
    return np.minimum(iy, grid.ny - 1 - iy) if symmetric else iy


def _source_columns(ctx: _Context, grid: MapGrid) -> np.ndarray:
    """Each column's source column under W(x, y) = W(-x, y) (see
    ``evaluate_map``)."""
    xs, ix = grid.xs(), np.arange(grid.nx)
    symmetric = xs[0] == -xs[-1] and _x_normal(ctx.kernel)
    return np.minimum(ix, grid.nx - 1 - ix) if symmetric else ix


def evaluate_map(scenario: EmissionScenario, grid: Optional[MapGrid] = None,
                 workers: int = 1, rel_tol: float = 1e-9,
                 max_panels: int = 4096) -> WignerMap:
    """Evaluate the Wigner function on a 2-D grid, normalized to
    max |value| = 1 (the raw scale is kept in the result).

    Every node takes its value from a source node.  The integrand sees R
    only through A and B, both even in R, so W(R) = W(-R): on a Z = 0 grid
    whose nodes are symmetric about 0 in X and Y, row ny-1-iy is row iy
    reversed in X, and the lower row of each pair is the source row.  When
    X is normal to the plane of u_p and u_k (phi_k = 90 deg, no DeltaP
    along X), A and B are even in X alone, so W(x, y) = W(-x, y) at any Z:
    if the X nodes are symmetric about 0, the lower column of each pair
    (ix, nx-1-ix) is the source column.  Other rows and columns are their
    own sources.  Each source row is integrated once, on its source
    columns and on a mesh its nodes share.  The source row nearest
    R = 0, the pilot, goes first: its nodes are held to ``rel_tol`` of
    their largest |integral|, a lower bound of the map's scale, but to no
    less than 1e-14 of the envelope integral Int dt'/G.  That tolerance,
    the ``tolerance`` of the pilot's ``BatchQuadrature`` record, is the
    absolute tolerance of every other source row, so every node, the
    pilot's by construction, is held to about ``rel_tol`` of the map's
    scale.  Every other source row follows the pilot's
    ``BatchQuadrature`` record (see ``_Context.nodes``).  When the pilot
    converged, the row starts on the pilot's final mesh: every row's start
    mesh depends only on the scenario and its rule, and the pilot's final
    edges hold it, so a row that the pilot's mesh resolves converges in
    its first round.  The row may take Levin panels only if the pilot took
    them (see ``numerics.integrate_batch``), so the rows of a
    Gauss-Kronrod pilot run exactly the Gauss-Kronrod quadrature.

    The other source rows are integrated in row groups: each group is one
    quadrature of the stacked nodes of consecutive source rows, as many rows
    as ``numerics.per_call`` fits beside the source columns and the pilot's
    panel count.  The groups depend only on the grid and the pilot, and no
    integrand call holds more rows x abscissae than the block that
    ``per_call`` divides.  Given the group's rule, a row's panel rules and
    sums read only its own samples, so a group that converges in its first
    round at the pilot's tolerance gives each row the bits it gets alone; a
    group that refines shares its cuts, and is held to ``rel_tol`` of its
    own largest |integral| when that exceeds the pilot's tolerance.  The
    pilot is batch 0 and each group one more: each batch's record fills its
    source rows' values, errors and flags on the source columns and their
    panels and rounds, and the mirror folds fill the other rows and columns.
    With ``workers`` > 1 the groups run on that many threads over the
    map's one context, else in a serial loop, and a map of one group
    starts no thread; each group is the same quadrature either way, so the
    map is bit-identical for any worker count.  ``workers`` and
    ``max_panels`` must be integers >= 1, else ``ValueError`` is raised
    before any quadrature.
    """
    if not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    ctx = _Context(scenario)
    if grid is None:
        grid = _kernel_grid(ctx.kernel, ctx.geom.beta, scenario.t_out)
    rows, cols = _source_rows(grid), _source_columns(ctx, grid)
    # each row's nodes on the source columns, shape (ny, max(cols) + 1, 3)
    x, y = np.meshgrid(grid.xs()[:cols.max() + 1], grid.ys())
    nodes = np.stack([x, y, np.full_like(x, grid.z)], axis=-1)
    first = rows[np.argmin(np.abs(grid.ys()))]
    batches = [ctx.nodes(nodes[first], rel_tol, 1e-14 * ctx.envelope_scale,
                         max_panels)]
    pilot = batches[0][0]
    # consecutive source rows, as many as fit one integrand call on the
    # pilot's mesh
    todo = np.setdiff1d(rows, first)
    size = numerics.per_call(nodes.shape[1], pilot.panels_used)
    groups = [todo[i:i + size] for i in range(0, todo.size, size)]

    def integrate(group):
        return ctx.nodes(nodes[group].reshape(-1, 3), rel_tol,
                         pilot.tolerance, max_panels, pilot)

    if workers == 1 or len(groups) < 2:
        batches.extend(map(integrate, groups))
    else:  # only a map of several groups starts threads and imports this
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            batches.extend(pool.map(integrate, groups))
    values, errors = np.empty(nodes.shape[:2]), np.empty(nodes.shape[:2])
    flags = np.empty(nodes.shape[:2], dtype=np.uint16)
    panels, rounds = np.empty(grid.ny, dtype=int), np.empty(grid.ny, dtype=int)
    for group, (res, batch_flags) in zip([[first], *groups], batches):
        for part, got in ((values, res.values), (errors, res.error_estimates),
                          (flags, batch_flags)):
            part[group] = got.reshape(len(group), -1)
        panels[group], rounds[group] = res.panels_used, res.rounds
    # a row taken from its mirror row is reversed in X
    ix = np.where((rows != np.arange(grid.ny))[:, None], cols[::-1], cols)
    values, errors, flags = (np.take_along_axis(part[rows], ix, axis=1)
                             for part in (values, errors, flags))
    values, errors = 2.0 * ctx.prefactor * values, 2.0 * ctx.prefactor * errors

    scale = float(np.max(np.abs(values)))
    if scale > 0.0:
        values = values / scale
        errors = errors / scale
    return WignerMap(grid=grid, values=values, scale=scale, flags=flags,
                     error_estimates=errors, meta=_scenario_meta(ctx),
                     panels=panels[rows], rounds=rounds[rows])


def _scenario_meta(ctx: _Context) -> dict:
    scenario = ctx.scenario
    return {
        "beta": ctx.geom.beta,
        "n": ctx.n,
        "omega": scenario.omega,
        "sigma": scenario.packet.sigma,
        "theta_k": scenario.theta_k,
        "phi_k": scenario.phi_k,
        "t_out": scenario.t_out,
        "delta_p": ctx.delta_p,
        "lambda_gamma": ("sum" if scenario.lambda_gamma is None
                         else scenario.lambda_gamma),
    }


def central_value(wmap: WignerMap) -> float:
    """Normalized value at the grid node nearest the packet center R = 0."""
    ix = int(np.argmin(np.abs(wmap.grid.xs())))
    iy = int(np.argmin(np.abs(wmap.grid.ys())))
    return float(wmap.values[iy, ix])


def delta_p_scan(scenario: EmissionScenario, offsets: Sequence[float],
                 grid: Optional[MapGrid] = None, **map_kwargs) -> list:
    """Maps with the final electron displaced so that DeltaP = offset along
    X.  At phi_k = 90 degrees X is normal to the plane of u_p and u_k, so
    raw intensities scale as exp(-DeltaP^2/sigma^2) while the normalized
    shape stays put."""
    sigma = scenario.packet.sigma
    for off in offsets:
        if not math.isfinite(off):
            raise ValueError(f"offsets must be finite, got {off!r}")
        if abs(off) > 3.0 * sigma + 1e-300:
            raise ValueError(f"offset {off} outside +-3 sigma")
    base_prime = scenario.packet.mean_momentum - scenario.photon_momentum()
    if grid is None:
        grid = default_grid(scenario)
    maps = []
    for off in offsets:
        shifted = base_prime + Momentum3(off, 0.0, 0.0)
        sc = replace(scenario, p_prime=shifted)
        wmap = evaluate_map(sc, grid=grid, **map_kwargs)
        wmap.meta["delta_p_offset"] = off
        maps.append(wmap)
    return maps


def near_field_snapshot(scenario: EmissionScenario, grid: MapGrid,
                        t: float) -> SnapshotMap:
    """Transverse probability density |psi(r, t)|^2 of the freely spreading
    Gaussian packet: width sigma_perp(t) with the laboratory-frame electron
    diffraction time t_d^(e) = gamma/sigma^2, center drifting at u_p.  A
    ``t`` that is not finite raises ``ValueError``."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    packet = scenario.packet
    mean = packet.mean_momentum
    eps = energy(mean)
    u_p = mean.as_array() / eps
    t_de = eps / packet.sigma ** 2
    sp2 = (1.0 + (t / t_de) ** 2) / packet.sigma ** 2
    center = u_p * t
    xs = grid.xs()
    ys = grid.ys()
    gx = np.exp(-(xs - center[0]) ** 2 / sp2)
    gy = np.exp(-(ys - center[1]) ** 2 / sp2)
    values = np.outer(gy, gx) / (math.pi * sp2)
    meta = {"t": t, "sigma_perp": math.sqrt(sp2), "t_d_electron": t_de,
            "center_x": center[0], "center_y": center[1]}
    return SnapshotMap(grid=grid, values=values, meta=meta)
