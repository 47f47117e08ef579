"""Evaluation of the reduced master integral over the formation time t':
pointwise Wigner-function values, 2-D maps in the plane of the shifted
coordinate R, the near-field snapshot limit, the momentum-marginal weight,
and the final-electron displacement scan.

The production path is the manifestly real cosine form

    W ~ pref * 2 Int_0^{t_out} dt' (1/G) exp(-R^2/R_eff^2)
        cos(t' (eps - eps' - omega) - g/2 + R^2/R_im^2),

with G, g, R_eff and R_im taken from the complex eta/chi algebra of
``observables.PhaseSpaceKernel``.  The complex symmetric-interval form over
[-t_out, t_out] is kept as an independent reference evaluator.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import amplitudes, numerics, observables
from .kinematics import (ElectronPacket, EmissionGeometry, Momentum3, energy,
                         triangle_rules_hold, triangle_angles,
                         reconstruct_p_perp)
from .medium import MediumModel
from .observables import PhaseSpaceKernel, WkbFlags, count_flags

__all__ = [
    "EmissionScenario",
    "MapGrid",
    "WignerMap",
    "SnapshotMap",
    "NonGaussianPhase",
    "OffShell",
    "integrand",
    "evaluate_point",
    "evaluate_point_reference",
    "evaluate_map",
    "delta_p_scan",
    "near_field_snapshot",
    "momentum_marginal_weight",
    "default_grid",
    "central_value",
]


class NonGaussianPhase(ValueError):
    """Snapshot mode supports only packets with vanishing phase."""


class OffShell(ValueError):
    """No on-shell frequency exists for the requested emission angles."""


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
            lambda_gamma=self.lambda_gamma if self.lambda_gamma else 1)

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
    and per-node evaluation flags retained; ``panels`` and ``rounds`` hold
    each row quadrature's mesh size and refinement passes (not written to
    the CSV)."""

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


class _Context:
    """Per-scenario precomputation: kernel, constant prefactor, the
    oscillation-rate hint and the scenario-wide WKB flags."""

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
        self.base_flags = int(observables.wkb_flags(
            self.geom, scenario.packet, scenario.medium, scenario.dispersive))
        # natural magnitude of the t' integral, Int dt'/G: sets the scale of
        # absolute quadrature tolerances (the integrand envelope is 1/G)
        t_sample = np.linspace(0.0, scenario.t_out, 513)
        self.envelope_scale = float(np.trapezoid(
            1.0 / self.kernel.big_g(t_sample), t_sample))

    def integrand_for(self, R) -> callable:
        """Master integrand (prefactor excluded) at one node R of shape (3,)
        or at k nodes of shape (k, 3); ``f(t)`` then has shape (len(t),)
        or (k, len(t)).  The t'-dependent coefficients are computed once
        per call and shared by the nodes, which enter only through A and
        B."""
        R = np.asarray(R, dtype=float)
        a_dir, b_dir = self.kernel.direction_factors(R.reshape(-1, 3))
        a_dir, b_dir = a_dir[:, None], b_dir[:, None]
        delta_eps = self.kernel.delta_eps

        def f(t):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            pre = self.kernel.prefactor_complex(t)
            c_a, c_b = self.kernel.exponent_coefficients(t)
            env = c_a.real * a_dir + c_b.real * b_dir
            osc = c_a.imag * a_dir + c_b.imag * b_dir
            out = np.abs(pre) * np.exp(env) * np.cos(
                np.angle(pre) + t * delta_eps + osc)
            return out if R.ndim == 2 else out[0]

        return f

    def _quad_options(self, rel_tol, abs_tol, max_panels) -> dict:
        if abs_tol is None:
            abs_tol = max(1e-10 * self.envelope_scale, 1e-300)
        # the Gouy knee: the integrand's boundary layer at t' = 0
        spread = self.kernel.spread
        knee = min(abs(spread.t_d), abs(spread.t_d_tilde))
        return dict(abs_tol=abs_tol, rel_tol=rel_tol,
                    phase_rate_hint=self.phase_rate_hint,
                    max_panels=max_panels,
                    knee=knee if math.isfinite(knee) and knee > 0 else None)

    def map_abs_tol(self, grid: "MapGrid", rel_tol: float,
                    max_panels: int):
        """Default absolute tolerance of a map's quadratures: rel_tol times
        the largest |integral| on the grid row nearest R = 0, a lower bound
        of the map's scale, so that every node lands within about rel_tol
        of that scale; never below 1e-14 of the envelope integral.

        Returns (abs_tol, iy, row): the pilot row ``iy`` in the form of
        ``nodes`` when it converged and each of its nodes already meets
        that tolerance, else None."""
        iy = int(np.argmin(np.abs(grid.ys())))
        res = self._batch(_row_nodes(grid, iy), rel_tol, None, max_panels)
        abs_tol = max(rel_tol * float(np.max(np.abs(res.values))),
                      1e-14 * self.envelope_scale)
        met = res.converged.all() and np.all(
            res.error_estimates
            <= np.maximum(abs_tol, rel_tol * np.abs(res.values)))
        return abs_tol, iy, (self._row(res) if met else None)

    def _batch(self, R, rel_tol, abs_tol, max_panels):
        return numerics.integrate_batch(
            self.integrand_for(R), 0.0, self.scenario.t_out,
            **self._quad_options(rel_tol, abs_tol, max_panels))

    def _row(self, res):
        """The batch's values and error estimates with the prefactor
        applied, its flags, panel count and refinement rounds."""
        flags = np.where(res.converged, self.base_flags,
                         self.base_flags | int(WkbFlags.QUAD_NONCONVERGED))
        return (2.0 * self.prefactor * res.values,
                2.0 * self.prefactor * res.error_estimates,
                flags.astype(np.uint16), res.panels_used, res.rounds)

    def nodes(self, R, rel_tol: float, abs_tol: Optional[float],
              max_panels: int):
        """k nodes R of shape (k, 3) on one shared adaptive mesh: arrays of
        values, error estimates and flags, then the mesh's panel count and
        refinement rounds."""
        return self._row(self._batch(R, rel_tol, abs_tol, max_panels))


def integrand(scenario: EmissionScenario, R, t_prime):
    """Master integrand (prefactor excluded): (1/G) exp(-R^2/R_eff^2)
    cos(t'(eps - eps' - omega) - g/2 + R^2/R_im^2), evaluated through the
    complex eta/chi route."""
    ctx = _Context(scenario)
    f = ctx.integrand_for(R)
    out = f(t_prime)
    return float(out[0]) if np.ndim(t_prime) == 0 else out


def evaluate_point(scenario: EmissionScenario, R, rel_tol: float = 1e-10,
                   abs_tol: Optional[float] = None, max_panels: int = 4096):
    """Wigner-function value at R: adaptive quadrature of the cosine form
    over [0, t_out], doubled, times the scenario prefactor.  A point is the
    one-node row of a map, on the map's quadrature path.

    Returns (value, error_estimate, flags)."""
    ctx = _Context(scenario)
    value, error, flags, *_ = ctx.nodes(np.reshape(R, (1, 3)), rel_tol,
                                        abs_tol, max_panels)
    return float(value[0]), float(error[0]), int(flags[0])


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
    match ``evaluate_point`` and its imaginary part should vanish."""
    ctx = _Context(scenario)
    x, w = _gl_nodes()
    edges = _reference_edges(ctx, R)
    a_dir, b_dir = ctx.kernel.direction_factors(np.asarray(R, float))
    half = 0.5 * np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    t = centers[:, None] + half[:, None] * x[None, :]
    pre = ctx.kernel.prefactor_complex(t)
    c_a, c_b = ctx.kernel.exponent_coefficients(t)
    expo = c_a * a_dir + c_b * b_dir + 1j * t * ctx.kernel.delta_eps
    vals = pre * np.exp(expo)
    # t' > 0 plus the conjugate contribution from t' < 0
    total = np.sum(half[:, None] * w[None, :] * (vals + np.conj(vals)))
    return ctx.prefactor * complex(total)


def default_grid(scenario: EmissionScenario, nx: int = 128, ny: int = 128,
                 z: float = 0.0) -> MapGrid:
    """Grid extents of +-4 R_eff(t_out) per axis (capped at the electron
    flight distance beta * t_out) around the packet center."""
    return _context_grid(_Context(scenario), nx, ny, z)


def _context_grid(ctx: _Context, nx: int = 128, ny: int = 128,
                  z: float = 0.0) -> MapGrid:
    """``default_grid`` of the context's scenario."""
    t_out = ctx.scenario.t_out
    cap = max(ctx.geom.beta, float(np.linalg.norm(ctx.kernel.u_k))) * t_out
    halves = []
    for axis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        expo = complex(ctx.kernel.exponent_complex(t_out, axis))
        r_eff = math.inf if expo.real >= 0 else 1.0 / math.sqrt(-expo.real)
        halves.append(min(4.0 * r_eff, cap))
    return MapGrid.centered(halves[0], halves[1], nx, ny, z)


def _row_nodes(grid: MapGrid, iy: int) -> np.ndarray:
    """The (nx, 3) node coordinates of grid row ``iy``."""
    xs = grid.xs()
    return np.column_stack([xs, np.full(grid.nx, grid.ys()[iy]),
                            np.full(grid.nx, grid.z)])


def _mirror_sources(grid: MapGrid, kept) -> dict:
    """{row: source row} of the rows that are their source reversed in X,
    W(R) = W(-R): row ny-1-iy mirrors row iy on a Z = 0 grid whose nodes
    are symmetric about 0.  A row in ``kept`` is a source."""
    # end nodes, not extents: a one-column grid sits at x_min
    xs, ys = grid.xs(), grid.ys()
    if not (xs[0] == -xs[-1] and ys[0] == -ys[-1] and grid.z == 0.0):
        return {}
    pairs = ((iy, grid.ny - 1 - iy) for iy in range(grid.ny // 2))
    return dict((b, a) if b not in kept else (a, b) for a, b in pairs)


# A pool worker's context and row arguments, built once per process by
# _init_worker rather than once per row.
_WORKER_ARGS: tuple = ()


def _init_worker(scenario, grid, *tols):
    global _WORKER_ARGS
    _WORKER_ARGS = (_Context(scenario), grid, tols)


def _worker_row(iy):
    ctx, grid, tols = _WORKER_ARGS
    return ctx.nodes(_row_nodes(grid, iy), *tols)


def _env_workers() -> int:
    """Worker count from CHR_WORKERS (default 1), an integer >= 1."""
    raw = os.environ.get("CHR_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"CHR_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


def evaluate_map(scenario: EmissionScenario, grid: Optional[MapGrid] = None,
                 workers: Optional[int] = None, rel_tol: float = 1e-9,
                 abs_tol: Optional[float] = None,
                 max_panels: int = 4096) -> WignerMap:
    """Evaluate the Wigner function on a 2-D grid, normalized to
    max |value| = 1 (the raw scale is kept in the result).

    Each grid row is one quadrature on a mesh shared by its nodes.  By
    default every node is held to about ``rel_tol`` of the map's scale
    (see ``_Context.map_abs_tol``), and the pilot row that sets that
    tolerance is kept when it already meets it.  On a grid at Z = 0 whose
    nodes are symmetric about 0 in X and Y (``MapGrid.centered``,
    ``default_grid``), only one row of each mirror pair (iy, ny-1-iy) is
    integrated, the kept pilot row being the source of its pair, and the
    other is that row reversed in X, since W(R) = W(-R); any other grid
    integrates every row.  The integrated rows are data-parallel across
    ``workers`` processes (default from CHR_WORKERS, else serial); the
    output is deterministic and independent of the worker count.
    """
    if workers is None:
        workers = _env_workers()
    ctx = _Context(scenario)
    if grid is None:
        grid = _context_grid(ctx)
    done = {}
    if abs_tol is None:
        abs_tol, iy, pilot = ctx.map_abs_tol(grid, rel_tol, max_panels)
        if pilot is not None:
            done[iy] = pilot
    tols = (rel_tol, abs_tol, max_panels)
    mirrored = _mirror_sources(grid, done)
    todo = [iy for iy in range(grid.ny)
            if iy not in done and iy not in mirrored]
    if workers <= 1:
        done.update((iy, ctx.nodes(_row_nodes(grid, iy), *tols))
                    for iy in todo)
    else:
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(scenario, grid, *tols)) as pool:
            done.update(zip(todo, pool.map(
                _worker_row, todo,
                chunksize=max(1, len(todo) // (4 * workers)))))
    for iy, source in mirrored.items():
        value, error, flag, panels, rounds = done[source]
        done[iy] = (value[::-1], error[::-1], flag[::-1], panels, rounds)
    values, errors, flags, panels, rounds = (
        np.array(part) for part in zip(*(done[iy] for iy in range(grid.ny))))

    scale = float(np.max(np.abs(values)))
    if scale > 0.0:
        values = values / scale
        errors = errors / scale
    return WignerMap(grid=grid, values=values, scale=scale, flags=flags,
                     error_estimates=errors, meta=_scenario_meta(ctx),
                     panels=panels, rounds=rounds)


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
        "lambda_gamma": scenario.lambda_gamma or "sum",
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
    diffraction time t_d^(e) = gamma/sigma^2, center drifting at u_p."""
    packet = scenario.packet
    if packet.phase_model is not None:
        raise NonGaussianPhase("snapshot mode requires a pure Gaussian "
                               "packet (phase_model None)")
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


def momentum_marginal_weight(scenario: EmissionScenario) -> float:
    """Relative spectral-angular detection weight at the on-shell point,
    i.e. the regular factor of the momentum marginal of the Wigner
    function; independent of all phases.

    For the momentum-balance scenario the on-shell frequency is solved for
    at the scenario's angles; with an explicit final electron the initial
    transverse momentum is reconstructed instead, and the weight vanishes
    when the transverse triangle cannot close.
    """
    medium = scenario.medium
    packet = scenario.packet
    if scenario.p_prime is None:
        mean = packet.mean_momentum
        lo, hi = medium.domain()
        band = (max(1e-9 * scenario.omega, lo), min(hi, 0.99 * energy(mean)))

        eps0 = energy(mean)

        def mismatch(w):
            n = medium.index(w)[0]
            k = Momentum3.from_spherical(n * w, scenario.theta_k,
                                         scenario.phi_k)
            # eps - eps' rewritten cancellation-free via the squared masses
            delta = (2.0 * mean.dot(k) - k.mag2) / (eps0 + energy(mean - k))
            return (delta - w) / w

        ws = np.geomspace(band[0], band[1], 200)
        vals = [mismatch(w) for w in ws]
        bracket = None
        for i in range(len(ws) - 1):
            if vals[i] == 0.0:
                bracket = (ws[i], ws[i])
                break
            if vals[i] * vals[i + 1] < 0:
                bracket = (ws[i], ws[i + 1])
                break
        if bracket is None:
            raise OffShell("no on-shell frequency in the scenario band")
        w_star = (bracket[0] if bracket[0] == bracket[1] else
                  numerics.find_root(mismatch, bracket[0], bracket[1],
                                     tol=1e-15 * bracket[1]))
        n = medium.index(w_star)[0]
        k = Momentum3.from_spherical(n * w_star, scenario.theta_k,
                                     scenario.phi_k)
        p = mean
        p_prime = mean - k
        omega = w_star
    else:
        # on-shell: reconstruct the initial transverse momentum and close
        # the transverse triangle (the weight is phi'-independent, so the
        # final electron may be rotated to the closing azimuth)
        omega = scenario.omega
        n = medium.index(omega)[0]
        k = scenario.photon_momentum()
        old_prime = scenario.p_prime
        p_perp = reconstruct_p_perp(old_prime.perp, old_prime.z, k.perp, k.z,
                                    omega, n)
        if not triangle_rules_hold(p_perp, old_prime.perp, k.perp):
            return 0.0
        tri = triangle_angles(p_perp, old_prime.perp, k.perp)
        phi_prime = k.phi - (math.pi - tri.vartheta)
        p_prime = Momentum3(old_prime.perp * math.cos(phi_prime),
                            old_prime.perp * math.sin(phi_prime), old_prime.z)
        p = p_prime + k

    geom = EmissionGeometry(p, p_prime, k, omega,
                            lambda_e=packet.helicity,
                            lambda_prime=scenario.lambda_prime,
                            lambda_gamma=scenario.lambda_gamma or 1)
    m2 = _mod_squared(geom, scenario.lambda_gamma)
    eps = geom.epsilon
    eps_p = geom.epsilon_prime
    sigma = packet.sigma
    packet_density = ((2.0 * math.sqrt(math.pi) / sigma) ** 3
                      * math.exp(-(p - packet.mean_momentum).mag2 / sigma ** 2))
    return (omega / (2.0 * n * n) * (2.0 * math.pi) ** 2
            * 4.0 * math.pi / (2.0 * omega * n * n * 2.0 * eps * 2.0 * eps_p)
            * packet_density * m2)
