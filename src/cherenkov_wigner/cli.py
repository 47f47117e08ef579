"""Scenario-driven command line: parses flat key-value config files, runs
named studies mapped to the library's capabilities, and writes CSV tables
plus standalone SVG plots.

Usage:  chr <study> --config <path> [--out-dir DIR] [--workers N]
        [--format csv|csv+svg]

Exit codes: 0 success, 2 completed with warnings (WKB or quadrature
flags, one stderr line per raised flag), 1 error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import observables, svgplot
from .kinematics import (ElectronPacket, Momentum3, cherenkov_angle_classical,
                         lorentz_gamma, momentum_magnitude,
                         triangle_geometry, triangle_rules_hold)
from .medium import (AnalyticMedium, ConstantMedium, MediumModel,
                     load_index_table)
from .observables import (singular_angles, singular_width_approx,
                          spread_times_at_angle)
from .units import convert_units
from .wignerfield import (EmissionScenario, MapGrid, default_grid,
                          delta_p_scan, evaluate_map, near_field_snapshot)

__all__ = ["ScenarioConfig", "ParseError", "ValidationError", "parse_config",
           "run_study", "convert_units", "main", "STUDIES"]

class ParseError(ValueError):
    """Config file is syntactically malformed."""


class ValidationError(ValueError):
    """Config parsed but is inconsistent with the requested study."""


@dataclass
class ScenarioConfig:
    """Validated study configuration (angles in radians, everything else in
    natural units)."""

    study: str
    beta: float = 0.99
    sigma: float = 1e-4
    omega: float = 1e-5
    t_out: float | None = None
    t_prime: float = 0.0
    theta_k: float | None = None
    phi_k: float = 0.5 * math.pi
    p_perp: float | None = None
    pp_perp_ratio: float = 0.99
    branch: int = 1
    r_mag: float = 1.0e6
    medium_n: float = 1.5
    medium_table: Path | None = None
    medium_d: float = 0.0
    medium_e: float = 0.0
    sweep_variable: str | None = None
    sweep_start: float | None = None
    sweep_stop: float | None = None
    sweep_samples: int = 0
    sweep_scale: str = "linear"
    grid_nx: int = 128
    grid_ny: int = 128
    grid_extent: float | None = None
    grid_z: float = 0.0
    delta_p_offsets: tuple = (0.0, 1.0, -1.0, 2.0)
    lambda_e: float = 0.5
    lambda_prime: float = 0.5
    lambda_gamma: int | None = None
    snapshot_t: float = 0.0
    out_prefix: str | None = None

    def medium(self) -> MediumModel:
        if self.medium_table is not None:
            return load_index_table(self.medium_table)
        if self.medium_d != 0.0 or self.medium_e != 0.0:
            return AnalyticMedium.from_dispersion_params(
                self.medium_n, self.omega, self.medium_d, self.medium_e)
        return ConstantMedium(self.medium_n)

    def epsilon(self) -> float:
        return lorentz_gamma(self.beta)

    def canonical_text(self) -> str:
        """Canonical re-emission of the parsed configuration: the study,
        then every key whose value differs from the default, in ``_KEYS``
        order, written through the inverse of the key's parser."""
        defaults = {f.name: f.default for f in fields(self)}
        lines, seen = [], set()
        for key, (name, parse) in _KEYS.items():
            value = getattr(self, name)
            if name in seen or value == defaults[name]:
                continue
            seen.add(name)
            lines.append(f"{key} = {_UNPARSE.get(parse, str)(value)}")
        return "\n".join(lines) + "\n"


def _degrees(raw: str) -> float:
    return float(raw) * (math.pi / 180.0)


def _offsets(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(","))


def _helicity(raw: str) -> int | None:
    return None if raw == "sum" else int(raw)


# config key -> (ScenarioConfig field, parser of the value text); a parser's
# ValueError becomes a ParseError.  Angles are read in degrees.
_KEYS = {
    "study": ("study", str),
    "beta": ("beta", float),
    "gamma": ("beta", float),  # exclusive with beta; _validate converts it
    "sigma": ("sigma", float),
    "omega": ("omega", float),
    "t-out": ("t_out", float),
    "t-prime": ("t_prime", float),
    "theta-k": ("theta_k", _degrees),
    "phi-k": ("phi_k", _degrees),
    "p-perp": ("p_perp", float),
    "pp-perp-ratio": ("pp_perp_ratio", float),
    "branch": ("branch", int),
    "r-mag": ("r_mag", float),
    "medium.n": ("medium_n", float),
    "medium.table": ("medium_table", Path),
    "medium.d": ("medium_d", float),
    "medium.e": ("medium_e", float),
    "sweep.variable": ("sweep_variable", str),
    "sweep.start": ("sweep_start", float),
    "sweep.stop": ("sweep_stop", float),
    "sweep.samples": ("sweep_samples", int),
    "sweep.scale": ("sweep_scale", str),
    "grid.nx": ("grid_nx", int),
    "grid.ny": ("grid_ny", int),
    "grid.extent": ("grid_extent", float),
    "grid.z": ("grid_z", float),
    "delta-p.offsets": ("delta_p_offsets", _offsets),
    "helicity.lambda-e": ("lambda_e", float),
    "helicity.lambda-prime": ("lambda_prime", float),
    "helicity.lambda-gamma": ("lambda_gamma", _helicity),
    "snapshot.t": ("snapshot_t", float),
    "out.prefix": ("out_prefix", str),
}
# inverse of each value parser that str() does not undo, for canonical_text
_UNPARSE = {_degrees: lambda rad: rad * (180.0 / math.pi),
            _offsets: lambda offs: ",".join(repr(o) for o in offs)}


def parse_config(path) -> ScenarioConfig:
    """Parse and validate a flat ``key = value`` config file.

    '#' starts a comment; keys use dotted sections; unknown keys are
    rejected with their line number.  Angles are given in degrees and
    stored in radians.
    """
    path = Path(path)
    values = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                 start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', "
                             f"got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEYS[key][1](val)
        except ValueError:
            raise ParseError(f"line {lineno}: cannot parse value {val!r} "
                             f"for key {key!r}") from None
    return _validate(values, path)


def _validate(values: dict, path: Path) -> ScenarioConfig:
    if "study" not in values:
        raise ValidationError("study: missing")
    study = values["study"]
    if study not in STUDIES:
        raise ValidationError(f"study: {study!r} not one of {STUDIES}")
    if "gamma" in values and "beta" in values:
        raise ValidationError("beta/gamma: give one, not both")
    if "gamma" in values:
        g = values.pop("gamma")
        if g <= 1.0:
            raise ValidationError("gamma: must exceed 1")
        values["beta"] = math.sqrt(1.0 - 1.0 / (g * g))
    cfg = ScenarioConfig(**{_KEYS[key][0]: v for key, v in values.items()})
    if cfg.medium_table is not None:
        table = cfg.medium_table
        if not table.is_absolute():
            table = (path.parent / table).resolve()
        if not table.is_file():
            raise ValidationError(f"medium.table: {table} is not a file")
        cfg.medium_table = table

    if not (0.0 < cfg.beta < 1.0):
        raise ValidationError("beta: must lie in (0, 1)")
    positive = ("sigma", "omega", "t-out", "medium.n")
    for key in positive + ("medium.d", "medium.e", "sweep.start",
                           "sweep.stop"):
        value = getattr(cfg, _KEYS[key][0])
        if value is not None and not (math.isfinite(value) and (
                value > 0 or key not in positive)):
            raise ValidationError(f"{key}: must be finite"
                                  f"{' and positive' * (key in positive)}, "
                                  f"got {value!r}")
    if cfg.branch not in (1, -1):
        raise ValidationError(f"branch: must be +1 or -1, got {cfg.branch}")
    if cfg.sweep_scale not in ("linear", "log"):
        raise ValidationError("sweep.scale: linear or log")
    if cfg.sweep_scale == "log":
        for key in ("sweep.start", "sweep.stop"):
            value = getattr(cfg, _KEYS[key][0])
            if value is not None and value <= 0:
                raise ValidationError(f"{key}: must be positive with "
                                      f"sweep.scale = log, got {value!r}")
    if cfg.grid_nx < 1 or cfg.grid_ny < 1:
        raise ValidationError("grid.nx/grid.ny: must be >= 1")

    _, sweeps, required = _STUDIES[study]
    if sweeps:
        required = ("sweep.variable", "sweep.start", "sweep.stop") + required
    for key in required:
        if getattr(cfg, _KEYS[key][0]) is None:
            raise ValidationError(f"{key}: required for {study}")
    if cfg.sweep_variable is not None and cfg.sweep_variable not in sweeps:
        raise ValidationError(
            f"sweep.variable: {study} sweeps "
            f"{' or '.join(sweeps) or 'nothing'}, not {cfg.sweep_variable!r}")
    if sweeps and cfg.sweep_samples < 1:
        raise ValidationError("sweep.samples: must be >= 1")
    if study == "singular-angles":
        try:
            n = cfg.medium().index(cfg.omega)[0]
        except ValueError as exc:
            raise ValidationError(f"medium: {exc}") from None
        if cfg.beta * n <= 1.0:
            raise ValidationError(
                f"beta*n = {cfg.beta * n:.6g} <= 1: at or below the "
                "Cherenkov threshold, no singular angles exist")
    return cfg


# study implementations ------------------------------------------------------

def _sweep_values(cfg: ScenarioConfig) -> np.ndarray:
    if cfg.sweep_samples == 1:
        return np.array([cfg.sweep_start])
    if cfg.sweep_scale == "log":
        return np.geomspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_samples)
    return np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_samples)


def _table(cfg, out_dir, fmt, name, header, columns, rows, series=None,
           **plot) -> list:
    """Write one CSV table; with csv+svg, at least two rows and ``series``
    (column indices), also a polyline plot of those columns over the first.
    Returns the artifact paths."""
    out = out_dir / _name(cfg, name)
    lines = [f"# {h}" for h in header]
    lines.append("# " + ",".join(columns))
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (int, float))
                              else str(v) for v in row))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    arts = [out]
    if fmt == "csv+svg" and len(rows) > 1 and series is not None:
        svg = out.with_suffix(".svg")
        svgplot.polyline_svg(svg, [r[0] for r in rows],
                             [[r[i] for r in rows] for i in series], **plot)
        arts.append(svg)
    return arts


def _study_spreading_time(cfg, out_dir, fmt, workers):
    eps = cfg.epsilon()
    medium = cfg.medium()
    n = medium.index(cfg.omega)[0]
    dp = medium.dispersion_params(cfg.omega)
    thetas = _sweep_values(cfg) * math.pi / 180.0
    tc_ps = convert_units(1.0, "t_c", "ps")
    rows = []
    for th in thetas:
        st = spread_times_at_angle(cfg.beta, n, cfg.omega, eps, cfg.sigma, th,
                                   dp.d_param, dp.e_param)
        rows.append((math.degrees(th), st.t_d * tc_ps, st.inv_t_d,
                     st.t_d_tilde * tc_ps))
    return _table(cfg, out_dir, fmt, "spreading_time.csv",
                  [f"beta: {cfg.beta}", f"omega: {cfg.omega}",
                   f"sigma: {cfg.sigma}"],
                  ["theta_k_deg", "t_d_ps", "inv_t_d_per_tc", "t_d_tilde_ps"],
                  rows, series=(2,), title="inverse spreading time",
                  xlabel="theta_k [deg]", ylabel="1/t_d [1/t_c]"), {}


def _study_singular_angles(cfg, out_dir, fmt, workers):
    eps = cfg.epsilon()
    n = cfg.medium().index(cfg.omega)[0]
    lo, hi, width = singular_angles(cfg.beta, n, cfg.omega, eps)
    approx = singular_width_approx(cfg.beta, n, cfg.omega, eps)

    def inv_td(th):
        return spread_times_at_angle(cfg.beta, n, cfg.omega, eps, cfg.sigma,
                                     th).inv_t_d

    from .numerics import find_root
    pad = 0.25 * width
    root_lo = find_root(inv_td, max(lo - pad, 1e-9), lo + 0.5 * width, 1e-12)
    root_hi = find_root(inv_td, hi - 0.5 * width, min(hi + pad, math.pi - 1e-9),
                        1e-12)
    return _table(cfg, out_dir, fmt, "singular_angles.csv",
                  [f"beta: {cfg.beta}", f"n: {n}", f"omega: {cfg.omega}"],
                  ["theta_lo_rad", "theta_hi_rad", "width_rad",
                   "width_approx_rad", "root_lo_rad", "root_hi_rad"],
                  [(lo, hi, width, approx, root_lo, root_hi)]), {}


def _study_correlation_radius(cfg, out_dir, fmt, workers):
    scenario = _balance_scenario(cfg, t_out=cfg.t_out or 1.0)
    kernel = observables.PhaseSpaceKernel.from_geometry(
        scenario.geometry(), scenario.packet, scenario.medium,
        scenario.dispersive)
    sweep = _sweep_values(cfg) * math.pi / 180.0
    t = cfg.t_prime
    rows = []
    for v in sweep:
        if cfg.sweep_variable == "theta-r":
            theta_r, dphi = v, 20.0 * math.pi / 180.0
        else:
            theta_r, dphi = cfg.theta_k if cfg.theta_k else 0.0, v
        R = Momentum3.from_spherical(1.0, theta_r, cfg.phi_k + dphi).as_array()
        expo = complex(kernel.exponent_complex(t, R))
        r_eff = math.inf if expo.real >= 0 else 1.0 / math.sqrt(-expo.real)
        rows.append((math.degrees(v), r_eff, expo.imag))
    return _table(cfg, out_dir, fmt, "correlation_radius.csv",
                  [f"t_prime: {t}", f"theta_k: {cfg.theta_k}"],
                  [cfg.sweep_variable.replace("-", "_") + "_deg",
                   "r_eff_lambda_c", "inv_r_im_sq"], rows, series=(1,),
                  title="correlation radius",
                  xlabel=cfg.sweep_variable + " [deg]",
                  ylabel="R_eff [lambda_c]"), {}


def _study_flash_duration(cfg, out_dir, fmt, workers):
    scenario = _balance_scenario(cfg, t_out=1.0)
    geom = scenario.geometry()
    rows = []
    for sig in _sweep_values(cfg):
        packet = replace(scenario.packet, sigma=sig)
        sigma_t = observables.PhaseSpaceKernel.from_geometry(
            geom, packet, scenario.medium).sigma_t(0.0)
        rows.append((sig, sigma_t, convert_units(sigma_t, "t_c", "as"),
                     convert_units(sigma_t, "t_c", "fs")))
    n = scenario.medium.index(cfg.omega)[0]
    return _table(cfg, out_dir, fmt, "flash_duration.csv",
                  [f"beta: {cfg.beta}", f"n: {n}",
                   f"theta_k_rad: {scenario.theta_k}"],
                  ["sigma_me", "sigma_t_tc", "sigma_t_as", "sigma_t_fs"],
                  rows), {}


def _arrival_shift_row(cfg, medium, n, theta_k):
    """Delta t and sigma_t at one emission angle of the transverse-triangle
    construction; None when the kinematics forbid emission."""
    if cfg.beta * n < 1.0:
        return None
    kmag = n * cfg.omega
    k_perp = kmag * math.sin(theta_k)
    pp_perp = cfg.pp_perp_ratio * cfg.p_perp
    if not triangle_rules_hold(cfg.p_perp, pp_perp, k_perp):
        return None
    p_mag = momentum_magnitude(cfg.beta)
    if p_mag <= cfg.p_perp:
        return None
    p_z = math.sqrt(p_mag ** 2 - cfg.p_perp ** 2)
    pp_z = p_z - kmag * math.cos(theta_k)
    geom = triangle_geometry(cfg.p_perp, pp_perp, pp_z, cfg.omega, n,
                             theta_k, cfg.phi_k, cfg.branch,
                             lambda_e=cfg.lambda_e,
                             lambda_prime=cfg.lambda_prime,
                             lambda_gamma=cfg.lambda_gamma or 1)
    packet = ElectronPacket(geom.p, cfg.sigma)
    r = geom.k.as_array() / geom.k.mag * cfg.r_mag
    stats = observables.flash_stats(geom, packet, medium, r, 0.0)
    flags = observables.wkb_flags(geom, packet, medium)
    return stats, flags


def _study_arrival_shift(cfg, out_dir, fmt, workers):
    rows = []
    medium = cfg.medium()
    for v in _sweep_values(cfg):
        if cfg.sweep_variable == "theta-k":
            theta_k = v * math.pi / 180.0
        else:
            theta_k = cfg.theta_k if cfg.theta_k is not None else \
                10.0 * math.pi / 180.0
            medium = ConstantMedium(v)
        n = medium.index(cfg.omega)[0]
        got = _arrival_shift_row(cfg, medium, n, theta_k)
        if got is None:
            rows.append((v, math.nan, math.nan, math.nan, 0))
            continue
        stats, flags = got
        rows.append((v, stats.delta_t, stats.sigma_t, stats.t_0, int(flags)))
    return _table(cfg, out_dir, fmt, "arrival_shift.csv",
                  [f"beta: {cfg.beta}", f"omega: {cfg.omega}",
                   f"p_perp: {cfg.p_perp}", f"branch: {cfg.branch}"],
                  [cfg.sweep_variable.replace("-", "_"), "delta_t_tc",
                   "sigma_t_tc", "t_0_tc", "flags"], rows, series=(1, 2),
                  title="photon arrival-time shift",
                  xlabel=cfg.sweep_variable, ylabel="time [t_c]",
                  labels=["delta_t", "sigma_t"]), \
        observables.count_flags([row[-1] for row in rows])


def _study_dispersion_scan(cfg, out_dir, fmt, workers):
    theta_k = cfg.theta_k if cfg.theta_k is not None else \
        10.0 * math.pi / 180.0
    n = cfg.medium().index(cfg.omega)[0]
    rows = []
    for d in _sweep_values(cfg):
        medium = AnalyticMedium.from_dispersion_params(
            n, cfg.omega, d, cfg.medium_e)
        try:
            got = _arrival_shift_row(cfg, medium, n, theta_k)
        except ZeroDivisionError:  # group velocity degenerates at D = -1
            got = None
        if got is None:
            rows.append((d, math.nan, math.nan, 0))
            continue
        stats, flags = got
        rows.append((d, stats.delta_t, stats.sigma_t, int(flags)))
    return _table(cfg, out_dir, fmt, "dispersion_scan.csv",
                  [f"beta: {cfg.beta}", f"n: {n}", f"theta_k_rad: {theta_k}"],
                  ["d_param", "delta_t_tc", "sigma_t_tc", "flags"],
                  rows), observables.count_flags([row[-1] for row in rows])


def _balance_scenario(cfg: ScenarioConfig, t_out=None) -> EmissionScenario:
    medium = cfg.medium()
    n = medium.index(cfg.omega)[0]
    theta_k = cfg.theta_k if cfg.theta_k is not None else \
        cherenkov_angle_classical(cfg.beta, n)
    mean = Momentum3(0.0, 0.0, momentum_magnitude(cfg.beta))
    packet = ElectronPacket(mean, cfg.sigma, helicity=cfg.lambda_e)
    return EmissionScenario(
        packet=packet, medium=medium, omega=cfg.omega, theta_k=theta_k,
        phi_k=cfg.phi_k, t_out=t_out if t_out is not None else cfg.t_out,
        lambda_prime=cfg.lambda_prime, lambda_gamma=cfg.lambda_gamma)


def _grid_for(cfg, scenario) -> MapGrid:
    if cfg.grid_extent is None:
        return default_grid(scenario, cfg.grid_nx, cfg.grid_ny, z=cfg.grid_z)
    return MapGrid.centered(cfg.grid_extent, cfg.grid_extent, cfg.grid_nx,
                            cfg.grid_ny, cfg.grid_z)


def _map_artifacts(cfg, out_dir, fmt, name, wmap, title, signed=True):
    """Write a map's CSV and, with csv+svg, its heatmap; returns the
    artifact paths."""
    out = out_dir / _name(cfg, name)
    wmap.to_csv(out)
    arts = [out]
    if fmt == "csv+svg":
        svg = out.with_suffix(".svg")
        svgplot.heatmap_svg(svg, wmap.values,
                            (wmap.grid.x_min, wmap.grid.x_max,
                             wmap.grid.y_min, wmap.grid.y_max),
                            title=title, xlabel="X [lambda_c]",
                            ylabel="Y [lambda_c]", signed=signed)
        arts.append(svg)
    return arts


def _study_wigner_map(cfg, out_dir, fmt, workers):
    scenario = _balance_scenario(cfg)
    grid = _grid_for(cfg, scenario)
    wmap = evaluate_map(scenario, grid, workers=workers)
    return (_map_artifacts(cfg, out_dir, fmt, "wigner_map.csv", wmap,
                           "Wigner function (normalized)"),
            wmap.flag_counts())


def _study_delta_p_scan(cfg, out_dir, fmt, workers):
    scenario = _balance_scenario(cfg)
    grid = _grid_for(cfg, scenario)
    offsets = tuple(o * cfg.sigma for o in cfg.delta_p_offsets)
    maps = delta_p_scan(scenario, offsets, grid=grid, workers=workers)
    arts = []
    flags = Counter()
    summary = []
    base_scale = maps[0].scale if maps else 1.0
    for off, wmap in zip(cfg.delta_p_offsets, maps):
        tag = f"dp_{off:+.2f}sigma".replace("+", "p").replace("-", "m")
        arts.extend(_map_artifacts(cfg, out_dir, fmt, f"delta_p_{tag}.csv",
                                   wmap, f"DeltaP = {off} sigma"))
        flags.update(wmap.flag_counts())
        summary.append((off, wmap.scale, wmap.scale / base_scale,
                        math.exp(-float(off) ** 2)))
    arts.extend(_table(cfg, out_dir, fmt, "delta_p_summary.csv",
                       [f"sigma: {cfg.sigma}"],
                       ["offset_sigma", "raw_scale", "intensity_ratio",
                        "gaussian_expected"], summary))
    return arts, dict(flags)


def _study_snapshot(cfg, out_dir, fmt, workers):
    mean = Momentum3(0.0, momentum_magnitude(cfg.beta), 0.0)  # in-plane drift
    packet = ElectronPacket(mean, cfg.sigma)
    scenario = EmissionScenario(
        packet=packet, medium=cfg.medium(), omega=cfg.omega,
        theta_k=cfg.theta_k if cfg.theta_k is not None else 0.5,
        phi_k=cfg.phi_k, t_out=cfg.t_out if cfg.t_out is not None else 1.0)
    eps = cfg.epsilon()
    t_de = eps / cfg.sigma ** 2
    width = math.sqrt(1.0 + (cfg.snapshot_t / t_de) ** 2) / cfg.sigma
    if cfg.grid_extent is None:
        half = 6.0 * width
        center_y = cfg.beta * cfg.snapshot_t
        grid = MapGrid(-half, half, cfg.grid_nx, center_y - half,
                       center_y + half, cfg.grid_ny, cfg.grid_z)
    else:
        grid = MapGrid.centered(cfg.grid_extent, cfg.grid_extent,
                                cfg.grid_nx, cfg.grid_ny, cfg.grid_z)
    snap = near_field_snapshot(scenario, grid, cfg.snapshot_t)
    return _map_artifacts(cfg, out_dir, fmt, "snapshot.csv", snap,
                          "electron packet snapshot", signed=False), {}


def _name(cfg: ScenarioConfig, suffix: str) -> str:
    return f"{cfg.out_prefix}_{suffix}" if cfg.out_prefix else suffix


# study -> (runner(cfg, out_dir, fmt, workers) -> (artifacts, flags),
#           the sweep.variable values it takes, the config keys it requires);
# flags maps each raised WKB/quadrature flag to the number of sweep samples
# (or, for a study that does not sweep, map nodes) that carry it.  A study
# that sweeps also requires sweep.variable, .start and .stop
_STUDIES = {
    "spreading-time": (_study_spreading_time, ("theta-k",), ()),
    "singular-angles": (_study_singular_angles, (), ()),
    "correlation-radius": (_study_correlation_radius, ("theta-r", "phi-r"),
                           ()),
    "flash-duration": (_study_flash_duration, ("sigma",), ()),
    "arrival-shift": (_study_arrival_shift, ("theta-k", "n"), ("p-perp",)),
    "dispersion-scan": (_study_dispersion_scan, ("d-param",), ("p-perp",)),
    "wigner-map": (_study_wigner_map, (), ("t-out",)),
    "delta-p-scan": (_study_delta_p_scan, (), ("t-out",)),
    "snapshot": (_study_snapshot, (), ()),
}
STUDIES = tuple(_STUDIES)


def run_study(cfg: ScenarioConfig, out_dir=".", fmt: str = "csv",
              workers: int | None = None):
    """Run the configured study; returns (artifact paths, flags), flags
    being {flag name: samples or nodes that carry it} for each raised
    flag."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt not in ("csv", "csv+svg"):
        raise ValidationError(f"format: {fmt!r} not csv or csv+svg")
    return _STUDIES[cfg.study][0](cfg, out_dir, fmt, workers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chr",
        description="Phase-space studies of Cherenkov photon emission")
    parser.add_argument("study", choices=STUDIES)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for maps (default: "
                             "CHR_WORKERS, else 1)")
    parser.add_argument("--format", dest="fmt", default="csv",
                        choices=("csv", "csv+svg"))
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if cfg.study != args.study:
            raise ValidationError(
                f"study: config says {cfg.study!r}, command line says "
                f"{args.study!r}")
        artifacts, flags = run_study(cfg, args.out_dir, args.fmt,
                                     args.workers)
    except (ParseError, ValidationError) as exc:
        print(f"chr: config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # study-level failure
        print(f"chr: {args.study} failed: {exc}", file=sys.stderr)
        return 1
    for art in artifacts:
        print(art)
    unit = "sample" if _STUDIES[cfg.study][1] else "node"
    for name, count in flags.items():
        print(f"chr: warning: {name} flag on {count} {unit}"
              f"{'s' * (count != 1)}", file=sys.stderr)
    return 2 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
