"""Scenario-driven command line: parses flat key-value config files, runs
named studies mapped to the library's capabilities, and writes CSV tables
plus standalone SVG plots.

Usage:  chr <study> --config <path> [--out-dir DIR] [--workers N]
        [--format csv|csv+svg]

Exit codes: 0 success, 2 completed with warnings (WKB or quadrature
flags, or sweep samples that emit no photon, each counted by its first
reason in ``_arrival_rows`` and written as a NaN row; one stderr line per
raised flag), 1 error (a usage error included).
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
from .kinematics import (HELICITIES, ElectronPacket, Momentum3,
                         cherenkov_angle_classical, column_dot, lorentz_gamma,
                         momentum_magnitude, place_triangles)
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
    for key, value in values.items():
        if _KEYS[key][1] in (float, _degrees, _offsets) and not np.all(
                np.isfinite(value)):
            raise ValidationError(f"{key}: must be finite, got {value!r}")
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
    for key in ("sigma", "omega", "t-out", "medium.n", "grid.extent",
                "p-perp", "pp-perp-ratio"):
        value = getattr(cfg, _KEYS[key][0])
        if value is not None and value <= 0:
            raise ValidationError(f"{key}: must be positive, got {value!r}")
    for key, allowed in (("branch", (1, -1)),
                         ("sweep.scale", ("linear", "log")),
                         ("helicity.lambda-e", HELICITIES["lambda_e"]),
                         ("helicity.lambda-prime", HELICITIES["lambda_prime"]),
                         ("helicity.lambda-gamma",
                          (*HELICITIES["lambda_gamma"], None))):
        value = getattr(cfg, _KEYS[key][0])
        if value not in allowed:
            names = ", ".join("sum" if a is None else repr(a) for a in allowed)
            raise ValidationError(f"{key}: must be one of {names}, "
                                  f"got {value!r}")
    if cfg.sweep_scale == "log":
        for key in ("sweep.start", "sweep.stop"):
            value = getattr(cfg, _KEYS[key][0])
            if value is not None and value <= 0:
                raise ValidationError(f"{key}: must be positive with "
                                      f"sweep.scale = log, got {value!r}")
    if cfg.grid_nx < 1 or cfg.grid_ny < 1:
        raise ValidationError("grid.nx/grid.ny: must be >= 1")
    prefix = cfg.out_prefix or ""
    if prefix in (".", "..") or {"/", "\\"} & set(prefix):
        raise ValidationError("out.prefix: must name files in --out-dir, "
                              f"without a path separator, got {prefix!r}")
    tags = {}
    for off in cfg.delta_p_offsets:
        tag = _dp_tag(off)
        if tag in tags:
            raise ValidationError(f"delta-p.offsets: {tags[tag]!r} and "
                                  f"{off!r} share the file tag {tag}")
        tags[tag] = off

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
    for (key, value), (ignored, instead) in _OVERRIDES.items():
        given = [other for other in ignored if other in values]
        if given and key in values and value in (None, values[key]):
            raise ValidationError(f"{given[0]}: {instead}, not {given[0]}")
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
    for row in rows:  # floats round-trip, ints stay ints
        lines.append(",".join(repr(float(v)) if isinstance(v, float)
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
    medium = cfg.medium()
    dp = medium.dispersion_params(cfg.omega)
    thetas = _sweep_values(cfg) * math.pi / 180.0
    tc_ps = convert_units(1.0, "t_c", "ps")
    st = spread_times_at_angle(cfg.beta, medium.index(cfg.omega)[0],
                               cfg.omega, cfg.epsilon(), cfg.sigma, thetas,
                               dp.d_param, dp.e_param)
    rows = list(zip(np.degrees(thetas).tolist(), (st.t_d * tc_ps).tolist(),
                    st.inv_t_d.tolist(), (st.t_d_tilde * tc_ps).tolist()))
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
    t = cfg.t_prime
    sweep = _sweep_values(cfg) * math.pi / 180.0
    if cfg.sweep_variable == "theta-r":
        angles = [(v, cfg.phi_k + 20.0 * math.pi / 180.0) for v in sweep]
    else:
        angles = [(scenario.theta_k, cfg.phi_k + v) for v in sweep]
    # unit vectors by math.sin and math.cos; numpy's round differently
    r_eff, inv_r_im_sq = kernel.correlation_scales(t, np.array(
        [Momentum3.from_spherical(1.0, *a).as_array() for a in angles]))
    rows = list(zip(np.degrees(sweep).tolist(), r_eff.tolist(),
                    inv_r_im_sq.tolist()))
    return _table(cfg, out_dir, fmt, "correlation_radius.csv",
                  [f"t_prime: {t}", f"theta_k: {scenario.theta_k}"],
                  [cfg.sweep_variable.replace("-", "_") + "_deg",
                   "r_eff_lambda_c", "inv_r_im_sq"], rows, series=(1,),
                  title="correlation radius",
                  xlabel=cfg.sweep_variable + " [deg]",
                  ylabel="R_eff [lambda_c]"), {}


def _study_flash_duration(cfg, out_dir, fmt, workers):
    scenario = _balance_scenario(cfg, t_out=1.0)
    sigmas = _sweep_values(cfg)
    for sig in sigmas:  # each width is checked, and warned of, as a packet's
        replace(scenario.packet, sigma=sig)
    kernel = observables.PhaseSpaceKernel.from_geometry(
        scenario.geometry(), scenario.packet, scenario.medium)
    sigma_t = observables.PhaseSpaceKernel(
        kernel.u_p, kernel.u_k, kernel.a, kernel.b, sigmas, kernel.delta_eps,
        kernel.spread.dispersive).sigma_t(0.0)
    rows = list(zip(sigmas.tolist(), sigma_t.tolist(),
                    convert_units(sigma_t, "t_c", "as").tolist(),
                    convert_units(sigma_t, "t_c", "fs").tolist()))
    n = scenario.medium.index(cfg.omega)[0]
    return _table(cfg, out_dir, fmt, "flash_duration.csv",
                  [f"beta: {cfg.beta}", f"n: {n}",
                   f"theta_k_rad: {scenario.theta_k}"],
                  ["sigma_me", "sigma_t_tc", "sigma_t_as", "sigma_t_fs"],
                  rows), {}


def _arrival_rows(cfg, values, media, theta_k):
    """One row (sweep value, Delta t, sigma_t, t_0, WKB flags) per sample
    of the sweep ``values``, sample i in ``media[i]`` at emission angle
    ``theta_k`` (one angle, or one per sample), from one pass of
    ``place_triangles`` and one of ``observables.flash_stats_batch``; and
    the flags dict: the WKB flag counts, then the number of samples that
    emit no photon, each under the first reason that holds for it, in this
    order: below_threshold (beta*n < 1), open_triangle (``place_triangles``
    finds no triangle), then the reasons of ``flash_stats_batch``
    (degenerate_group_velocity, mach_cone, collinear_velocities and
    degenerate_phase).  Such a sample's row holds NaN times and no
    flags."""
    count = len(values)
    medium_values = observables.read_media(media, cfg.omega)
    n = medium_values[0]
    reasons = Counter()
    table = np.full((4, count), np.nan)
    table[3] = 0
    emitting = np.flatnonzero(cfg.beta * n >= 1.0)
    reasons["below_threshold"] = count - len(emitting)
    if len(emitting):
        batch, closes = place_triangles(
            cfg.p_perp, cfg.pp_perp_ratio * cfg.p_perp, cfg.beta, cfg.omega,
            n[emitting], np.broadcast_to(theta_k, count)[emitting], cfg.phi_k,
            cfg.branch, cfg.lambda_e, cfg.lambda_prime,
            1 if cfg.lambda_gamma is None else cfg.lambda_gamma)
        placed = emitting[closes]
        reasons["open_triangle"] = len(emitting) - len(placed)
        stats, checks = observables.flash_stats_batch(
            batch, medium_values[:, placed], cfg.sigma,
            batch.k / np.sqrt(column_dot(batch.k, batch.k)) * cfg.r_mag, 0.0)
        counted = np.zeros(len(placed), dtype=bool)
        for reason, mask, _ in checks:
            reasons[reason] += int(np.count_nonzero(mask & ~counted))
            counted |= mask
        table[:, placed] = (stats.delta_t, stats.sigma_t, stats.t_0,
                            stats.flags)
    rows = list(zip(values.tolist(), *table[:3].tolist(),
                    table[3].astype(int).tolist()))
    flags = observables.count_flags(table[3].astype(int))
    return rows, dict(flags, **{k: c for k, c in reasons.items() if c})


def _fixed_theta_k(cfg) -> float:
    return cfg.theta_k if cfg.theta_k is not None else 10.0 * math.pi / 180.0


def _arrival_samples(cfg):
    """(sweep values, the medium of each sample, theta_k: one angle or one
    per sample) of an arrival-shift or dispersion-scan sweep."""
    values = _sweep_values(cfg)
    if cfg.sweep_variable == "theta-k":
        return (values, [cfg.medium()] * len(values),
                values * math.pi / 180.0)
    if cfg.sweep_variable == "n":
        media = [ConstantMedium(v) for v in values]
    else:
        n = cfg.medium().index(cfg.omega)[0]
        media = [AnalyticMedium.from_dispersion_params(n, cfg.omega, d,
                                                       cfg.medium_e)
                 for d in values]
    return values, media, _fixed_theta_k(cfg)


def _study_arrival_shift(cfg, out_dir, fmt, workers):
    rows, flags = _arrival_rows(cfg, *_arrival_samples(cfg))
    return _table(cfg, out_dir, fmt, "arrival_shift.csv",
                  [f"beta: {cfg.beta}", f"omega: {cfg.omega}",
                   f"p_perp: {cfg.p_perp}", f"branch: {cfg.branch}"],
                  [cfg.sweep_variable.replace("-", "_"), "delta_t_tc",
                   "sigma_t_tc", "t_0_tc", "flags"], rows, series=(1, 2),
                  title="photon arrival-time shift",
                  xlabel=cfg.sweep_variable, ylabel="time [t_c]",
                  labels=["delta_t", "sigma_t"]), flags


def _study_dispersion_scan(cfg, out_dir, fmt, workers):
    rows, flags = _arrival_rows(cfg, *_arrival_samples(cfg))
    return _table(cfg, out_dir, fmt, "dispersion_scan.csv",
                  [f"beta: {cfg.beta}",
                   f"n: {cfg.medium().index(cfg.omega)[0]}",
                   f"theta_k_rad: {_fixed_theta_k(cfg)}"],
                  ["d_param", "delta_t_tc", "sigma_t_tc", "flags"],
                  [(d, dt, st, f) for d, dt, st, _, f in rows]), flags


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


def _dp_tag(offset: float) -> str:
    """The file tag of a DeltaP offset (in sigma): two decimals, signed."""
    return f"dp_{offset:+.2f}sigma".replace("+", "p").replace("-", "m")


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
        arts.extend(_map_artifacts(cfg, out_dir, fmt,
                                   f"delta_p_{_dp_tag(off)}.csv",
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
# flags maps each raised flag (see the exit codes above) to the number of
# sweep samples (or, for a study that does not sweep, map nodes) that carry
# it.  A study that sweeps also requires sweep.variable, .start and .stop
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

# (config key, its value or None for any) -> (the config keys that it
# overrides, so that no study reads them, and what is used instead)
_OVERRIDES = {
    ("sweep.variable", "n"): (
        ("medium.n", "medium.d", "medium.e", "medium.table"),
        "an n sweep uses a constant medium at each n"),
    ("sweep.variable", "sigma"): (
        ("sigma",), "a sigma sweep takes sigma from each sample"),
    ("sweep.variable", "d-param"): (
        ("medium.d",), "a d-param sweep takes D from each sample"),
    ("sweep.variable", "theta-k"): (
        ("theta-k",), "a theta-k sweep takes theta_k from each sample"),
    ("medium.table", None): (
        ("medium.n", "medium.d"), "a medium.table gives n and D per omega"),
}


def run_study(cfg: ScenarioConfig, out_dir=".", fmt: str = "csv",
              workers: int = 1):
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
    parser.add_argument("--workers", type=int, default=1,
                        help="threads over the row groups of a map "
                             "(default: 1)")
    parser.add_argument("--format", dest="fmt", default="csv",
                        choices=("csv", "csv+svg"))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error
        return 1 if exc.code else 0
    try:
        cfg = parse_config(args.config)
        if cfg.study != args.study:
            raise ValidationError(
                f"study: config says {cfg.study!r}, command line says "
                f"{args.study!r}")
        if args.workers < 1:
            raise ValidationError("workers must be an integer >= 1, "
                                  f"got {args.workers}")
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
