"""Inputs, operations and correctness gates of the two benchmark workloads.

The library is driven only through public names, looked up on their module
at call time (``wignerfield.evaluate_map``, ``cli.main``, ...), so the
wrappers that ``tracing`` installs see every call and the benchmark keeps
working when private internals are refactored.

Every end-to-end metric is reported on every workload, so each workload
offers the same kinds of timing on its own inputs.  ``steps(parallel)`` is
one cycle: every input of the workload once, in an order that interleaves
the kinds (a map, the single points at its nodes, the closed-form set-up;
or each bundled config through ``cli.main`` followed by a share of the
single points), so that every kind samples the whole run evenly.  With
``parallel`` the cycle also runs the workers=2 operations.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import statistics
import time
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np

from cherenkov_wigner import amplitudes, cli, wignerfield
from cherenkov_wigner.kinematics import (ElectronPacket, Momentum3,
                                         momentum_magnitude)
from cherenkov_wigner.medium import ConstantMedium
from cherenkov_wigner.observables import PhaseSpaceKernel, WkbFlags

NONCONVERGED = int(WkbFlags.QUAD_NONCONVERGED)
MAP_TOL = 1e-7      # |W scale - reference| <= MAP_TOL * scale
POINT_TOL = 1e-8    # |W - reference| <= POINT_TOL * envelope bound
NODES_PER_MAP = 64  # single-node evaluations per map scenario
CHECKS_PER_MAP = 16  # seeded nodes per map checked against the reference
# Design seeds of the map nodes timed one at a time and of the single-point
# set: --seed turns these inputs about the beam axis (see turned()).
NODES_DESIGN_SEED = 64
POINTS_DESIGN_SEED = 11
POINTS_DRAWS = 100
CENTRAL_T_OUT = (3e5, 5e5, 7e5, 1e6, 2e6, 3e6, 5e6, 7e6,
                 1e7, 2e7, 3e7, 5e7, 7e7)
MAP_STUDIES = ("wigner-map", "delta-p-scan")
# Map studies whose --workers 2 run is timed (in traced runs only).  Not the
# delta-p scan: at about 2 s it would double the length of those cycles; it
# runs with --workers 2 in a run's first cycle, for the byte-identity check.
W2_STUDIES = ("wigner-map",)
CLOSED_REPEATS = 10  # default_grid timings per map cycle


def balance_scenario(beta, n, omega, sigma, theta_k, phi_k, t_out):
    """Momentum-balance scenario with the packet mean along z."""
    mean = Momentum3(0.0, 0.0, momentum_magnitude(beta))
    return wignerfield.EmissionScenario(
        packet=ElectronPacket(mean, sigma), medium=ConstantMedium(n),
        omega=omega, theta_k=theta_k, phi_k=phi_k, t_out=t_out)


def acc09(theta_frac, t_out):
    """The acceptance-09 family: beta 0.99, n 1.4, omega = sigma = 1e-5,
    phi_k = 90 degrees."""
    theta_ch = math.acos(1.0 / (0.99 * 1.4))
    return balance_scenario(0.99, 1.4, 1e-5, 1e-5, theta_frac * theta_ch,
                            0.5 * math.pi, t_out)


def envelope_bound(scenario):
    """Acceptance 11's bound 2 * prefactor * Int_0^t_out dt'/G, built from
    public names (momentum-balance scenarios, helicity-summed |M|^2)."""
    geom = scenario.geometry()
    packet = scenario.packet
    n = scenario.medium.index(scenario.omega)[0]
    kernel = PhaseSpaceKernel.from_geometry(geom, packet, scenario.medium,
                                            scenario.dispersive)
    sigma = packet.sigma
    prefactor = ((2.0 * math.sqrt(math.pi) / sigma) ** 3
                 * math.sqrt(4.0 * math.pi)
                 * (1.0 + n * n) / (2.0 * n * n) ** 2
                 / (4.0 * geom.epsilon * geom.epsilon_prime)
                 * amplitudes.summed_mod_squared(geom)
                 * math.exp(-(scenario.delta_p() / sigma) ** 2))
    t = np.linspace(0.0, scenario.t_out, 513)
    return 2.0 * abs(prefactor) * float(np.trapezoid(1.0 / kernel.big_g(t), t))


def grid_node(grid, flat):
    iy, ix = divmod(int(flat), grid.nx)
    return iy, ix, np.array([grid.xs()[ix], grid.ys()[iy], grid.z])


def sample_nodes(rng, grid, count):
    return rng.choice(grid.nx * grid.ny, size=min(count, grid.nx * grid.ny),
                      replace=False)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# Speed probe: a fixed numpy-and-Python kernel that calls no library code.
# The shared machine this was built on switches between speed states about
# 1.5x apart that last tens of seconds, so a run's raw timings depend on
# which states it met.  The library's timings follow the probe's from state
# to state within a few percent, so each cycle's timings are scaled by
# PROBE_REF_S / (median probe time in that cycle): they read as the times
# at a speed where the probe takes PROBE_REF_S, about this machine's fast
# state.
PROBE_REF_S = 2.0e-3
_PROBE_X = np.linspace(0.0, 1.0, 15)


def probe():
    """Seconds taken by the speed probe."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        acc += float(np.sum(np.exp(-_PROBE_X * i) * np.cos(_PROBE_X)))
        acc += 0.5 * i
    return time.perf_counter() - t0


class Recorder:
    """Timings and failure accounting of one run.  One operation is one
    map, one point or one study; an operation fails once at most.

    Timings are kept per input and kind (``primary``, ``w2``, ``point``,
    ``closed``), because each input is repeated once per cycle and the
    metrics use the median repetition of each.  A cycle's timings are held
    back until ``end_cycle`` scales them by the cycle's speed (see
    PROBE_REF_S); ``raw`` keeps them unscaled."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.busy_s = 0.0
        kinds = ("primary", "w2", "point", "closed")
        self.times = {kind: {} for kind in kinds}
        self.raw = {kind: {} for kind in kinds}
        self.nodes = {}
        self.pending = []
        self.probes = []
        self.speeds = []

    def sample(self, kind, key, dt, nodes=0):
        self.pending.append((kind, key, dt))
        if nodes:
            self.nodes[key] = nodes

    def calibrate(self):
        self.probes.append(probe())

    def end_cycle(self):
        """File the cycle's timings, scaled to the reference speed."""
        speed = (PROBE_REF_S / statistics.median(self.probes)
                 if self.probes else 1.0)
        self.speeds.append(speed)
        for kind, key, dt in self.pending:
            self.times[kind].setdefault(key, []).append(dt * speed)
            self.raw[kind].setdefault(key, []).append(dt)
        self.pending, self.probes = [], []

    def typical(self, kind, raw=False):
        """{input: median time} of one kind."""
        times = self.raw if raw else self.times
        return {k: statistics.median(v) for k, v in times[kind].items()}

    def count(self, kind):
        return sum(len(v) for v in self.times[kind].values())

    def timed(self, label, call):
        """Run one operation; returns (result or None, seconds)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a raising operation is a failed one
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None, 0.0
        dt = time.perf_counter() - t0
        self.busy_s += dt
        return out, dt

    def check(self, label, problems):
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
        return not problems


def map_problems(wmap, refs):
    """Gate of one map: no non-converged node, and the seeded check nodes
    agree with ``evaluate_point_reference`` within MAP_TOL of the scale."""
    problems = []
    bad = int(np.count_nonzero(wmap.flags & NONCONVERGED))
    if bad:
        problems.append(f"{bad} nodes QUAD_NONCONVERGED")
    if not np.all(np.isfinite(wmap.values)):
        problems.append("non-finite values")
    worst = max(abs(wmap.values[iy, ix] * wmap.scale - ref)
                for iy, ix, ref in refs)
    if not worst <= MAP_TOL * wmap.scale:
        problems.append(f"check nodes off by {worst / wmap.scale:.2e} "
                        f"of scale (limit {MAP_TOL:g})")
    return problems


def same_map(a, b):
    return (a.scale == b.scale and np.array_equal(a.values, b.values)
            and np.array_equal(a.flags, b.flags))


def point_vs_map_problems(point, value, scale):
    v, _, flags = point
    problems = []
    if flags & NONCONVERGED:
        problems.append("QUAD_NONCONVERGED")
    if not abs(v - value * scale) <= MAP_TOL * scale:
        problems.append(f"differs from its map node by "
                        f"{abs(v - value * scale) / scale:.2e} of scale")
    return problems


class MapWorkload:
    """Two acceptance-09 maps at theta_Ch and 1.1 theta_Ch, on
    ``default_grid`` with grid_n x grid_n nodes."""

    def __init__(self, name, seed, tiny, t_out, grid_n):
        self.name = name
        self.scenarios = [acc09(frac, t_out) for frac in (1.0, 1.1)]
        if tiny:
            grid_n = 8
        self.grids = [wignerfield.default_grid(sc, grid_n, grid_n)
                      for sc in self.scenarios]
        design = np.random.default_rng(NODES_DESIGN_SEED)
        rng = np.random.default_rng(seed)
        # the timed nodes are fixed, so their cost is; the seed turns each
        # one (see turned) and picks the nodes checked against the reference
        self.points = []
        self.checks = []
        for sc, grid in zip(self.scenarios, self.grids):
            points = []
            for flat in sample_nodes(design, grid, NODES_PER_MAP):
                iy, ix, R = grid_node(grid, flat)
                points.append(((iy, ix),) + turned(sc, R, rng))
            self.points.append(points)
            self.checks.append(sample_nodes(rng, grid, CHECKS_PER_MAP))
        self.maps = [None] * len(self.scenarios)

    def prepare(self, tmp):
        self.refs = []
        for sc, grid, nodes in zip(self.scenarios, self.grids, self.checks):
            refs = []
            for flat in nodes:
                iy, ix, R = grid_node(grid, flat)
                refs.append((iy, ix, wignerfield.evaluate_point_reference(
                    sc, R).real))
            self.refs.append(refs)

    def steps(self, parallel):
        steps = []
        for i in range(len(self.scenarios)):
            steps.append(functools.partial(self.map_op, i, 1))
            if parallel:
                steps.append(functools.partial(self.map_op, i, 2))
            steps.append(functools.partial(self.points_op, i))
        return steps + [self.closed_op]

    def map_op(self, i, workers, rec):
        label = f"map {i}" + (" w2" if workers > 1 else "")
        wmap, dt = rec.timed(label, lambda: wignerfield.evaluate_map(
            self.scenarios[i], self.grids[i], workers=workers))
        if wmap is None:
            return
        if workers == 1:
            if rec.check(label, map_problems(wmap, self.refs[i])):
                rec.sample("primary", label, dt, wmap.values.size)
                self.maps[i] = wmap
            return
        ok = self.maps[i] is not None and same_map(wmap, self.maps[i])
        if rec.check(label, [] if ok else
                     ["workers=2 map not bit-identical to workers=1"]):
            rec.sample("w2", label, dt, wmap.values.size)

    def points_op(self, i, rec):
        """Single ``evaluate_point`` calls at fixed nodes of map i, each
        checked against that map's node."""
        wmap = self.maps[i]
        if wmap is None:  # failed (counted there)
            return
        for (iy, ix), sc, R in self.points[i]:
            label = f"point map {i} node {iy},{ix}"
            got, dt = rec.timed(
                label, lambda: wignerfield.evaluate_point(sc, R))
            if got is not None and rec.check(label, point_vs_map_problems(
                    got, wmap.values[iy, ix], wmap.scale)):
                rec.sample("point", label, dt)

    def closed_op(self, rec):
        """Per-scenario closed-form set-up: default_grid builds the kernel,
        prefactor, envelope and WKB flags a map needs, without quadrature."""
        for _ in range(CLOSED_REPEATS):
            t0 = time.perf_counter()
            for sc, grid in zip(self.scenarios, self.grids):
                wignerfield.default_grid(sc, grid.nx, grid.ny)
            rec.sample("closed", "default_grid", time.perf_counter() - t0)

    def csv_hashes(self, tmp):
        out = {}
        for i, wmap in enumerate(self.maps):
            if wmap is not None:
                path = tmp / f"{self.name}_map{i}.csv"
                wmap.to_csv(path)
                out[path.name] = sha256(path)
        return out


def _rotate_z(v, alpha):
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1], v[2]])


def turned(scenario, R, rng):
    """(scenario, R) turned about the beam axis by a random angle, with the
    sign of R flipped at random.

    The packet moves along z, so this turns the whole set-up rigidly and
    W(R) does not change; it depends on R only through
    |R x (u_p - u_k)|^2 and (R . [u_p x u_k])^2.  Every input value changes
    with the seed, but the integrand, and with it the cost of each point,
    does not: independent redraws moved p90 between 12 and 57 ms over five
    seeds, which no bound could absorb.
    """
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    sign = rng.choice((-1.0, 1.0))
    return (replace(scenario, phi_k=scenario.phi_k + alpha),
            sign * _rotate_z(R, alpha))


def point_design():
    """Acceptance-09 central points plus acceptance-11 draws from a fixed
    design seed: (scenario, R) pairs with phi_k = 90 degrees."""
    design = [(acc09(frac, t), np.zeros(3))
              for frac in (0.99, 1.1) for t in CENTRAL_T_OUT]
    rng = np.random.default_rng(POINTS_DESIGN_SEED)
    for _ in range(POINTS_DRAWS):
        beta = rng.uniform(0.6, 0.9995)
        n = rng.uniform(1.1, 1.8)
        omega = 10 ** rng.uniform(-7, -4)
        sigma = 10 ** rng.uniform(-5, -2)
        theta_ch = (math.acos(min(1.0, 1.0 / (beta * n))) if beta * n > 1
                    else 0.5)
        theta_k = max(0.05, theta_ch * rng.uniform(0.5, 1.5))
        t_out = 10 ** rng.uniform(4, 6.5)
        sc = balance_scenario(beta, n, omega, sigma, theta_k, 0.5 * math.pi,
                              t_out)
        kernel = PhaseSpaceKernel.from_geometry(sc.geometry(), sc.packet,
                                                sc.medium)
        e1 = complex(kernel.exponent_complex(t_out, np.array([1.0, 0, 0])))
        r_eff = 1.0 / math.sqrt(-e1.real) if e1.real < 0 else beta * t_out
        R = rng.normal(size=3)
        R = R / np.linalg.norm(R) * rng.uniform(0, 1.5) * min(r_eff,
                                                              beta * t_out)
        design.append((sc, R))
    return design


def rotated_points(seed, tiny):
    """The point design, each point turned by a seeded angle (see turned)."""
    design = point_design()
    if tiny:
        design = design[::8]
    rng = np.random.default_rng(seed)
    return [turned(sc, R, rng) for sc, R in design]


def is_map_csv(path):
    with open(path, encoding="utf-8") as fh:
        return fh.readline().startswith("# cherenkov-wigner map")


def data_rows(path):
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            rows.append([float(tok) for tok in line.split(",")])
    return rows


def expected_rows(cfg):
    """Rows of the one 1-D table a study writes (besides any maps)."""
    if cfg.study == "singular-angles":
        return 1
    if cfg.study == "delta-p-scan":
        return len(cfg.delta_p_offsets)
    return cfg.sweep_samples


def study_problems(cfg, code, artifacts):
    """Gate of one ``chr`` call: exit code 0 or 2, every printed artifact
    exists and parses, and each table has the rows its config implies."""
    if code not in (0, 2):
        return [f"exit code {code}"]
    if not artifacts:
        return ["no artifacts printed"]
    problems = []
    maps = 0
    for path in artifacts:
        if not path.exists():
            problems.append(f"{path.name} missing")
            continue
        try:
            if path.suffix == ".svg":
                if not ET.parse(path).getroot().tag.endswith("svg"):
                    problems.append(f"{path.name} is not an SVG document")
            elif is_map_csv(path):
                maps += 1
                _, values, meta = wignerfield.read_map_csv(path)
                if values.shape != (cfg.grid_ny, cfg.grid_nx):
                    problems.append(f"{path.name} has shape {values.shape}")
                bad = int(meta.get("flag.quad_nonconverged", 0))
                if bad:
                    problems.append(f"{path.name}: {bad} nodes "
                                    f"QUAD_NONCONVERGED")
            elif len(data_rows(path)) != expected_rows(cfg):
                problems.append(f"{path.name} has {len(data_rows(path))} "
                                f"rows, expected {expected_rows(cfg)}")
        except (ValueError, KeyError, ET.ParseError) as exc:
            problems.append(f"{path.name} does not parse: {exc}")
    want_maps = {"wigner-map": 1, "snapshot": 1,
                 "delta-p-scan": len(cfg.delta_p_offsets)}.get(cfg.study, 0)
    if maps != want_maps:
        problems.append(f"{maps} map CSVs, expected {want_maps}")
    return problems


def map_nodes(cfg):
    if cfg.study == "wigner-map":
        return cfg.grid_nx * cfg.grid_ny
    if cfg.study == "delta-p-scan":
        return cfg.grid_nx * cfg.grid_ny * len(cfg.delta_p_offsets)
    return 0


class StudiesWorkload:
    """Every bundled config through ``cli.main`` with CSV and SVG output;
    between them, single ``evaluate_point`` calls on the point set."""

    def __init__(self, root, seed, tiny):
        self.paths = sorted((root / "configs").glob("*.cfg"))
        if not self.paths:
            raise FileNotFoundError(f"no configs under {root / 'configs'}")
        self.configs = [cli.parse_config(p) for p in self.paths]
        self.points = rotated_points(seed, tiny)
        self.results = [None] * len(self.points)
        self.passes = 0
        self.last_pass = {}
        self.first_pass = None

    def prepare(self, tmp):
        self.tmp = tmp
        self.refs = [(wignerfield.evaluate_point_reference(sc, R).real,
                      envelope_bound(sc)) for sc, R in self.points]

    def steps(self, parallel):
        """Each config at workers=1, the fig12 map also with two workers,
        the delta-p scan with two workers in the first cycle only (checked,
        not timed), and after each config a share of the point set."""
        out = self.tmp / f"pass{self.passes}"
        self.passes += 1
        first = self.first_pass is None
        if first:
            self.first_pass = out
        steps = []
        share = -(-len(self.points) // len(self.paths))
        for i, (p, c) in enumerate(zip(self.paths, self.configs)):
            steps.append(functools.partial(self.study_op, i, out / p.stem, 1))
            w2 = functools.partial(self.study_op, i, out / f"{p.stem}-w2", 2)
            if parallel and c.study in W2_STUDIES:
                steps.append(w2)
            elif parallel and c.study in MAP_STUDIES and first:
                steps.append(functools.partial(w2, timing=False))
            steps.append(functools.partial(
                self.points_op, range(i * share, (i + 1) * share)))
        return steps

    def study_op(self, i, out_dir, workers, rec, timing=True):
        path, cfg = self.paths[i], self.configs[i]
        label = f"study {path.name}" + (" w2" if workers > 1 else "")
        argv = [cfg.study, "--config", str(path), "--out-dir", str(out_dir),
                "--format", "csv+svg", "--workers", str(workers)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, dt = rec.timed(label, lambda: cli.main(argv))
        if code is None:
            return
        artifacts = [Path(line) for line in out.getvalue().splitlines()
                     if line.strip()]
        problems = study_problems(cfg, code, artifacts)
        if workers > 1:
            w1 = {a.name: a for a in self.last_pass.get(i, [])}
            differ = [a.name for a in artifacts
                      if a.suffix == ".csv" and a.exists()
                      and (a.name not in w1 or not w1[a.name].exists()
                           or a.read_bytes() != w1[a.name].read_bytes())]
            if differ:
                problems.append(f"{len(differ)} CSVs differ from workers=1")
        if problems and err.getvalue().strip():
            problems.append(err.getvalue().strip().splitlines()[-1])
        if not rec.check(label, problems):
            return
        if workers > 1:
            if timing:
                rec.sample("w2", label, dt, map_nodes(cfg))
            return
        rec.sample("primary", label, dt, map_nodes(cfg))
        if cfg.study in MAP_STUDIES:
            self.last_pass[i] = artifacts
        else:
            rec.sample("closed", label, dt)

    def points_op(self, indices, rec):
        """Part of the point set: the 26 central points of acceptance 09
        and draws from acceptance 11's distribution, one context per call,
        each checked against ``evaluate_point_reference`` within POINT_TOL
        of acceptance 11's envelope bound."""
        for i in indices:
            if i >= len(self.points):
                break
            sc, R = self.points[i]
            label = f"point {i}"
            got, dt = rec.timed(label,
                                lambda: wignerfield.evaluate_point(sc, R))
            if got is None:
                continue
            ref, bound = self.refs[i]
            v, _, flags = got
            problems = []
            if flags & NONCONVERGED:
                problems.append("QUAD_NONCONVERGED")
            if not abs(v - ref) <= POINT_TOL * bound:
                problems.append(f"off reference by {abs(v - ref) / bound:.2e}"
                                f" of the envelope bound")
            if rec.check(label, problems):
                rec.sample("point", label, dt)
                self.results[i] = got

    def csv_hashes(self, tmp):
        out = {}
        if self.first_pass is not None:
            out = {str(a.relative_to(self.first_pass)): sha256(a)
                   for a in sorted(self.first_pass.rglob("*.csv"))
                   if not a.parent.name.endswith("-w2")}
        path = tmp / "points.csv"
        rows = ["index,value,error_estimate,flags"]
        rows += [f"{i},{r[0]!r},{r[1]!r},{int(r[2])}"
                 for i, r in enumerate(self.results) if r is not None]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out[path.name] = sha256(path)
        return out


def build(name, root, seed, tiny=False):
    if name == "map-long":
        return MapWorkload(name, seed, tiny, t_out=5e7, grid_n=12)
    if name == "studies":
        return StudiesWorkload(root, seed, tiny)
    raise ValueError(f"unknown workload {name!r}")

