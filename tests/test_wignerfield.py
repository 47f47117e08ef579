import concurrent.futures
import math
import multiprocessing
import os
import string
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import balance_scenario
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cherenkov_wigner import numerics
from cherenkov_wigner.kinematics import (ElectronPacket, Momentum3,
                                         momentum_magnitude)
from cherenkov_wigner.medium import AnalyticMedium, ConstantMedium
from cherenkov_wigner.observables import PhaseSpaceKernel, WkbFlags
from cherenkov_wigner.wignerfield import (EmissionScenario, MapGrid,
                                          _Context, _reference_edges,
                                          _source_columns, _source_rows,
                                          _x_normal,
                                          central_value,
                                          default_grid, delta_p_scan,
                                          evaluate_map, evaluate_point,
                                          evaluate_point_reference,
                                          near_field_snapshot, read_map_csv,
                                          write_map_csv)


def test_integrand_at_zero_time():
    sc = balance_scenario(sigma=1e-4)
    ctx = _Context(sc)
    kern = ctx.kernel
    rng = np.random.default_rng(3)
    for _ in range(10):
        R = rng.normal(size=3) * 1e3
        got = ctx.integrand_for(R)(0.0)[0]
        e0 = complex(kern.exponent_complex(0.0, R))
        expected = math.exp(e0.real) / float(kern.big_g(0.0))
        assert got > 0
        assert abs(got - expected) < 1e-12 * expected


def test_integrand_constant_along_mach_direction():
    sc = balance_scenario(sigma=1e-4)
    ctx = _Context(sc)
    direction = ctx.kernel.u_k - ctx.kernel.u_p
    ts = np.linspace(0.0, sc.t_out, 7)
    vals = [ctx.integrand_for(direction * mag)(ts) for mag in (1.0, 1e3, 1e6)]
    assert np.max(np.abs(vals[0] - vals[1])) < 1e-12 * np.max(np.abs(vals[0]))
    assert np.max(np.abs(vals[0] - vals[2])) < 1e-12 * np.max(np.abs(vals[0]))


def test_integrand_dual_route(rng):
    # cosine form assembled from the complex eta/chi route equals the
    # explicit G, Gouy, R_eff, R_im split
    sc = balance_scenario(sigma=1e-5)
    ctx = _Context(sc)
    kern = ctx.kernel
    for _ in range(50):
        t = rng.uniform(0.0, sc.t_out)
        R = rng.normal(size=3) * 10 ** rng.uniform(2, 5)
        got = ctx.integrand_for(R)(t)[0]
        re, im = kern.exponent_split(t, R)
        alt = (math.exp(float(re)) / float(kern.big_g(t))
               * math.cos(t * kern.delta_eps - 0.5 * float(kern.gouy(t))
                          + float(im)))
        assert abs(got - alt) < 1e-12 * (abs(got) + abs(alt) + 1e-300)


def test_kernel_against_tau_integral_oracle(rng):
    # numeric tau integration of the analytic ktilde Gaussian must equal
    # sqrt(2 pi) prefactor_complex exp(exponent_complex)
    sc = balance_scenario(sigma=1e-5)
    kern = _Context(sc).kernel
    u_p = kern.u_p
    up2 = float(u_p @ u_p)
    diff = kern.u_p - kern.u_k
    for _ in range(4):
        t = rng.uniform(1e4, 3e6)
        R = rng.normal(size=3) * 10 ** rng.uniform(3, 5)
        eta = complex(kern.eta(t))
        chi = complex(kern.chi(t))
        det_b = eta ** 2 * (eta + chi * up2)
        c1 = 1.0 / eta
        c2 = -chi / (eta * (eta + chi * up2))

        def quad_form(v):
            return c1 * float(v @ v) + c2 * float(u_p @ v) ** 2

        aa = quad_form(diff)
        width = 1.0 / math.sqrt(0.5 * (abs(aa.real) + abs(aa.imag)))
        taus = np.linspace(-40 * width, 40 * width, 20001)
        vals = np.array([np.exp(-0.5 * quad_form(R + tau * diff))
                         for tau in taus])
        numeric = np.trapezoid(vals, taus) / np.sqrt(det_b)
        closed = (math.sqrt(2 * math.pi) * complex(kern.prefactor_complex(t))
                  * np.exp(complex(kern.exponent_complex(t, R))))
        assert abs(numeric / closed - 1.0) < 1e-8


def test_point_matches_reference_oracle(rng):
    for frac, t_out in [(1.0, 1e6), (0.95, 3e5), (1.1, 1e6)]:
        sc = balance_scenario(sigma=1e-5, theta_frac=frac, t_out=t_out)
        for _ in range(5):
            R = rng.normal(size=3) * 10 ** rng.uniform(3, 5.3)
            val, err, flags = evaluate_point(sc, R, rel_tol=1e-11)
            ref = evaluate_point_reference(sc, R)
            assert abs(val - ref.real) < 1e-8 * abs(ref.real) + 10 * err
            # realness of the symmetric-interval complex form
            assert abs(ref.imag) <= 1e-10 * abs(ref.real) + 1e-300


def test_point_negative_value_at_shifted_angle():
    # the central value flips sign at late t_out slightly above the
    # Cherenkov angle (energy mismatch beats the Gouy phase)
    sc = balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=7e6)
    val, err, flags = evaluate_point(sc, np.zeros(3))
    assert val < 0


def test_exponential_suppression():
    sc = balance_scenario(sigma=1e-5, t_out=1e6)
    ctx = _Context(sc)
    center, _, _ = evaluate_point(sc, np.zeros(3))
    for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                 np.array([0.6, -0.8, 0.0])):
        expo = complex(ctx.kernel.exponent_complex(sc.t_out, axis))
        if expo.real >= 0:
            continue
        r_eff = 1.0 / math.sqrt(-expo.real)
        far, _, _ = evaluate_point(sc, 5.0 * r_eff * axis)
        assert abs(far) < 1e-5 * abs(center)


def test_map_resolution_consistency():
    # pointwise evaluation: halving the grid step leaves shared nodes
    # unchanged up to quadrature tolerance
    sc = balance_scenario(sigma=1e-5, t_out=3e5)
    half = 3e4
    coarse = evaluate_map(sc, MapGrid.centered(half, half, 9, 9))
    fine = evaluate_map(sc, MapGrid.centered(half, half, 17, 17))
    ratio = coarse.scale / fine.scale
    diff = np.abs(coarse.values * ratio - fine.values[::2, ::2])
    assert np.max(diff) < 1e-3


def test_map_mirror_symmetry():
    # phi_k = pi/2 puts u_p and u_k in the y-z plane; the map is mirror
    # symmetric in X
    sc = balance_scenario(sigma=1e-5, t_out=1e6)
    wmap = evaluate_map(sc, MapGrid.centered(2e5, 1e5, 17, 9))
    assert np.max(np.abs(wmap.values - wmap.values[:, ::-1])) < 1e-6


def test_map_centrosymmetry():
    # A and B are even in R, so W(R) = W(-R); phi_k off pi/2 leaves no
    # mirror symmetry that could hide a mismatch between mirrored rows.
    # evaluate_map copies mirrored rows, so each row here is integrated
    # on its own
    sc = balance_scenario(sigma=1e-5, t_out=1e6, phi_k=0.3)
    raw = _rows_without_reuse(sc, MapGrid.centered(2e5, 1e5, 9, 7))
    assert (np.max(np.abs(raw - raw[::-1, ::-1]))
            < 1e-12 * np.max(np.abs(raw)))


def test_integrand_is_even_in_R_bit_for_bit(rng):
    # the map mirrors rows on the strength of W(R) = W(-R); a term odd in
    # R must fail here rather than be mirrored silently
    ctx = _Context(balance_scenario(sigma=1e-5, t_out=1e6, phi_k=0.3))
    for _ in range(50):
        R = rng.normal(size=(4, 3)) * 10 ** rng.uniform(2, 5.3)
        t = rng.uniform(0.0, ctx.scenario.t_out, size=9)
        assert np.array_equal(ctx.integrand_for(R)(t),
                              ctx.integrand_for(-R)(t))
        assert np.array_equal(ctx.integrand_for(R[0])(t),
                              ctx.integrand_for(-R[0])(t))


def test_long_map_matches_reference_at_every_node():
    # t_out = 5e7 at 1.1 theta_Ch takes tens of panels per node; the mesh
    # each row shares is refined until every node of the row converges
    sc = balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e7)
    grid = default_grid(sc, 6, 6)
    wmap = evaluate_map(sc, grid)
    assert not np.any(wmap.flags & int(WkbFlags.QUAD_NONCONVERGED))
    # rows 3-5 are rows 2-0 mirrored
    assert np.array_equal(wmap.values[3:], wmap.values[2::-1, ::-1])
    for iy, y in enumerate(grid.ys()):
        for ix, x in enumerate(grid.xs()):
            ref = evaluate_point_reference(sc, np.array([x, y, grid.z]))
            assert (abs(wmap.values[iy, ix] * wmap.scale - ref.real)
                    <= 1e-9 * wmap.scale)


def _fine_reference(sc, R):
    """``evaluate_point_reference``'s 32-point Gauss-Legendre sum (real
    part) on a mesh of 0.05-radian phase steps and up to 200,000 panels,
    summed 10,000 panels at a time."""
    ctx = _Context(sc)
    x, w = np.polynomial.legendre.leggauss(32)
    edges = _reference_edges(ctx, R, max_phase=0.05, max_panels=200_000)
    a_dir, b_dir = ctx.kernel.direction_factors(R)
    total = 0.0
    for s in range(0, edges.size - 1, 10_000):
        lo, hi = edges[s:s + 10_001][:-1], edges[s:s + 10_001][1:]
        half = 0.5 * (hi - lo)[:, None]
        t = 0.5 * (lo + hi)[:, None] + half * x
        pre, c_a, c_b = ctx.kernel.integrand_coefficients(t)
        vals = pre * np.exp(c_a * a_dir + c_b * b_dir
                            + 1j * t * ctx.kernel.delta_eps)
        total += 2.0 * np.sum(half * w * vals.real)
    return ctx.prefactor * total


@pytest.mark.parametrize("sigma,t_out,nodes", [
    (1e-2, 1e6, [(6, 1), (7, 7)]),
    (1e-3, 7e6, [(6, 1), (7, 0), (7, 7)])], ids=["sigma-1e-2", "sigma-1e-3"])
def test_wide_maps_converge_at_every_node(sigma, t_out, nodes):
    # the 16 x 16 default grids at theta_Ch that Gauss-Kronrod alone left
    # with 48 and 116 QUAD_NONCONVERGED nodes: every row now converges, and
    # the check nodes meet a Gauss-Legendre reference on up to 200,000
    # panels within 1e-9 of the scale.  evaluate_point_reference's 8,192
    # panels are 1.7e-9 off at node (6, 1) of the sigma = 1e-3 map; the
    # 200,000-panel reference at (7, 0) moves by 2e-10 on 1,000,000
    sc = balance_scenario(sigma=sigma, t_out=t_out)
    wmap = evaluate_map(sc, default_grid(sc, 16, 16))
    assert not np.any(wmap.flags & int(WkbFlags.QUAD_NONCONVERGED))
    grid = wmap.grid
    for iy, ix in nodes:
        ref = _fine_reference(sc, np.array([grid.xs()[ix], grid.ys()[iy],
                                            grid.z]))
        assert abs(wmap.values[iy, ix] * wmap.scale - ref) <= 1e-9 * wmap.scale


def test_point_is_the_one_node_row():
    sc = balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e6)
    ctx = _Context(sc)
    R = np.array([3e4, -2e4, 0.0])
    res, flags = ctx.nodes(R[None, :], 1e-10, None, 4096)
    scale = 2.0 * ctx.prefactor
    assert ((scale * res.values[0], scale * res.error_estimates[0],
             int(flags[0])) == evaluate_point(sc, R))


def test_map_determinism_and_csv_round_trip(tmp_path):
    sc = balance_scenario(sigma=1e-5, t_out=3e5)
    grid = MapGrid.centered(3e4, 3e4, 7, 7)
    m1 = evaluate_map(sc, grid)
    m2 = evaluate_map(sc, grid)
    assert np.array_equal(m1.values, m2.values)
    p1 = tmp_path / "m1.csv"
    p2 = tmp_path / "m2.csv"
    m1.to_csv(p1)
    m2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    grid_back, values, meta = read_map_csv(p1)
    assert grid_back == grid
    assert np.array_equal(values, m1.values)
    assert float(meta["scale"]) == m1.scale


_GRID_KEYS = {"x_min", "x_max", "nx", "y_min", "y_max", "ny", "z", "scale"}
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _map_csvs(draw):
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    grid = MapGrid(draw(_FINITE), draw(_FINITE), nx, draw(_FINITE),
                   draw(_FINITE), ny, draw(_FINITE))
    values = np.array(draw(st.lists(st.floats(allow_nan=False),
                                    min_size=nx * ny, max_size=nx * ny)),
                      dtype=float).reshape(ny, nx)
    key = st.text(string.ascii_letters + string.digits + "_.-", min_size=1,
                  max_size=12).filter(lambda k: k not in _GRID_KEYS
                                      and not k.startswith("flag."))
    value = st.one_of(
        st.floats(), st.integers(),
        st.text(string.ascii_letters + string.digits + string.punctuation
                + " ", max_size=20).map(str.strip))
    meta = draw(st.dictionaries(key, value, max_size=5))
    flags = draw(st.dictionaries(st.sampled_from(["quad_nonconverged",
                                                  "small_angle"]),
                                 st.integers(0, 10 ** 6)))
    return grid, values, draw(_FINITE), meta, flags


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_map_csvs())
@example(case=(MapGrid(-0.0, 1e-300, 2, -7.5, 3.0, 1, 5e-324),
               np.array([[-0.0, math.inf]]), 2.5,
               {"note": "t: 1e6 : x", "lambda_gamma": "sum"}, {}))
def test_map_csv_round_trip_property(case):
    # grids and bit patterns of the values survive, and every header line
    # reads back as the text it was written from (a value may hold ':')
    grid, values, scale, meta, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.csv"
        write_map_csv(path, grid, values, scale=scale, meta=meta,
                      flag_counts=flags)
        grid_back, values_back, meta_back = read_map_csv(path)
    assert grid_back == grid
    assert values_back.shape == values.shape
    assert np.array_equal(values_back.view(np.uint64),
                          values.view(np.uint64))
    assert meta_back["scale"] == str(scale)
    for key, val in meta.items():
        assert meta_back[key] == str(val)
    for name, count in flags.items():
        assert meta_back[f"flag.{name}"] == str(count)


def test_map_worker_independence():
    sc = balance_scenario(sigma=1e-5, t_out=3e5)
    grid = MapGrid.centered(3e4, 3e4, 5, 5)
    serial = evaluate_map(sc, grid, workers=1)
    parallel = evaluate_map(sc, grid, workers=2)
    assert np.array_equal(serial.values, parallel.values)
    assert serial.scale == parallel.scale


@pytest.mark.parametrize("workers", [2, (os.cpu_count() or 1) + 1],
                         ids=["two", "more-than-cores"])
def test_map_worker_independence_under_spawn(workers):
    # threads share the map's context, so nothing is pickled: a dispersive
    # medium built from lambdas works under any start method.  The context
    # is only read: with more threads than cores and a short switch
    # interval, every row still equals its serial row.  256 columns on the
    # pilot's 3 panels make three row groups, so the threads run
    sc = replace(balance_scenario(sigma=1e-5, t_out=3e5, phi_k=0.3),
                 medium=AnalyticMedium.from_dispersion_params(1.4, 1e-5, 0.5))
    grid = MapGrid.centered(3e4, 3e4, 256, 24)
    assert len(_batch_sizes(sc, grid)) == 4
    serial = evaluate_map(sc, grid, workers=1)
    method = multiprocessing.get_start_method(allow_none=True)
    interval = sys.getswitchinterval()
    multiprocessing.set_start_method("spawn", force=True)
    sys.setswitchinterval(1e-6)
    try:
        parallel = evaluate_map(sc, grid, workers=workers)
    finally:
        sys.setswitchinterval(interval)
        multiprocessing.set_start_method(method, force=True)
    assert serial.scale == parallel.scale
    for name in ("values", "error_estimates", "flags", "panels", "rounds"):
        assert np.array_equal(getattr(serial, name), getattr(parallel, name))


def fig10_scenario():
    """The fig10 packet: sigma = 1e-2, so t_d~ = 0.39 against t_out = 1e6."""
    return balance_scenario(sigma=1e-2, t_out=1e6)


def test_fig10_rows_converge_on_the_graded_start_mesh():
    # the start mesh is graded down to the Gouy knee, so no row spends
    # rounds bisecting its way there (a uniform start takes ~22)
    grid = MapGrid.centered(400.0, 400.0, 16, 16)
    wmap = evaluate_map(fig10_scenario(), grid)
    assert wmap.rounds.shape == wmap.panels.shape == (grid.ny,)
    assert np.all(wmap.rounds <= 2)
    assert np.all(wmap.panels >= 1)
    assert not np.any(wmap.flags & int(WkbFlags.QUAD_NONCONVERGED))


def test_fig10_map_matches_reference_at_every_node():
    sc = fig10_scenario()
    grid = MapGrid.centered(400.0, 400.0, 6, 6)
    wmap = evaluate_map(sc, grid)
    assert np.array_equal(wmap.values[3:], wmap.values[2::-1, ::-1])
    for iy, y in enumerate(grid.ys()):
        for ix, x in enumerate(grid.xs()):
            ref = evaluate_point_reference(sc, np.array([x, y, grid.z]))
            assert (abs(wmap.values[iy, ix] * wmap.scale - ref.real)
                    <= 1e-9 * wmap.scale)


def _row_nodes(grid, iy):
    """The (nx, 3) nodes of grid row iy."""
    return np.column_stack([grid.xs(), np.full(grid.nx, grid.ys()[iy]),
                            np.full(grid.nx, grid.z)])


def _pilot(sc, grid, rel_tol=1e-9, max_panels=4096):
    """The map's pilot: the source row nearest R = 0 on its source
    columns, held to 1e-14 of the envelope integral and to rel_tol of its
    largest |integral|.  Returns that row, the map tolerance it sets, its
    values with the prefactor applied and its ``BatchQuadrature`` record,
    which the other rows follow."""
    ctx = _Context(sc)
    iy = int(_source_rows(grid)[np.argmin(np.abs(grid.ys()))])
    keep = _source_columns(ctx, grid).max() + 1
    floor = 1e-14 * ctx.envelope_scale
    pilot, _ = ctx.nodes(_row_nodes(grid, iy)[:keep], rel_tol, floor,
                         max_panels)
    abs_tol = max(rel_tol * float(np.max(np.abs(pilot.values))), floor)
    return iy, abs_tol, 2.0 * ctx.prefactor * pilot.values, pilot


def _rows_without_reuse(sc, grid, rel_tol=1e-9, max_panels=4096):
    """Map values before normalization with every row integrated in full
    under the map tolerance, following the pilot, as the map integrates
    its other rows, the pilot row included."""
    ctx = _Context(sc)
    _, abs_tol, _, pilot = _pilot(sc, grid, rel_tol, max_panels)
    rows = [ctx.nodes(_row_nodes(grid, iy), rel_tol, abs_tol, max_panels,
                      pilot)[0].values
            for iy in range(grid.ny)]
    return 2.0 * ctx.prefactor * np.array(rows)


def _batch_sizes(sc, grid, rel_tol=1e-9, max_panels=4096):
    """The node count of each ``integrate_batch`` call of the map: the
    pilot row on the source columns, then one row group after another,
    each as many consecutive other source rows as fit source columns x the
    pilot's panel count x 17 abscissae within ``numerics._BLOCK``, and at
    least one."""
    ctx = _Context(sc)
    iy = int(_source_rows(grid)[np.argmin(np.abs(grid.ys()))])
    keep = _source_columns(ctx, grid).max() + 1
    panels = ctx.nodes(_row_nodes(grid, iy)[:keep], rel_tol,
                       1e-14 * ctx.envelope_scale, max_panels)[0].panels_used
    others = np.unique(_source_rows(grid)).size - 1
    size = max(1, numerics._BLOCK // (keep * panels * 17))
    return [keep] + [keep * min(size, others - i)
                     for i in range(0, others, size)]


def test_pilot_row_reuse_matches_a_map_without_it():
    sc = fig10_scenario()
    grid = MapGrid.centered(400.0, 400.0, 8, 7)
    wmap = evaluate_map(sc, grid)
    raw = _rows_without_reuse(sc, grid)
    assert np.max(np.abs(wmap.values * wmap.scale - raw)) <= 1e-9 * wmap.scale


def skew_scenario():
    """The fig10 packet with phi_k = 0.3: no mirror symmetry in X, so a
    row copied without its reversal shows."""
    return balance_scenario(sigma=1e-2, t_out=1e6, phi_k=0.3)


def _count_batches(monkeypatch):
    """A list that gains the integrand of each ``integrate_batch`` call."""
    calls = []
    batch = numerics.integrate_batch

    def counted(f, *args, **kwargs):
        calls.append(f)
        return batch(f, *args, **kwargs)

    monkeypatch.setattr(numerics, "integrate_batch", counted)
    return calls


def test_point_is_one_batch_of_one_row(monkeypatch):
    sc = balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e6)
    calls = _count_batches(monkeypatch)
    evaluate_point(sc, np.array([3e4, -2e4, 0.0]))
    assert len(calls) == 1
    assert calls[0](np.linspace(0.0, sc.t_out, 5)).shape == (1, 5)


def test_map_long_nodes_as_points_take_few_rounds():
    # at theta_Ch the start mesh leaves [t_out/2, t_out] one panel; a
    # round cuts a one-row point's selected panels as deep as one
    # integrand call holds, so every 5th node of the map-long grid takes
    # 2.14 rounds on average as a point (one bisection level per round
    # took 5.38)
    sc = balance_scenario(sigma=1e-5, t_out=5e7)
    grid = default_grid(sc, 12, 12)
    ctx = _Context(sc)
    nodes = np.array([[x, y, grid.z] for y in grid.ys() for x in grid.xs()])
    rounds = [ctx.nodes(R[None, :], 1e-10, None, 4096)[0].rounds
              for R in nodes[::5]]
    assert np.mean(rounds) <= 3.0


def _count_start_meshes(monkeypatch):
    """A list that gains the arguments of each ``_start_mesh`` call."""
    calls = []
    start_mesh = numerics._start_mesh

    def counted(*args):
        calls.append(args)
        return start_mesh(*args)

    monkeypatch.setattr(numerics, "_start_mesh", counted)
    return calls


def test_gauss_kronrod_point_builds_one_start_mesh(monkeypatch):
    # the knee-only mesh of a Levin batch is built only once the start
    # mesh turns more than 1e4 radians; a point that stays Gauss-Kronrod
    # builds its start mesh alone
    sc = balance_scenario(sigma=1e-5, t_out=1e6)
    R = np.zeros(3)
    assert not _Context(sc).nodes(R[None, :], 1e-10, None, 4096)[0].levin
    calls = _count_start_meshes(monkeypatch)
    evaluate_point(sc, R)
    assert len(calls) == 1


def test_levin_point_on_one_start_panel_builds_one_start_mesh(monkeypatch):
    # at theta_Ch, t_out = 5e7, the phase_rate_hint split leaves one start
    # panel: that mesh is already the knee-only mesh of a Levin batch, so
    # a Levin point builds it once
    sc = balance_scenario(sigma=1e-5, t_out=5e7)
    grid = default_grid(sc, 12, 12)
    R = np.array([grid.xs()[3], grid.ys()[5], grid.z])
    assert _Context(sc).nodes(R[None, :], 1e-10, None, 4096)[0].levin
    calls = _count_start_meshes(monkeypatch)
    evaluate_point(sc, R)
    assert [args[2] for args in calls] == [1]


@pytest.mark.parametrize("theta_frac,meshes", [(1.0, [1, 1]),
                                               (1.1, [26, 1, 26, 1])])
def test_map_long_batches_build_each_start_mesh_once(theta_frac, meshes,
                                                     monkeypatch):
    # each batch of a map-long map (the pilot, then one row group) builds
    # its phase_rate_hint split and, when that has more than one panel,
    # the knee-only mesh that its Levin panels start on
    sc = balance_scenario(sigma=1e-5, theta_frac=theta_frac, t_out=5e7)
    grid = default_grid(sc, 12, 12)
    calls = _count_start_meshes(monkeypatch)
    wmap = evaluate_map(sc, grid)
    assert [args[2] for args in calls] == meshes
    assert np.all(wmap.rounds == 1)


@pytest.mark.parametrize("t_out", [59444.41642204142, 3e5, 1e6, 7e6, 5e7,
                                   7e7])
@pytest.mark.parametrize("theta_frac", [0.99, 1.1])
def test_envelope_scale_is_the_trapezoid_of_513_samples(theta_frac, t_out):
    # every point's abs_tol is 1e-10 of this integral: it stays
    # np.trapezoid of 1/G on np.linspace(0, t_out, 513), bit for bit
    sc = balance_scenario(sigma=1e-5, theta_frac=theta_frac, t_out=t_out)
    ctx = _Context(sc)
    t = np.linspace(0.0, t_out, 513)
    assert ctx.envelope_scale == float(
        np.trapezoid(1.0 / ctx.kernel.big_g(t), t))


def test_refined_point_sums_its_final_mesh_in_one_call():
    # a Gauss-Kronrod point of the benchmark's point design that refines
    # over several rounds: its value and error are those of its final
    # edges summed in one call, bit for bit, so no round's merge moves a
    # panel's sums
    mean = Momentum3(0.0, 0.0, 0.8223291548689425)
    sc = EmissionScenario(
        packet=ElectronPacket(mean, 0.0073125755806394905),
        medium=ConstantMedium(1.171396695390982), omega=4.515864686715488e-06,
        theta_k=0.5932387487473936, phi_k=0.5 * math.pi,
        t_out=59444.41642204142)
    R = np.array([[-22905.50046584955, -11505.653382900047,
                   -6804.278717158056]])
    ctx = _Context(sc)
    res, _ = ctx.nodes(R, 1e-10, None, 4096)
    assert res.rounds >= 2 and not res.levin and res.converged[0]
    vals, errs = numerics._gk15_panels(ctx.integrand_for(R), res.edges[:-1],
                                       res.edges[1:])
    assert np.array_equal(vals.sum(axis=1), res.values)
    assert np.array_equal(errs.sum(axis=1), res.error_estimates)


def test_point_on_its_start_mesh_is_one_integrand_call(monkeypatch):
    sc = balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e6)
    R = np.array([3e4, -2e4, 0.0])
    res, _ = _Context(sc).nodes(R[None, :], 1e-10, None, 4096)
    panels = res.panels_used
    assert res.rounds == 1 and panels <= 64
    sizes = []
    batch = numerics.integrate_batch

    def counted(f, *args, **kwargs):
        def g(t):
            sizes.append(t.size)
            return f(t)
        return batch(g, *args, **kwargs)

    monkeypatch.setattr(numerics, "integrate_batch", counted)
    evaluate_point(sc, R)
    assert sizes == [15 * panels]


@pytest.mark.parametrize("sc,grid", [
    (skew_scenario(), MapGrid.centered(400.0, 400.0, 6, 6)),
    (skew_scenario(), MapGrid.centered(400.0, 400.0, 5, 7)),
    # the integral cancels to ~4e-4 of Int dt'/G: the pilot row is
    # integrated once all the same
    (balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e7), None)],
    ids=["even", "odd", "long-1.1-theta-ch"])
def test_centered_map_integrates_one_row_of_each_mirror_pair(
        sc, grid, monkeypatch):
    # the pilot, then the other source rows in row groups: together one
    # row of each mirror pair
    grid = grid or default_grid(sc, 6, 6)
    sizes = _batch_sizes(sc, grid)
    calls = _count_batches(monkeypatch)
    evaluate_map(sc, grid, workers=1)
    assert _batch_rows(calls) == sizes
    assert sum(sizes) == math.ceil(grid.ny / 2) * sizes[0]


@pytest.mark.parametrize("theta_frac", [1.0, 1.1])
def test_map_long_integrates_each_source_row_once(theta_frac, monkeypatch):
    # the map-long maps: the pilot meets the map tolerance it sets, so it
    # is one of the map's rows and no row is integrated twice; the other
    # five source rows are one row group
    sc = balance_scenario(sigma=1e-5, theta_frac=theta_frac, t_out=5e7)
    grid = default_grid(sc, 12, 12)
    sizes = _batch_sizes(sc, grid)
    calls = _count_batches(monkeypatch)
    evaluate_map(sc, grid, workers=1)
    assert np.unique(_source_rows(grid)).size == 6
    assert _batch_rows(calls) == sizes == [6, 30]


def fig12_scenario():
    """The fig12 map's scenario, theta_k = 43.82 deg at t_out = 1e6."""
    return replace(balance_scenario(sigma=1e-5, t_out=1e6),
                   theta_k=math.radians(43.82))


# (scenario, default grid size): both map-long maps, fig12 and both
# 16 x 16 maps that Gauss-Kronrod alone left unconverged
_GROUPED_MAPS = [
    (balance_scenario(sigma=1e-5, t_out=5e7), 12),
    (balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e7), 12),
    (fig12_scenario(), 24),
    (balance_scenario(sigma=1e-2, t_out=1e6), 16),
    (balance_scenario(sigma=1e-3, t_out=7e6), 16)]
_GROUPED_IDS = ["map-long-1.0", "map-long-1.1", "fig12", "probe-sigma-1e-2",
                "probe-sigma-1e-3"]


@pytest.mark.parametrize("sc,size", _GROUPED_MAPS[:3], ids=_GROUPED_IDS[:3])
def test_map_long_and_fig12_maps_take_two_batches(sc, size, monkeypatch):
    # the pilot, then every other source row in one row group
    calls = _count_batches(monkeypatch)
    evaluate_map(sc, default_grid(sc, size, size))
    assert len(calls) == 2


def _per_row_map(sc, grid, rel_tol=1e-9, max_panels=4096):
    """The map integrated one source row per ``_Context.nodes`` batch: the
    pilot, then each other source row on its own under the map tolerance,
    following the pilot.  Returns, keyed by source row, its values and
    errors on the source columns with the prefactor applied, its flags,
    panels and rounds."""
    ctx = _Context(sc)
    iy_pilot = int(_source_rows(grid)[np.argmin(np.abs(grid.ys()))])
    keep = _source_columns(ctx, grid).max() + 1
    floor = 1e-14 * ctx.envelope_scale
    pilot, pilot_flags = ctx.nodes(_row_nodes(grid, iy_pilot)[:keep],
                                   rel_tol, floor, max_panels)
    abs_tol = max(rel_tol * float(np.max(np.abs(pilot.values))), floor)
    rows = {}
    for iy in np.unique(_source_rows(grid)):
        res, flags = ((pilot, pilot_flags) if iy == iy_pilot else ctx.nodes(
            _row_nodes(grid, iy)[:keep], rel_tol, abs_tol, max_panels,
            pilot))
        rows[iy] = (2.0 * ctx.prefactor * res.values,
                    2.0 * ctx.prefactor * res.error_estimates, flags,
                    res.panels_used, res.rounds)
    return rows


@pytest.mark.parametrize("sc,size", _GROUPED_MAPS, ids=_GROUPED_IDS)
def test_row_groups_match_per_row_batches_bit_for_bit(sc, size):
    # every row of these maps converges in its group's first round, and a
    # panel's sums depend only on its own samples: each source row gets the
    # bits of its own batch, its panels and rounds included
    grid = default_grid(sc, size, size)
    sizes = _batch_sizes(sc, grid)
    assert max(sizes[1:]) > sizes[0]  # some group holds several rows
    wmap = evaluate_map(sc, grid)
    rows = _per_row_map(sc, grid)
    scale = max(float(np.max(np.abs(row[0]))) for row in rows.values())
    assert wmap.scale == scale
    keep = sizes[0]
    for iy, (values, errors, flags, panels, rounds) in rows.items():
        assert np.array_equal(wmap.values[iy, :keep], values / scale)
        assert np.array_equal(wmap.error_estimates[iy, :keep],
                              errors / scale)
        assert np.array_equal(wmap.flags[iy, :keep], flags)
        assert wmap.panels[iy] == panels and wmap.rounds[iy] == rounds


def test_levin_row_fits_a_budget_of_the_pilots_panels():
    # with the pilot's edges as guide, a map-long row's Gauss-Kronrod start
    # mesh would take 18 panels, but the batch picks Levin panels and
    # starts on the pilot's 10: a budget of 10 is checked against those,
    # and the row takes the bits, panels and round of an uncapped budget
    sc = balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e7)
    grid = default_grid(sc, 12, 12)
    ctx = _Context(sc)
    _, abs_tol, _, pilot = _pilot(sc, grid)
    assert pilot.levin and pilot.panels_used == 10
    nodes = _row_nodes(grid, 0)[:_source_columns(ctx, grid).max() + 1]
    capped, uncapped = (ctx.nodes(nodes, 1e-9, abs_tol, budget, pilot)[0]
                        for budget in (pilot.panels_used, 4096))
    assert capped.rounds == 1 and capped.converged.all()
    assert np.array_equal(capped.edges, pilot.edges)
    for name in ("values", "error_estimates", "panels_used", "edges"):
        assert np.array_equal(getattr(capped, name), getattr(uncapped, name))


# both map-long maps, fig12 and the fig10 map at DeltaP = 0, each with
# the grid of its benchmark or bundled config
_BLOCK_MAPS = [(sc, default_grid(sc, size, size))
               for sc, size in _GROUPED_MAPS[:3]] + [
    (replace(fig10_scenario(), theta_k=math.radians(43.82)),
     MapGrid.centered(400.0, 400.0, 16, 16))]


@pytest.mark.parametrize("sc,grid", _BLOCK_MAPS,
                         ids=_GROUPED_IDS[:3] + ["fig10"])
def test_map_is_the_same_for_smaller_blocks(sc, grid, monkeypatch):
    # every row group of these maps converges in its first round on the
    # pilot's mesh, so a smaller _BLOCK, which splits the source rows into
    # more groups (4 to 12 batches) and their panels into more calls,
    # changes no bit
    want = evaluate_map(sc, grid)
    calls = _count_batches(monkeypatch)
    for block in (1 << 11, 1 << 9):
        monkeypatch.setattr(numerics, "_BLOCK", block)
        calls.clear()
        got = evaluate_map(sc, grid)
        assert len(calls) >= 4
        assert got.scale == want.scale
        for name in ("values", "error_estimates", "flags", "panels",
                     "rounds"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("sc,size", _GROUPED_MAPS[:3], ids=_GROUPED_IDS[:3])
def test_row_groups_are_held_to_the_pilots_recorded_tolerance(sc, size,
                                                              monkeypatch):
    # the pilot's record keeps the tolerance it was held to, 1e-14 of the
    # envelope integral or rel_tol of its largest |integral|, and every
    # row group follows that record with that tolerance as its abs_tol
    calls = []
    nodes = _Context.nodes

    def recorded(self, R, rel_tol, abs_tol, max_panels, pilot=None):
        res = nodes(self, R, rel_tol, abs_tol, max_panels, pilot)
        calls.append((abs_tol, pilot, res[0]))
        return res

    monkeypatch.setattr(_Context, "nodes", recorded)
    evaluate_map(sc, default_grid(sc, size, size))
    (_, _, pilot), *groups = calls
    floor = 1e-14 * _Context(sc).envelope_scale
    assert pilot.tolerance == max(floor,
                                  1e-9 * float(np.max(np.abs(pilot.values))))
    assert groups
    for abs_tol, followed, _ in groups:
        assert followed is pilot and abs_tol == pilot.tolerance


@pytest.mark.parametrize("theta_frac,t_out", [
    (1.0, 1e6), (1.1, 1e6), (1.0, 5e7), (1.1, 5e7)],
    ids=["1.0-1e6", "1.1-1e6", "1.0-5e7", "1.1-5e7"])
def test_paper_scale_map_calls_hold_at_most_a_block(theta_frac, t_out,
                                                    monkeypatch):
    # the 128 x 128 default maps, in row groups of 6-10 rows: no call of an
    # integrand or of its log form holds more than _BLOCK rows x abscissae
    sc = balance_scenario(sigma=1e-5, theta_frac=theta_frac, t_out=t_out)
    sizes = []
    integrand_for = _Context.integrand_for

    def recorded(self, R):
        f = integrand_for(self, R)
        rows = np.reshape(R, (-1, 3)).shape[0]

        def counted(form):
            def g(t):
                sizes.append(rows * np.size(t))
                return form(t)
            return g

        g = counted(f)
        g.levin = counted(f.levin)
        return g

    monkeypatch.setattr(_Context, "integrand_for", recorded)
    evaluate_map(sc, default_grid(sc))
    assert sizes and max(sizes) <= numerics._BLOCK


@pytest.mark.parametrize("grid,nearest,pilot_row", [
    (MapGrid.centered(400.0, 400.0, 5, 7), 3, 3),
    (MapGrid.centered(400.0, 400.0, 6, 4), 1, 1),
    (MapGrid.centered(400.0, 500.0, 7, 4), 2, 1),
    (MapGrid.centered(400.0, 300.0, 6, 8), 4, 3)],
    ids=["odd-odd-middle", "even-even-low", "odd-even-high",
         "even-even-high"])
def test_mirrored_rows_are_their_source_reversed(grid, nearest, pilot_row,
                                                 monkeypatch):
    sc = skew_scenario()
    # rounding puts the row nearest R = 0 above the centre on the *-high
    # grids; the pilot is still the lower row of the pair, its source, so
    # its row is not integrated again
    assert np.argmin(np.abs(grid.ys())) == nearest
    iy_pilot, _, pilot, _ = _pilot(sc, grid)
    assert iy_pilot == pilot_row
    sizes = _batch_sizes(sc, grid)
    calls = _count_batches(monkeypatch)
    wmap = evaluate_map(sc, grid, workers=1)
    assert _batch_rows(calls) == sizes
    assert sum(sizes) == math.ceil(grid.ny / 2) * grid.nx
    assert np.array_equal(wmap.values[iy_pilot], pilot / wmap.scale)
    for iy in range(grid.ny // 2):
        mirror = grid.ny - 1 - iy
        for name in ("values", "error_estimates", "flags"):
            rows = getattr(wmap, name)
            assert np.array_equal(rows[mirror], rows[iy, ::-1]), name
        assert wmap.panels[mirror] == wmap.panels[iy]
        assert wmap.rounds[mirror] == wmap.rounds[iy]
    raw = _rows_without_reuse(sc, grid)
    assert np.max(np.abs(wmap.values * wmap.scale - raw)) <= 1e-9 * wmap.scale


@pytest.mark.parametrize("grid", [
    MapGrid(-300.0, 400.0, 5, -400.0, 400.0, 6),
    MapGrid(-400.0, 400.0, 5, -300.0, 400.0, 6),
    MapGrid.centered(400.0, 400.0, 5, 6, z=50.0),
    # one column at X = x_min: x_min = -x_max, yet the nodes are not
    # symmetric about X = 0
    MapGrid.centered(400.0, 400.0, 1, 6)],
    ids=["off-centre-x", "off-centre-y", "z-nonzero", "one-column"])
def test_grid_without_mirror_symmetry_integrates_every_row(grid,
                                                           monkeypatch):
    sc = skew_scenario()
    iy_pilot, _, pilot, _ = _pilot(sc, grid)
    raw = _rows_without_reuse(sc, grid)
    raw[iy_pilot] = pilot
    sizes = _batch_sizes(sc, grid)
    calls = _count_batches(monkeypatch)
    wmap = evaluate_map(sc, grid, workers=1)
    assert _batch_rows(calls) == sizes
    assert sum(sizes) == grid.ny * grid.nx
    assert np.array_equal(wmap.values, raw / wmap.scale)


# (scenario, grid or (nx, ny) of its default grid)
_WORKER_CASES = [
    (fig10_scenario(), MapGrid.centered(400.0, 400.0, 8, 5)),
    (skew_scenario(), MapGrid.centered(400.0, 300.0, 6, 8)),
    (skew_scenario(), MapGrid.centered(400.0, 400.0, 7, 7)),
    # mirrored rows here differ from rows integrated on their own in the
    # last digits: the pool must integrate the same rows
    (balance_scenario(sigma=1e-5, t_out=1e6, phi_k=0.3), (6, 6)),
    # here the pilot takes 4 rounds, and integrating its row again under
    # the map tolerance gives other last digits: the pool must not
    (balance_scenario(sigma=1e-4, theta_frac=1.1, t_out=3e5), (8, 5)),
    # phi_k = 90 deg, half rows, at a t_out where the integral cancels
    (balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e7), (5, 4)),
    # two row groups, each refined over five rounds: the pool runs
    (skew_scenario(), (20, 20))]


@pytest.mark.parametrize("sc,grid", _WORKER_CASES,
                         ids=["fig10", "pilot-high", "odd", "mirrored-digits",
                              "four-round-pilot", "half-rows-long",
                              "two-groups"])
def test_map_worker_independence_with_a_reused_pilot_row(sc, grid):
    if not isinstance(grid, MapGrid):
        grid = default_grid(sc, *grid)
    serial = evaluate_map(sc, grid, workers=1)
    parallel = evaluate_map(sc, grid, workers=2)
    assert serial.scale == parallel.scale
    for name in ("values", "error_estimates", "flags", "panels", "rounds"):
        assert np.array_equal(getattr(serial, name), getattr(parallel, name))


@pytest.mark.parametrize("sc,R", [
    (fig10_scenario(), [150.0, -80.0, 0.0]),
    (fig10_scenario(), [150.0, 60.0, 90.0]),
    (balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e7),
     [4e5, -2e5, -1e5])],
    ids=["z0", "z-nonzero", "long"])
def test_reference_is_even_in_x_normal_to_the_emission_plane(sc, R):
    # the reference route, not the map's: W(x, y, z) = W(-x, y, z) at
    # phi_k = 90 deg, where X is normal to the plane of u_p and u_k, and
    # not at phi_k = 0.3
    R = np.array(R)
    flip = R * [-1.0, 1.0, 1.0]
    ref = evaluate_point_reference(sc, R).real
    assert abs(evaluate_point_reference(sc, flip).real - ref) <= 1e-12 * abs(ref)
    skew = replace(sc, phi_k=0.3)
    ref = evaluate_point_reference(skew, R).real
    assert abs(evaluate_point_reference(skew, flip).real - ref) > 0.1 * abs(ref)


def _batch_rows(calls):
    return [f(np.array([0.0, 1.0])).shape[0] for f in calls]


@pytest.mark.parametrize("grid", [
    MapGrid.centered(400.0, 400.0, 6, 6),
    MapGrid.centered(400.0, 400.0, 7, 5),
    MapGrid.centered(400.0, 300.0, 5, 4, z=120.0),
    MapGrid.centered(400.0, 400.0, 2, 3)],
    ids=["even", "odd", "odd-z-nonzero", "two-columns"])
def test_x_normal_map_integrates_half_of_each_row(grid, monkeypatch):
    sc = fig10_scenario()
    ctx = _Context(sc)
    assert _x_normal(ctx.kernel)
    keep = math.ceil(grid.nx / 2)
    sizes = _batch_sizes(sc, grid)
    calls = _count_batches(monkeypatch)
    wmap = evaluate_map(sc, grid, workers=1)
    assert _batch_rows(calls) == sizes
    assert all(rows % keep == 0 for rows in sizes)
    # each batch is the first keep columns of whole rows: an odd grid's
    # centre column once per row, as its last node
    t = np.linspace(0.0, sc.t_out, 7)
    for f in calls:
        for block in f(t).reshape(-1, keep, t.size):
            assert any(np.array_equal(block, ctx.integrand_for(
                _row_nodes(grid, iy)[:keep])(t)) for iy in range(grid.ny))
    for name in ("values", "error_estimates", "flags"):
        rows = getattr(wmap, name)
        assert np.array_equal(rows[:, keep:], rows[:, grid.nx - keep - 1::-1])


def test_centered_x_normal_map_integrates_exactly_its_source_nodes(
        monkeypatch):
    # odd x odd at phi_k = 90 deg and Z = 0: both folds at once, so only
    # the 4 x 3 source nodes, the centre row and column included, are
    # integrated, each once, and every node is its source's value
    sc = fig10_scenario()
    grid = MapGrid.centered(400.0, 400.0, 7, 5)
    ctx = _Context(sc)
    rows, cols = _source_rows(grid), _source_columns(ctx, grid)
    assert rows.tolist() == [0, 1, 2, 1, 0]
    assert cols.tolist() == [0, 1, 2, 3, 2, 1, 0]
    integrated = []
    integrand_for = _Context.integrand_for

    def recorded(self, R):
        integrated.extend(map(tuple, np.reshape(R, (-1, 3))))
        return integrand_for(self, R)

    monkeypatch.setattr(_Context, "integrand_for", recorded)
    wmap = evaluate_map(sc, grid, workers=1)
    sources = [(x, y, 0.0) for y in grid.ys()[:3] for x in grid.xs()[:4]]
    assert sorted(integrated) == sorted(sources)
    for name in ("values", "error_estimates", "flags"):
        part = getattr(wmap, name)
        assert np.array_equal(part, part[np.ix_(rows, cols)]), name
    assert np.array_equal(wmap.panels, wmap.panels[rows])
    assert np.array_equal(wmap.rounds, wmap.rounds[rows])


def _delta_p_scenario(sigmas):
    """The fig10 scenario with DeltaP = sigmas * sigma along X."""
    sc = fig10_scenario()
    shift = Momentum3(sigmas * sc.packet.sigma, 0.0, 0.0)
    return replace(sc, p_prime=sc.packet.mean_momentum
                   - sc.photon_momentum() + shift)


@pytest.mark.parametrize("sc,grid", [
    (skew_scenario(), MapGrid.centered(400.0, 400.0, 6, 6)),
    (_delta_p_scenario(1.0), MapGrid.centered(400.0, 400.0, 7, 6)),
    (fig10_scenario(), MapGrid(-300.0, 400.0, 6, -400.0, 400.0, 6)),
    (fig10_scenario(), MapGrid(-400.0, 400.0, 1, -400.0, 400.0, 6)),
    (fig10_scenario(), MapGrid(0.0, 0.0, 1, -400.0, 400.0, 5))],
    ids=["skew", "delta-p-1sigma", "off-centre-x", "one-column",
         "one-column-at-0"])
def test_map_keeps_full_rows_unless_x_is_normal_and_symmetric(sc, grid,
                                                              monkeypatch):
    # the pilot is one full row, and every row group whole full rows
    sizes = _batch_sizes(sc, grid)
    calls = _count_batches(monkeypatch)
    evaluate_map(sc, grid, workers=1)
    assert _batch_rows(calls) == sizes
    assert sizes[0] == grid.nx
    assert all(rows % grid.nx == 0 for rows in sizes)


def test_x_normal_needs_both_d_and_c_normal_to_x():
    # a DeltaP offset along X or a skew phi_k tilts the emission plane
    assert _x_normal(_Context(fig10_scenario()).kernel)
    assert not _x_normal(_Context(_delta_p_scenario(1.0)).kernel)
    assert not _x_normal(_Context(skew_scenario()).kernel)
    # d_x = 0 makes A even in X, but B = (R . c)^2 is even in X only when
    # c lies along X
    R = np.array([[300.0, 200.0, -100.0], [-300.0, 200.0, -100.0]])
    for u_k, normal in (([0.3, 0.5, 0.4], False), ([0.0, 0.5, 0.4], True)):
        u_p = [u_k[0], 0.1, 0.9]
        kern = PhaseSpaceKernel(np.array(u_p), np.array(u_k), 1.0, 0.5, 1e-2)
        assert kern.diff[0] == 0.0
        assert _x_normal(kern) == normal
        a, b = kern.direction_factors(R)
        assert (np.isclose(a[0], a[1], rtol=1e-14, atol=0.0)
                and np.isclose(b[0], b[1], rtol=1e-14, atol=0.0)) == normal


def test_copied_half_rows_match_rows_integrated_in_full():
    # the map-long theta_Ch map: each row's copied half is within 1e-12 of
    # the scale of that row integrated with all its columns, following the
    # converged pilot as in the map
    sc = balance_scenario(sigma=1e-5, t_out=5e7)
    grid = default_grid(sc, 12, 12)
    wmap = evaluate_map(sc, grid)
    ctx = _Context(sc)
    _, abs_tol, _, pilot = _pilot(sc, grid)
    assert pilot.converged.all()
    keep = grid.nx // 2
    for iy in range(grid.ny):
        full = 2.0 * ctx.prefactor * ctx.nodes(
            _row_nodes(grid, iy), 1e-9, abs_tol, 4096, pilot)[0].values
        assert (np.max(np.abs(wmap.values[iy, keep:] * wmap.scale
                              - full[keep:])) <= 1e-12 * wmap.scale)


def test_map_long_rows_follow_the_pilot_mesh():
    # both map-long maps and the fig12 map: every other source row starts
    # on the converged pilot's final mesh and converges there, in one
    # round (bisection took 6-8, and cuts at the pilot's edges 2)
    for sc, size in _GROUPED_MAPS[:3]:
        grid = default_grid(sc, size, size)
        iy_pilot, _, _, pilot = _pilot(sc, grid)
        assert pilot.converged.all()
        wmap = evaluate_map(sc, grid)
        others = [iy for iy in np.unique(_source_rows(grid))
                  if iy != iy_pilot]
        assert np.all(wmap.rounds[others] == 1)
        assert not np.any(wmap.flags[others]
                          & int(WkbFlags.QUAD_NONCONVERGED))


@pytest.mark.parametrize("theta_frac", [1.0, 1.1])
def test_map_long_rows_take_few_levin_panels(theta_frac):
    # at t_out = 5e7 the phase makes ~10^4 turns over the outer nodes: Levin
    # panels on the Gouy-knee grading hold every source row to the map
    # tolerance on a few panels (Gauss-Kronrod took 196-229, the pilot in
    # 4-8 rounds)
    sc = balance_scenario(sigma=1e-5, theta_frac=theta_frac, t_out=5e7)
    wmap = evaluate_map(sc, default_grid(sc, 12, 12))
    assert np.all(wmap.panels <= 40) and np.all(wmap.rounds <= 3)
    assert not np.any(wmap.flags & int(WkbFlags.QUAD_NONCONVERGED))


def test_unconverged_pilot_guides_no_row(monkeypatch):
    # on a 16-panel budget the fig10 pilot does not converge, so its mesh
    # is no guide: every row starts on the start mesh alone.  (The
    # map-long pilot, which this test used on 64 panels, now converges on
    # any budget: Levin panels take its whole [0, t_out] on one panel.)
    sc = fig10_scenario()
    grid = MapGrid.centered(400.0, 400.0, 6, 6)
    assert not _pilot(sc, grid, max_panels=16)[3].converged.all()
    sizes = _batch_sizes(sc, grid, max_panels=16)
    guides = []
    batch = numerics.integrate_batch

    def recorded(f, *args, guide=None, **kwargs):
        guides.append(guide)
        return batch(f, *args, guide=guide, **kwargs)

    monkeypatch.setattr(numerics, "integrate_batch", recorded)
    evaluate_map(sc, grid, max_panels=16)
    assert len(guides) == len(sizes) == 2
    assert all(g is None for g in guides)


_MAP_CASES = _WORKER_CASES + [
    (fig10_scenario(), MapGrid.centered(400.0, 400.0, 16, 16)),
    (skew_scenario(), MapGrid(-300.0, 400.0, 5, -400.0, 400.0, 6)),
    (skew_scenario(), MapGrid.centered(400.0, 400.0, 5, 6, z=50.0)),
    (skew_scenario(), MapGrid.centered(400.0, 400.0, 1, 6)),
    (fig10_scenario(), MapGrid.centered(400.0, 300.0, 5, 4, z=120.0)),
    (_delta_p_scenario(1.0), MapGrid.centered(400.0, 400.0, 7, 6)),
    (balance_scenario(sigma=1e-5, t_out=3e5),
     MapGrid.centered(3e4, 3e4, 9, 9)),
    (balance_scenario(sigma=1e-5, t_out=1e6),
     MapGrid.centered(2e5, 1e5, 17, 9)),
    (balance_scenario(sigma=1e-5, t_out=5e7), (12, 12)),
    (balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e7), (12, 12))]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(case=st.sampled_from(_MAP_CASES),
       rel_tol=st.sampled_from([1e-9, 1e-7, 1e-11]))
@example(case=_MAP_CASES[-2], rel_tol=1e-9)
def test_pilot_row_meets_the_map_tolerance(case, rel_tol):
    # the pilot is held to the floor of the map tolerance and to rel_tol of
    # its own largest |integral|, and the map tolerance is the larger of
    # the two: every pilot node meets the tolerance of the map's other
    # rows, or is flagged, so the pilot is one of the map's rows
    sc, grid = case
    if not isinstance(grid, MapGrid):
        grid = default_grid(sc, *grid)
    batches = []
    batch = numerics.integrate_batch

    def recorded(f, *args, **kwargs):
        batches.append((kwargs["abs_tol"], batch(f, *args, **kwargs)))
        return batches[-1][1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(numerics, "integrate_batch", recorded)
        evaluate_map(sc, grid, rel_tol=rel_tol)
    (_, pilot), *others = batches
    floor = 1e-14 * _Context(sc).envelope_scale
    map_tol = max(rel_tol * float(np.max(np.abs(pilot.values))), floor)
    assert [abs_tol for abs_tol, _ in others] == [map_tol] * len(others)
    assert np.array_equal(pilot.converged, pilot.error_estimates <= map_tol)
    assert ([batch.values.size for _, batch in batches]
            == _batch_sizes(sc, grid, rel_tol))


def test_delta_p_scan():
    sigma = 1e-2
    sc = balance_scenario(sigma=sigma, t_out=1e6)
    grid = MapGrid.centered(400.0, 400.0, 12, 12)
    maps = delta_p_scan(sc, [0.0, sigma, -sigma, 2 * sigma], grid=grid)
    base = maps[0]
    for offset, wmap in zip([0.0, 1.0, -1.0, 2.0], maps):
        expected = math.exp(-offset ** 2)
        assert abs(wmap.scale / base.scale - expected) < 0.05 * expected
        assert np.max(np.abs(wmap.values - base.values)) < 1e-3
    # Gaussian is even in the offset
    assert abs(maps[1].scale - maps[2].scale) < 1e-6 * maps[1].scale


@settings(derandomize=True, max_examples=25, deadline=None)
@given(offset=st.floats(-3.0, 3.0))
def test_delta_p_intensity_law_property(offset):
    # the raw scale follows exp(-DeltaP^2/sigma^2) anywhere within the
    # +-3 sigma the scan accepts, and the normalized shape stays put.  The
    # scan's default direction X is normal to the plane of u_p and u_k
    # (phi_k = 90 deg), so the energy mismatch does not move with DeltaP
    sigma = 1e-2
    sc = balance_scenario(sigma=sigma, t_out=1e6)
    grid = MapGrid.centered(400.0, 400.0, 6, 6)
    base, moved = delta_p_scan(sc, [0.0, offset * sigma], grid=grid)
    expected = math.exp(-offset ** 2)
    assert abs(moved.scale / base.scale - expected) < 0.05 * expected
    assert np.max(np.abs(moved.values - base.values)) < 1e-3


def test_delta_p_scan_rejects_large_offsets():
    sc = balance_scenario(sigma=1e-2, t_out=1e5)
    with pytest.raises(ValueError):
        delta_p_scan(sc, [0.05])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_delta_p_scan_rejects_non_finite_offsets(bad):
    # abs(nan) > 3 sigma is False: without its own check a NaN offset
    # reached the quadrature
    sc = balance_scenario(sigma=1e-2, t_out=1e5)
    with pytest.raises(ValueError, match="offsets must be finite"):
        delta_p_scan(sc, [0.0, bad], grid=MapGrid.centered(1.0, 1.0, 1, 1))


def snapshot_scenario(sigma=1e-2, beta=0.5):
    # in-plane drift so the packet center moves across the snapshot grid
    mean = Momentum3(0.0, momentum_magnitude(beta), 0.0)
    packet = ElectronPacket(mean, sigma)
    return EmissionScenario(packet=packet, medium=ConstantMedium(1.5),
                            omega=1e-5, theta_k=0.5, phi_k=0.5 * math.pi,
                            t_out=1.0)


def test_snapshot_initial_width_and_mass():
    sigma = 1e-2
    sc = snapshot_scenario(sigma)
    half = 6.0 / sigma
    snap = near_field_snapshot(sc, MapGrid.centered(half, half, 201, 201), 0.0)
    assert abs(snap.mass() - 1.0) < 1e-3
    xs = snap.grid.xs()
    profile = snap.values[100, :]
    half_max = profile >= profile.max() / math.e
    width = xs[half_max][-1] - xs[half_max][0]
    assert abs(width - 2.0 / sigma) < 4 * (xs[1] - xs[0])


def test_snapshot_spreads_by_sqrt2_at_diffraction_time():
    sigma = 1e-2
    sc = snapshot_scenario(sigma)
    eps = math.sqrt(1.0 + momentum_magnitude(0.5) ** 2)
    t_de = eps / sigma ** 2
    half = 12.0 / sigma
    snap0 = near_field_snapshot(sc, MapGrid.centered(half, half, 101, 101), 0.0)
    c1 = 0.5 * t_de  # packet drifts along y
    grid1 = MapGrid(-half, half, 101, c1 - half, c1 + half, 101)
    snap1 = near_field_snapshot(sc, grid1, t_de)
    # width grows by sqrt(2), so the peak of the transverse marginal halves
    assert abs(snap1.meta["sigma_perp"]
               - math.sqrt(2.0) / sigma) < 1e-9 / sigma
    assert abs(snap0.values.max() / snap1.values.max() - 2.0) < 0.01


def test_snapshot_center_tracks_packet():
    sigma = 1e-2
    beta = 0.5
    sc = snapshot_scenario(sigma, beta)
    t = 4000.0
    half = 8.0 / sigma
    grid = MapGrid(-half, half, 121, beta * t - half, beta * t + half, 121)
    snap = near_field_snapshot(sc, grid, t)
    iy, ix = np.unravel_index(np.argmax(snap.values), snap.values.shape)
    assert abs(snap.grid.ys()[iy] - beta * t) <= (snap.grid.ys()[1]
                                                  - snap.grid.ys()[0])
    assert abs(snap.grid.xs()[ix]) <= (snap.grid.xs()[1] - snap.grid.xs()[0])


def test_snapshot_mass_conserved_over_time():
    sigma = 1e-2
    beta = 0.5
    sc = snapshot_scenario(sigma, beta)
    eps = math.sqrt(1.0 + momentum_magnitude(beta) ** 2)
    t_de = eps / sigma ** 2
    masses = []
    for t in (0.0, 0.5 * t_de, t_de, 2.0 * t_de):
        width = math.sqrt(1.0 + (t / t_de) ** 2) / sigma
        half = 6.0 * width
        grid = MapGrid(-half, half, 161, beta * t - half, beta * t + half, 161)
        masses.append(near_field_snapshot(sc, grid, t).mass())
    assert np.ptp(masses) < 1e-3


@pytest.mark.parametrize("call,name", [
    (lambda sc: evaluate_point(sc, [0.0, 0.0, 0.0], rel_tol=math.nan),
     "rel_tol"),
    (lambda sc: evaluate_map(sc, MapGrid.centered(1e3, 1e3, 3, 3),
                             max_panels=0), "max_panels"),
    (lambda sc: evaluate_point(sc, [math.inf, 0.0, 0.0]), "R"),
    (lambda sc: evaluate_point(sc, [0.0, math.nan, 0.0]), "R"),
    (lambda sc: evaluate_point_reference(sc, [math.inf, 0.0, 0.0]), "R"),
    (lambda sc: evaluate_point_reference(sc, [math.nan, 0.0, 0.0]), "R"),
    *[(lambda sc, bad=bad: evaluate_point(sc, np.zeros(bad)), "R")
      for bad in ((2,), (4,), (2, 3))],
    *[(lambda sc, bad=bad: evaluate_point_reference(sc, np.zeros(bad)), "R")
      for bad in ((2,), (2, 3))],
    *[(lambda sc, bad=bad: evaluate_point(sc, [0.0, 0.0, 0.0],
                                          max_panels=bad), "max_panels")
      for bad in (math.nan, math.inf, 16.5, 2.0)],
    *[(lambda sc, bad=bad: evaluate_map(sc, MapGrid.centered(1e3, 1e3, 3, 3),
                                        max_panels=bad), "max_panels")
      for bad in (math.nan, math.inf, 16.5, 2.0)]],
    ids=["point", "map", "point-inf-node", "point-nan-node",
         "reference-inf-node", "reference-nan-node", "point-2-node",
         "point-4-node", "point-2x3-node", "reference-2-node",
         "reference-2x3-node",
         "point-nan-panels", "point-inf-panels", "point-16.5-panels",
         "point-2.0-panels", "map-nan-panels", "map-inf-panels",
         "map-16.5-panels", "map-2.0-panels"])
def test_points_and_maps_reject_invalid_quadrature_settings(call, name):
    # a non-finite node used to warn (inf) or blame the integrand (NaN:
    # NonFiniteIntegrand on [0, t_out]); the reference used to warn (inf)
    # or fail to place its mesh (NaN); map nodes are checked by MapGrid.
    # A max_panels of NaN or inf refined without bound, and a map at 2.5
    # blamed a guide that no caller gave.  A node of other than three
    # values failed in numpy's reshape (points) or in an index or a
    # broadcast (the reference), without naming R
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(balance_scenario(sigma=1e-5, t_out=3e5))


def test_default_grid_extent():
    sc = balance_scenario(sigma=1e-5, t_out=1e6)
    grid = default_grid(sc, 16, 16)
    assert grid.nx == grid.ny == 16
    assert 0 < grid.x_max <= 0.99 * sc.t_out
    assert 0 < grid.y_max <= 0.99 * sc.t_out


class _MapGrid(Exception):
    """Carries the grid a map was about to integrate."""


def test_default_grid_reads_only_the_kernel(monkeypatch):
    # no |M|^2, prefactor, envelope or WKB flags; and the grid is the one
    # that evaluate_map builds for itself when given none
    from cherenkov_wigner import amplitudes, observables, wignerfield

    def never(*args, **kwargs):
        raise AssertionError("default_grid evaluated more than the kernel")

    sc = balance_scenario(sigma=1e-5, t_out=1e6, theta_frac=1.1)
    with monkeypatch.context() as m:
        for owner, name in ((amplitudes, "summed_mod_squared"),
                            (amplitudes, "helicity_amplitude"),
                            (observables, "wkb_flags"),
                            (PhaseSpaceKernel, "big_g")):
            m.setattr(owner, name, never)
        grid = default_grid(sc, 128, 128)

    def stop(grid):
        raise _MapGrid(grid)

    monkeypatch.setattr(wignerfield, "_source_rows", stop)
    with pytest.raises(_MapGrid) as own:
        evaluate_map(sc)
    assert own.value.args[0] == grid


def test_scenario_validation():
    mean = Momentum3(0, 0, 1.0)
    packet = ElectronPacket(mean, 1e-4)
    with pytest.raises(ValueError):
        EmissionScenario(packet=packet, medium=ConstantMedium(1.5),
                         omega=1e-5, theta_k=0.5, phi_k=0.0, t_out=0.0)
    with pytest.raises(ValueError):
        EmissionScenario(packet=packet, medium=ConstantMedium(1.5),
                         omega=-1e-5, theta_k=0.5, phi_k=0.0, t_out=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t_out"):
            EmissionScenario(packet=packet, medium=ConstantMedium(1.5),
                             omega=1e-5, theta_k=0.5, phi_k=0.0, t_out=bad)
        with pytest.raises(ValueError, match="omega"):
            EmissionScenario(packet=packet, medium=ConstantMedium(1.5),
                             omega=bad, theta_k=0.5, phi_k=0.0, t_out=1.0)
        with pytest.raises(ValueError, match="theta_k must be finite"):
            EmissionScenario(packet=packet, medium=ConstantMedium(1.5),
                             omega=1e-5, theta_k=bad, phi_k=0.0, t_out=1.0)
        with pytest.raises(ValueError, match="phi_k must be finite"):
            EmissionScenario(packet=packet, medium=ConstantMedium(1.5),
                             omega=1e-5, theta_k=0.5, phi_k=bad, t_out=1.0)
        with pytest.raises(ValueError, match="p_prime must be finite"):
            EmissionScenario(packet=packet, medium=ConstantMedium(1.5),
                             omega=1e-5, theta_k=0.5, phi_k=0.0, t_out=1.0,
                             p_prime=Momentum3(0.0, bad, 0.9))


@pytest.mark.parametrize("name,bad", [
    ("lambda_gamma", 0), ("lambda_gamma", 2), ("lambda_gamma", 0.5),
    ("lambda_prime", 0.0), ("lambda_prime", 1.0), ("lambda_prime", None)])
def test_scenario_rejects_helicities_by_name(name, bad):
    # lambda_gamma = 0 used to compute the +1 helicity while the map said
    # "sum"
    with pytest.raises(ValueError, match=f"^{name} must be one of"):
        replace(balance_scenario(), **{name: bad})


def test_map_labels_the_photon_helicity_it_computes():
    grid = MapGrid.centered(1e3, 1e3, 1, 1)
    maps = {lg: evaluate_map(balance_scenario(lambda_gamma=lg), grid,
                             workers=1) for lg in (None, 1, -1)}
    assert [maps[lg].meta["lambda_gamma"] for lg in maps] == ["sum", 1, -1]
    # the helicity enters only through |M|^2 in the prefactor
    assert maps[None].scale == pytest.approx(maps[1].scale + maps[-1].scale,
                                             rel=1e-12)


@pytest.mark.parametrize("workers", [0, -3])
def test_map_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match="^workers must be an integer >= 1"):
        evaluate_map(balance_scenario(), MapGrid.centered(1e3, 1e3, 1, 1),
                     workers=workers)


@pytest.mark.parametrize("workers", [math.nan, 1.5, 2.0])
def test_map_rejects_workers_that_are_not_integers(workers, monkeypatch):
    # NaN passes a "< 1" check and would start a pool with no thread that
    # never returns; 1.5 would start two threads.  Both fail by name before
    # any quadrature or thread
    def never(*args, **kwargs):
        raise AssertionError("started before workers was checked")

    monkeypatch.setattr(numerics, "integrate_batch", never)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", never)
    with pytest.raises(ValueError, match="^workers must be an integer >= 1"):
        evaluate_map(skew_scenario(), default_grid(skew_scenario(), 20, 20),
                     workers=workers)


@pytest.mark.parametrize("sc,size,pools", [
    (balance_scenario(sigma=1e-5, t_out=5e7), 12, []),
    (skew_scenario(), 20, [2])], ids=["one-group", "two-groups"])
def test_threads_map_row_groups(sc, size, pools, monkeypatch):
    # workers > 1 maps the row groups over a pool, and a map of one group
    # starts none
    grid = default_grid(sc, size, size)
    assert len(_batch_sizes(sc, grid)) - 1 == max(pools, default=1)
    tasks = []
    executor = concurrent.futures.ThreadPoolExecutor

    class Recorded(executor):
        def map(self, fn, items, **kwargs):
            tasks.append(len(items))
            return super().map(fn, items, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    evaluate_map(sc, grid, workers=2)
    assert tasks == pools


def test_threads_on_a_levin_map_of_several_groups_change_no_bit(
        monkeypatch):
    # the pilot and two row groups, all on Levin panels: the maps where
    # threads pay off most give the serial map's bits
    sc = balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e7)
    grid = default_grid(sc, 72, 20)
    assert len(_batch_sizes(sc, grid)) == 3
    rules = []
    batch = numerics.integrate_batch

    def recorded(*args, **kwargs):
        res = batch(*args, **kwargs)
        rules.append(res.levin)
        return res

    monkeypatch.setattr(numerics, "integrate_batch", recorded)
    serial = evaluate_map(sc, grid, workers=1)
    assert rules == [True] * 3
    parallel = evaluate_map(sc, grid, workers=2)
    assert serial.scale == parallel.scale
    for name in ("values", "error_estimates", "flags", "panels", "rounds"):
        assert np.array_equal(getattr(serial, name), getattr(parallel, name))


@pytest.mark.parametrize("name", ["x_min", "x_max", "y_min", "y_max", "z"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_map_grid_extent_must_be_finite(name, bad):
    extent = dict(x_min=-1.0, x_max=1.0, nx=3, y_min=-1.0, y_max=1.0, ny=3,
                  z=0.0)
    extent[name] = bad
    with pytest.raises(ValueError, match=f"grid {name} must be finite"):
        MapGrid(**extent)


@pytest.mark.parametrize("name", ["nx", "ny"])
@pytest.mark.parametrize("bad", [3.0, 1.5, np.float64(4)])
def test_map_grid_sizes_must_be_integers(name, bad):
    # such a grid was built, and its map failed in linspace
    sizes = dict(nx=3, ny=3)
    sizes[name] = bad
    with pytest.raises(ValueError, match=f"^grid {name} must be an integer"):
        MapGrid.centered(1e3, 1e3, **sizes)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_snapshot_rejects_a_time_that_is_not_finite(bad):
    # the map was all NaN, and +-inf also warned
    with pytest.raises(ValueError, match="^t must be finite"):
        near_field_snapshot(snapshot_scenario(),
                            MapGrid.centered(1e3, 1e3, 5, 5), bad)


def test_central_value_nearest_node():
    sc = balance_scenario(sigma=1e-5, t_out=3e5)
    wmap = evaluate_map(sc, MapGrid.centered(3e4, 3e4, 9, 9))
    iy = 4
    ix = 4
    assert central_value(wmap) == wmap.values[iy, ix]
