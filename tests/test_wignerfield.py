import math
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import balance_scenario
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cherenkov_wigner import numerics
from cherenkov_wigner.kinematics import (ElectronPacket, Momentum3,
                                         momentum_magnitude)
from cherenkov_wigner.medium import ConstantMedium
from cherenkov_wigner.observables import WkbFlags
from cherenkov_wigner.wignerfield import (EmissionScenario, MapGrid,
                                          NonGaussianPhase, OffShell,
                                          _Context, _row_nodes,
                                          central_value,
                                          default_grid, delta_p_scan,
                                          evaluate_map, evaluate_point,
                                          evaluate_point_reference,
                                          integrand, momentum_marginal_weight,
                                          near_field_snapshot, read_map_csv,
                                          write_map_csv)


def test_integrand_at_zero_time():
    sc = balance_scenario(sigma=1e-4)
    ctx = _Context(sc)
    kern = ctx.kernel
    rng = np.random.default_rng(3)
    for _ in range(10):
        R = rng.normal(size=3) * 1e3
        got = integrand(sc, R, 0.0)
        e0 = complex(kern.exponent_complex(0.0, R))
        expected = math.exp(e0.real) / float(kern.big_g(0.0))
        assert got > 0
        assert abs(got - expected) < 1e-12 * expected


def test_integrand_constant_along_mach_direction():
    sc = balance_scenario(sigma=1e-4)
    ctx = _Context(sc)
    direction = ctx.kernel.u_k - ctx.kernel.u_p
    ts = np.linspace(0.0, sc.t_out, 7)
    vals = [integrand(sc, direction * mag, ts) for mag in (1.0, 1e3, 1e6)]
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
        got = integrand(sc, R, t)
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
    raw, _ = _rows_without_reuse(sc, MapGrid.centered(2e5, 1e5, 9, 7))
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


def test_point_is_the_one_node_row():
    sc = balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e6)
    ctx = _Context(sc)
    R = np.array([3e4, -2e4, 0.0])
    value, error, flags, *_ = ctx.nodes(R[None, :], 1e-10, None, 4096)
    assert (value[0], error[0], int(flags[0])) == evaluate_point(sc, R)


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


def _rows_without_reuse(sc, grid, rel_tol=1e-9, max_panels=4096):
    """Raw map values with every row integrated under the map tolerance,
    the pilot row included; also whether the pilot met that tolerance."""
    ctx = _Context(sc)
    abs_tol, _, pilot = ctx.map_abs_tol(grid, rel_tol, max_panels)
    rows = [ctx.nodes(_row_nodes(grid, iy), rel_tol, abs_tol, max_panels)[0]
            for iy in range(grid.ny)]
    return np.array(rows), pilot is not None


def test_pilot_row_reuse_matches_a_map_without_it():
    sc = fig10_scenario()
    grid = MapGrid.centered(400.0, 400.0, 8, 7)
    wmap = evaluate_map(sc, grid)
    raw, reused = _rows_without_reuse(sc, grid)
    assert reused
    assert np.max(np.abs(wmap.values * wmap.scale - raw)) <= 1e-9 * wmap.scale


def test_pilot_row_that_misses_the_map_tolerance_is_integrated_again():
    # at t_out = 5e7, 1.1 theta_Ch the integral cancels to ~4e-4 of Int
    # dt'/G, so the pilot's 1e-10 Int dt'/G floor is far looser than the
    # map tolerance it sets
    sc = balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e7)
    grid = default_grid(sc, 6, 6)
    wmap = evaluate_map(sc, grid)
    raw, reused = _rows_without_reuse(sc, grid)
    assert not reused
    assert wmap.scale == np.max(np.abs(raw))
    assert np.array_equal(wmap.values, raw / wmap.scale)


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


@pytest.mark.parametrize("sc,grid", [
    (skew_scenario(), MapGrid.centered(400.0, 400.0, 6, 6)),
    (skew_scenario(), MapGrid.centered(400.0, 400.0, 5, 7)),
    # the pilot misses the map tolerance and is integrated again
    (balance_scenario(sigma=1e-5, theta_frac=1.1, t_out=5e7), None)],
    ids=["even", "odd", "pilot-not-kept"])
def test_centered_map_integrates_one_row_of_each_mirror_pair(
        sc, grid, monkeypatch):
    grid = grid or default_grid(sc, 6, 6)
    abs_tol, _, pilot = _Context(sc).map_abs_tol(grid, 1e-9, 4096)
    calls = _count_batches(monkeypatch)
    evaluate_map(sc, grid, workers=1)
    assert len(calls) == math.ceil(grid.ny / 2) + (pilot is None)
    calls.clear()
    evaluate_map(sc, grid, workers=1, abs_tol=abs_tol)
    assert len(calls) == math.ceil(grid.ny / 2)


@pytest.mark.parametrize("grid,pilot_row", [
    (MapGrid.centered(400.0, 400.0, 5, 7), 3),
    (MapGrid.centered(400.0, 400.0, 6, 4), 1),
    (MapGrid.centered(400.0, 500.0, 7, 4), 2),
    (MapGrid.centered(400.0, 300.0, 6, 8), 4)],
    ids=["odd-odd-middle", "even-even-low", "odd-even-high",
         "even-even-high"])
def test_mirrored_rows_are_their_source_reversed(grid, pilot_row):
    sc = skew_scenario()
    _, iy_pilot, pilot = _Context(sc).map_abs_tol(grid, 1e-9, 4096)
    assert iy_pilot == pilot_row and pilot is not None
    wmap = evaluate_map(sc, grid)
    # the kept pilot is the source of its pair, whichever side it is on
    assert np.array_equal(wmap.values[iy_pilot], pilot[0] / wmap.scale)
    for iy in range(grid.ny // 2):
        mirror = grid.ny - 1 - iy
        for name in ("values", "error_estimates", "flags"):
            rows = getattr(wmap, name)
            assert np.array_equal(rows[mirror], rows[iy, ::-1]), name
        assert wmap.panels[mirror] == wmap.panels[iy]
        assert wmap.rounds[mirror] == wmap.rounds[iy]
    raw, _ = _rows_without_reuse(sc, grid)
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
    ctx = _Context(sc)
    abs_tol, _, pilot = ctx.map_abs_tol(grid, 1e-9, 4096)
    raw = np.array([ctx.nodes(_row_nodes(grid, iy), 1e-9, abs_tol, 4096)[0]
                    for iy in range(grid.ny)])
    calls = _count_batches(monkeypatch)
    evaluate_map(sc, grid, workers=1)
    assert len(calls) == grid.ny + (pilot is None)
    calls.clear()
    wmap = evaluate_map(sc, grid, workers=1, abs_tol=abs_tol)
    assert len(calls) == grid.ny
    assert np.array_equal(wmap.values, raw / wmap.scale)


@pytest.mark.parametrize("sc,grid", [
    (fig10_scenario(), MapGrid.centered(400.0, 400.0, 8, 5)),
    (skew_scenario(), MapGrid.centered(400.0, 300.0, 6, 8)),
    (skew_scenario(), MapGrid.centered(400.0, 400.0, 7, 7)),
    # mirrored rows here differ from rows integrated on their own in the
    # last digits: the pool must integrate the same rows
    (balance_scenario(sigma=1e-5, t_out=1e6, phi_k=0.3), (6, 6)),
    # here the pilot took 4 rounds, and integrating its row again under
    # the map tolerance gives other last digits: the pool must not
    (balance_scenario(sigma=1e-4, theta_frac=1.1, t_out=3e5), (8, 5))],
    ids=["fig10", "pilot-high", "odd", "mirrored-digits", "four-round-pilot"])
def test_map_worker_independence_with_a_reused_pilot_row(sc, grid):
    if not isinstance(grid, MapGrid):
        grid = default_grid(sc, *grid)
    assert _Context(sc).map_abs_tol(grid, 1e-9, 4096)[2] is not None
    serial = evaluate_map(sc, grid, workers=1)
    parallel = evaluate_map(sc, grid, workers=2)
    assert serial.scale == parallel.scale
    for name in ("values", "error_estimates", "flags", "panels", "rounds"):
        assert np.array_equal(getattr(serial, name), getattr(parallel, name))


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


def test_snapshot_requires_gaussian_phase():
    sc = snapshot_scenario()
    packet = ElectronPacket(sc.packet.mean_momentum, sc.packet.sigma,
                            phase_model=lambda p: float(p[0]))
    bad = EmissionScenario(packet=packet, medium=sc.medium, omega=sc.omega,
                           theta_k=sc.theta_k, phi_k=sc.phi_k, t_out=1.0)
    with pytest.raises(NonGaussianPhase):
        near_field_snapshot(bad, MapGrid.centered(1.0, 1.0, 5, 5), 0.0)


def test_marginal_weight_on_shell_frequency():
    # for a constant medium the on-shell frequency has a closed form
    beta, n = 0.99, 1.4
    theta = 0.9 * math.acos(1.0 / (beta * n))
    sc = balance_scenario(beta=beta, n=n, sigma=1e-4, theta_frac=0.9,
                          t_out=1e5)
    eps = math.sqrt(1.0 + momentum_magnitude(beta) ** 2)
    w_star = 2 * eps * (beta * n * math.cos(theta) - 1.0) / (n * n - 1.0)
    weight = momentum_marginal_weight(sc)
    assert weight > 0
    # reconstruct the root the function solved for via the closed form
    sc_probe = balance_scenario(beta=beta, n=n, sigma=1e-4, theta_frac=0.9,
                                t_out=1e5, omega=w_star)
    assert abs(momentum_marginal_weight(sc_probe) - weight) < 1e-9 * weight


def test_marginal_weight_phase_independent():
    sc = balance_scenario(sigma=1e-4, theta_frac=0.95, t_out=1e5)
    base = momentum_marginal_weight(sc)
    packet = ElectronPacket(sc.packet.mean_momentum, sc.packet.sigma,
                            phase_model=lambda p: 0.7)
    shifted = EmissionScenario(packet=packet, medium=sc.medium,
                               omega=sc.omega, theta_k=sc.theta_k,
                               phi_k=sc.phi_k, t_out=sc.t_out)
    assert momentum_marginal_weight(shifted) == base


def test_marginal_weight_plane_wave_proportionality():
    # weight(theta) / sigma^-3 is independent of sigma: the relative
    # spectral-angular shape matches the plane-wave squared amplitude
    thetas = [0.85, 0.9, 0.95]
    ratios = []
    for sigma in (1e-4, 1e-5):
        row = []
        for frac in thetas:
            sc = balance_scenario(sigma=sigma, theta_frac=frac, t_out=1e5)
            row.append(momentum_marginal_weight(sc) * sigma ** 3)
        ratios.append(row)
    assert np.allclose(ratios[0], ratios[1], rtol=1e-12)


def test_marginal_weight_forbidden_triangle_is_zero():
    # explicit final electron whose transverse momentum cannot close the
    # triangle
    beta, n, omega = 0.99, 1.4, 1e-5
    mean = Momentum3(0, 0, momentum_magnitude(beta))
    packet = ElectronPacket(mean, 1e-4)
    p_prime = Momentum3(5e-3, 0.0, mean.z)  # huge transverse mismatch
    sc = EmissionScenario(packet=packet, medium=ConstantMedium(n),
                          omega=omega, theta_k=0.7, phi_k=0.5 * math.pi,
                          t_out=1e5, p_prime=p_prime)
    assert momentum_marginal_weight(sc) == 0.0


def test_marginal_weight_off_shell():
    # beyond the quantum Cherenkov cone no on-shell frequency exists
    sc = balance_scenario(sigma=1e-4, theta_frac=1.5, t_out=1e5)
    with pytest.raises(OffShell):
        momentum_marginal_weight(sc)


def test_default_grid_extent():
    sc = balance_scenario(sigma=1e-5, t_out=1e6)
    grid = default_grid(sc, 16, 16)
    assert grid.nx == grid.ny == 16
    assert 0 < grid.x_max <= 0.99 * sc.t_out
    assert 0 < grid.y_max <= 0.99 * sc.t_out


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


@pytest.mark.parametrize("name", ["x_min", "x_max", "y_min", "y_max", "z"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_map_grid_extent_must_be_finite(name, bad):
    extent = dict(x_min=-1.0, x_max=1.0, nx=3, y_min=-1.0, y_max=1.0, ny=3,
                  z=0.0)
    extent[name] = bad
    with pytest.raises(ValueError, match=f"grid {name} must be finite"):
        MapGrid(**extent)


def test_central_value_nearest_node():
    sc = balance_scenario(sigma=1e-5, t_out=3e5)
    wmap = evaluate_map(sc, MapGrid.centered(3e4, 3e4, 9, 9))
    iy = 4
    ix = 4
    assert central_value(wmap) == wmap.values[iy, ix]
