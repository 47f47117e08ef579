import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import ICE_TABLE, balance_scenario

from cherenkov_wigner.medium import (EV_PER_ME, AnalyticMedium,
                                     ConstantMedium, DegenerateGroupVelocity,
                                     OutOfDomain, TabulatedMedium,
                                     TableFormatError, load_index_table)
from cherenkov_wigner.observables import (dispersion_coefficients,
                                          spreading_times)


def quadratic_medium():
    return AnalyticMedium(lambda w: 1.3 + 0.01 * w ** 2,
                          lambda w: 0.02 * w,
                          lambda w: 0.02)


def group_speed(med, omega):
    """|u_k| = 1/(n (1 + D)) of ``med`` at omega."""
    n = med.index(omega)[0]
    dp = med.dispersion_params(omega)
    return dispersion_coefficients(n, omega, 10.0, dp.d_param, dp.e_param)[2]


def hessian_factor(med, omega):
    """xi recovered from b = 1/eps - xi |u_k|/|k|; eps = inf drops 1/eps."""
    n = med.index(omega)[0]
    dp = med.dispersion_params(omega)
    _, b, uk = dispersion_coefficients(n, omega, math.inf, dp.d_param,
                                       dp.e_param)
    return -b / (uk / (n * omega))


def auto_dispersive(med, omega):
    """The branch ``spreading_times`` selects by itself for ``med``."""
    sc = replace(balance_scenario(), medium=med, omega=omega)
    return spreading_times(sc.geometry(), sc.packet, med).dispersive


def test_constant_index():
    med = ConstantMedium(1.5)
    assert med.index(0.123) == (1.5, 0.0, 0.0)
    assert med.index(5.0) == (1.5, 0.0, 0.0)


@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 0.0, -1.5])
def test_constant_index_must_be_finite_and_positive(n):
    with pytest.raises(ValueError, match="refractive index"):
        ConstantMedium(n)


def test_constant_dispersion_params_vanish():
    med = ConstantMedium(1.5)
    for w in np.geomspace(1e-8, 1.0, 25):
        dp = med.dispersion_params(w)
        assert dp.d_param == 0.0 and dp.e_param == 0.0


def test_tabulated_matches_analytic():
    ws = np.linspace(0.5, 3.0, 120)
    med = TabulatedMedium(ws, 1.3 + 0.01 * ws ** 2)
    for w in np.linspace(0.8, 2.7, 13):
        n, n1, n2 = med.index(w)
        assert abs(n - (1.3 + 0.01 * w * w)) < 1e-6
        assert abs(n1 - 0.02 * w) < 1e-4 * abs(0.02 * w)
        assert abs(n2 - 0.02) < 1e-4 * 0.02


def test_tabulated_reproduces_nodes_exactly():
    ws = np.linspace(0.5, 3.0, 40)
    ns = 1.3 + 0.05 * np.sin(ws)
    med = TabulatedMedium(ws, ns)
    for w, n in zip(ws, ns):
        assert abs(med.index(float(w))[0] - n) < 1e-13


def test_tabulated_c2_continuity():
    ws = np.linspace(0.5, 3.0, 40)
    med = TabulatedMedium(ws, 1.3 + 0.05 * np.sin(ws))
    # second derivative continuous across interior knots
    for w in ws[1:-1]:
        left = med.index(float(w) - 1e-9)[2]
        right = med.index(float(w) + 1e-9)[2]
        assert abs(left - right) < 1e-6 * (abs(left) + 1e-12)


def test_ice_table_dispersion_strength():
    med = load_index_table(ICE_TABLE)
    w = 4.0 / EV_PER_ME
    n, _, _ = med.index(w)
    dp = med.dispersion_params(w)
    assert abs(n - 1.35) < 5e-3
    assert abs(dp.d_param + 13.65) < 0.3
    assert abs(dp.e_param) < 0.5


def test_sodium_eit_dispersion_strength():
    omega0 = 2e-5
    med = AnalyticMedium.from_dispersion_params(1.001, omega0, 5e6)
    dp = med.dispersion_params(omega0)
    assert abs(dp.d_param - 5e6) < 1.0
    assert abs(dp.e_param) < 1e-9
    assert abs(group_speed(med, omega0) - 2e-7) < 2e-9  # slow light


def test_group_velocity_constant():
    med = ConstantMedium(1.5)
    assert abs(group_speed(med, 1e-5) - 2.0 / 3.0) < 1e-15


def test_group_velocity_weak_dispersion_limit():
    med = AnalyticMedium(lambda w: 1.5, lambda w: 0.0, lambda w: 0.0)
    assert abs(group_speed(med, 0.3) - 1.0 / 1.5) < 1e-15


def test_group_velocity_degenerate():
    # D = -1 makes n (1 + D) vanish
    med = AnalyticMedium.from_dispersion_params(1.5, 1e-5, -1.0)
    with pytest.raises(DegenerateGroupVelocity):
        group_speed(med, 1e-5)


def test_group_velocity_magnitude_bound(rng):
    for _ in range(30):
        n = rng.uniform(1.05, 2.0)
        d = rng.uniform(0.0, 2.0)
        med = AnalyticMedium.from_dispersion_params(n, 1e-5, d)
        assert group_speed(med, 1e-5) < 1.0


def test_hessian_factor_constant():
    med = ConstantMedium(1.4)
    for w in (1e-6, 1e-3, 0.5):
        assert abs(hessian_factor(med, w) - 1.4 ** 2) < 1e-15


def test_hessian_factor_analytic():
    # hand expansion of xi = n w^2 n'' + (n' w)^2 + n^2 + 4 n n' w at w = 2
    med = quadratic_medium()
    n = 1.3 + 0.01 * 4.0
    expected = n * 4.0 * 0.02 + (0.04 * 2.0) ** 2 + n * n + 4 * n * 0.04 * 2.0
    assert abs(hessian_factor(med, 2.0) - expected) < 1e-12
    assert abs(expected - 2.3380) < 1e-4


def test_weak_dispersion_check():
    assert not auto_dispersive(ConstantMedium(1.5), 1e-5)
    med = load_index_table(ICE_TABLE)
    w = 4.0 / EV_PER_ME
    assert auto_dispersive(med, w)
    assert abs(abs(med.dispersion_params(w).d_param) - 13.65) < 0.3
    # boundary |D| = 0.01 is strictly non-weak
    boundary = AnalyticMedium.from_dispersion_params(1.5, 1e-5, 0.01)
    assert abs(boundary.dispersion_params(1e-5).d_param - 0.01) < 1e-12
    assert auto_dispersive(boundary, 1e-5)


def test_out_of_domain():
    ws = np.linspace(0.5, 3.0, 10)
    med = TabulatedMedium(ws, np.full(10, 1.4))
    with pytest.raises(OutOfDomain):
        med.index(0.1)
    with pytest.raises(OutOfDomain):
        med.index(3.5)


@pytest.mark.parametrize("name,medium", [
    ("n", AnalyticMedium.from_dispersion_params(1.4, 1e-5, math.nan)),
    ("n", AnalyticMedium.from_dispersion_params(1.4, 2e-5, -math.inf)),
    ("n", AnalyticMedium.from_dispersion_params(1.4, 1e-5, 0.0, math.nan)),
    ("n", AnalyticMedium(lambda w: math.nan, lambda w: 0.0, lambda w: 0.0)),
    ("n'", AnalyticMedium(lambda w: 1.5, lambda w: math.inf,
                          lambda w: 0.0)),
    ("n''", AnalyticMedium(lambda w: 1.5, lambda w: 0.0,
                           lambda w: -math.inf))])
def test_analytic_index_must_be_finite(name, medium):
    # NaN <= 0 is False, so the n <= 0 check alone lets a NaN n through
    with pytest.raises(OutOfDomain, match=f"^{name}\\("):
        medium.index(1e-5)


def test_table_validation():
    with pytest.raises(TableFormatError):
        TabulatedMedium([1.0, 2.0, 3.0], [1.1, 1.2, 1.3])  # too few
    with pytest.raises(TableFormatError):
        TabulatedMedium([1.0, 2.0, 2.0, 3.0], [1.1, 1.2, 1.3, 1.4])


def test_loader_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# header\n1.0,1.3\n2.0\n3.0,1.4\n4.0,1.5\n")
    with pytest.raises(TableFormatError, match=r":3:"):
        load_index_table(bad)
    nonnum = tmp_path / "nonnum.csv"
    nonnum.write_text("1.0,1.3\n2.0,abc\n3.0,1.4\n4.0,1.5\n")
    with pytest.raises(TableFormatError, match=r":2:"):
        load_index_table(nonnum)


def test_loader_converts_ev(tmp_path):
    table = tmp_path / "ok.csv"
    table.write_text("# comment\n1.0,1.30\n2.0,1.31\n3.0,1.32\n4.0,1.33\n")
    med = load_index_table(table)
    lo, hi = med.domain()
    assert abs(lo - 1.0 / EV_PER_ME) < 1e-20
    assert abs(med.index(2.5 / EV_PER_ME)[0] - 1.315) < 1e-3


def test_tabulated_matches_scipy_cubic_spline():
    # scipy serves only as a reference here; the library does not import it
    interpolate = pytest.importorskip("scipy.interpolate")
    med = load_index_table(ICE_TABLE)
    ref = interpolate.CubicSpline(med.omegas, med.ns, bc_type="natural")
    ws = np.linspace(med.omegas[0], med.omegas[-1], 100_001)
    got = np.array([med.index(float(w)) for w in ws])
    for order in range(3):
        want = ref(ws, order)
        err = np.max(np.abs(got[:, order] - want))
        assert err <= 1e-14 * np.max(np.abs(want)), order


@pytest.mark.parametrize("table", ["ice", "sine"])
def test_tabulated_natural_end_conditions(table):
    if table == "ice":
        med = load_index_table(ICE_TABLE)
    else:
        ws = np.linspace(0.5, 3.0, 40)
        med = TabulatedMedium(ws, 1.3 + 0.05 * np.sin(3.0 * ws))
    lo, hi = med.domain()
    curvature = max(abs(med.index(float(w))[2])
                    for w in np.linspace(lo, hi, 2001))
    assert curvature > 0.0
    assert med.index(lo)[2] == 0.0
    assert abs(med.index(hi)[2]) <= 1e-12 * curvature


def test_tabulated_exact_on_linear_data():
    # a natural spline through collinear samples is that line
    ws = np.array([0.5, 0.6, 0.9, 1.0, 1.7, 2.2, 3.0])
    med = TabulatedMedium(ws, 1.3 + 0.2 * ws)
    for w in np.linspace(0.5, 3.0, 101):
        n, n1, n2 = med.index(float(w))
        assert abs(n - (1.3 + 0.2 * w)) <= 4e-16 * n
        assert abs(n1 - 0.2) <= 1e-14
        assert abs(n2) <= 1e-13


@pytest.mark.parametrize("column", ["omega", "n"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_rejects_non_finite_entries(tmp_path, column, bad):
    ws = [1.0, 2.0, 3.0, 4.0, 5.0]
    ns = [1.30, 1.31, 1.32, 1.33, 1.34]
    (ws if column == "omega" else ns)[2] = bad
    with pytest.raises(TableFormatError, match="finite"):
        TabulatedMedium(ws, ns)
    table = tmp_path / "bad.csv"
    table.write_text("# header\n" + "".join(
        f"{w},{n}\n" for w, n in zip(ws, ns)))
    with pytest.raises(TableFormatError, match=r":4: non-finite"):
        load_index_table(table)


def test_import_leaves_scipy_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, cherenkov_wigner; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
