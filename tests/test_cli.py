import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import ICE_TABLE
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cherenkov_wigner import cli
from cherenkov_wigner.cli import (ParseError, ScenarioConfig, ValidationError,
                                  parse_config, run_study)
from cherenkov_wigner.kinematics import (ElectronPacket, EmissionGeometry,
                                         Momentum3, momentum_magnitude)
from cherenkov_wigner.medium import EV_PER_ME, TabulatedMedium
from cherenkov_wigner.observables import flash_stats, spread_times_at_angle
from cherenkov_wigner.units import IncompatibleDimensions, convert_units

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
BUNDLED = sorted(CONFIG_DIR.glob("*.cfg"))


def write_config(tmp_path, text, name="study.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL_SPREADING = """
study = spreading-time
beta = 0.99
sigma = 1e-4
omega = 1e-5
medium.n = 1.7
sweep.variable = theta-k
sweep.start = 20
sweep.stop = 80
sweep.samples = 13
"""


def test_parse_minimal_with_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL_SPREADING))
    assert cfg.study == "spreading-time"
    assert cfg.beta == 0.99
    assert cfg.phi_k == 0.5 * math.pi  # documented default
    assert cfg.sweep_samples == 13


def test_parse_rejects_unknown_key(tmp_path):
    # theta-p names no ScenarioConfig field
    for line in ("bogus.key = 1\n", "theta-p = 10\n"):
        path = write_config(tmp_path, MINIMAL_SPREADING + line)
        with pytest.raises(ParseError, match="unknown key"):
            parse_config(path)


def test_parse_rejects_duplicate_and_malformed(tmp_path):
    path = write_config(tmp_path, MINIMAL_SPREADING + "beta = 0.5\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_config(path)
    path = write_config(tmp_path, "study spreading-time\n")
    with pytest.raises(ParseError, match="expected"):
        parse_config(path)


def test_validation_below_threshold_singular_angles(tmp_path):
    path = write_config(tmp_path, """
study = singular-angles
beta = 0.5
medium.n = 1.5
omega = 1e-6
""")
    with pytest.raises(ValidationError, match="Cherenkov threshold"):
        parse_config(path)


def test_validation_requires_sweep(tmp_path):
    path = write_config(tmp_path, "study = spreading-time\n")
    with pytest.raises(ValidationError, match="sweep.variable"):
        parse_config(path)


@pytest.mark.parametrize("study,variable", [("spreading-time", "omega"),
                                            ("arrival-shift", "t-out"),
                                            ("wigner-map", "theta-k")])
def test_validation_rejects_a_variable_the_study_does_not_sweep(
        tmp_path, capsys, study, variable):
    path = write_config(tmp_path, MINIMAL_SPREADING.replace(
        "spreading-time", study).replace("theta-k", variable)
        + "p-perp = 1e-5\nt-out = 1e6\n")
    with pytest.raises(ValidationError, match="sweep.variable"):
        parse_config(path)
    assert cli.main([study, "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert "config error: sweep.variable" in capsys.readouterr().err


def test_readme_lists_each_study_sweep():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for study, (_, sweeps, _) in cli._STUDIES.items():
        if sweeps:
            assert re.search(rf"^ +{study} +{' [|] '.join(sweeps)}$", readme,
                             re.M), study


def test_validation_map_requires_t_out(tmp_path):
    path = write_config(tmp_path, """
study = wigner-map
beta = 0.99
medium.n = 1.4
omega = 1e-5
sigma = 1e-5
theta-k = 43.82
""")
    with pytest.raises(ValidationError, match="t-out"):
        parse_config(path)


@pytest.mark.parametrize("config", BUNDLED, ids=lambda p: p.name)
def test_config_round_trip(tmp_path, config):
    cfg = parse_config(config)
    canon = write_config(tmp_path, cfg.canonical_text(), "canon.cfg")
    cfg2 = parse_config(canon)
    for field in ScenarioConfig.__dataclass_fields__:
        a = getattr(cfg, field)
        b = getattr(cfg2, field)
        if isinstance(a, float):
            assert math.isclose(a, b, rel_tol=1e-14), field
        else:
            assert a == b, field


def test_medium_table_config(tmp_path):
    text = MINIMAL_SPREADING.replace("omega = 1e-5",
                                     f"omega = {4.0 / EV_PER_ME!r}")
    text = text.replace("medium.n = 1.7", f"medium.table = {ICE_TABLE}")
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.medium_table == ICE_TABLE
    medium = cfg.medium()
    assert isinstance(medium, TabulatedMedium)
    canon = write_config(tmp_path, cfg.canonical_text(), "canon.cfg")
    assert parse_config(canon) == cfg
    # the study runs on the table's n, D and E
    artifacts, _ = run_study(cfg, tmp_path / "out", "csv")
    row = next(l for l in artifacts[0].read_text().splitlines()
               if not l.startswith("#"))
    dp = medium.dispersion_params(cfg.omega)
    want = spread_times_at_angle(cfg.beta, medium.index(cfg.omega)[0],
                                 cfg.omega, cfg.epsilon(), cfg.sigma,
                                 20.0 * math.pi / 180.0, dp.d_param,
                                 dp.e_param)
    assert float(row.split(",")[2]) == want.inv_t_d
    # a relative path resolves against the config's directory
    relative = text.replace(str(ICE_TABLE), "ice.csv")
    (tmp_path / "ice.csv").write_bytes(ICE_TABLE.read_bytes())
    assert parse_config(write_config(tmp_path, relative)).medium_table \
        == (tmp_path / "ice.csv").resolve()


def test_medium_table_missing(tmp_path, capsys):
    text = MINIMAL_SPREADING.replace("medium.n = 1.7",
                                     "medium.table = no_such_table.csv")
    path = write_config(tmp_path, text)
    with pytest.raises(ValidationError, match="medium.table"):
        parse_config(path)
    assert cli.main(["spreading-time", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert "config error: medium.table" in capsys.readouterr().err


def test_module_entry_point_runs_without_runtime_warning():
    # `python -m cherenkov_wigner.cli` must not find the module already
    # imported by the package
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "cherenkov_wigner.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_unit_constants():
    from cherenkov_wigner.units import LAMBDAC_CM, TC_SECONDS
    assert abs(TC_SECONDS - 1.3e-21) < 0.05e-21
    assert abs(LAMBDAC_CM - 3.9e-11) < 0.05e-11


def test_unit_conversions():
    assert abs(convert_units(1e6, "t_c", "fs") - 1.288) < 2e-3
    assert abs(convert_units(1e6, "lambda_c", "um") - 0.386) < 1e-3
    assert abs(convert_units(1e-5, "m_e", "eV") - 5.10999) < 1e-5
    assert abs(convert_units(2.0, "MeV", "m_e") - 3.913905) < 1e-5


def test_unit_round_trip(rng):
    pairs = [("t_c", "fs"), ("as", "ps"), ("m_e", "eV"), ("lambda_c", "nm"),
             ("cm", "um")]
    for a, b in pairs:
        x = float(rng.uniform(0.1, 10.0))
        back = convert_units(convert_units(x, a, b), b, a)
        assert abs(back - x) < 1e-12 * x


def test_incompatible_dimensions():
    with pytest.raises(IncompatibleDimensions):
        convert_units(1.0, "t_c", "eV")
    with pytest.raises(IncompatibleDimensions):
        convert_units(1.0, "parsec", "nm")


def test_spreading_time_study_output(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL_SPREADING))
    artifacts, flagged = run_study(cfg, tmp_path, "csv+svg")
    csv = artifacts[0]
    lines = csv.read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")]
    assert len(rows) == 13
    assert any(l.endswith(".svg") is False for l in lines)
    assert artifacts[1].suffix == ".svg"
    assert not flagged


def test_single_sample_sweep_no_plot(tmp_path):
    text = MINIMAL_SPREADING.replace("sweep.samples = 13",
                                     "sweep.samples = 1")
    cfg = parse_config(write_config(tmp_path, text))
    artifacts, _ = run_study(cfg, tmp_path, "csv+svg")
    rows = [l for l in artifacts[0].read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 1
    assert all(a.suffix == ".csv" for a in artifacts)


def test_csv_determinism(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL_SPREADING))
    a1, _ = run_study(cfg, tmp_path / "run1", "csv")
    a2, _ = run_study(cfg, tmp_path / "run2", "csv")
    assert a1[0].read_bytes() == a2[0].read_bytes()


def test_fig5_spreading_time_extremum_and_sign_changes(tmp_path):
    # spreading-time table shows the extremum at the Cherenkov angle and
    # two sign-change rows of 1/t_d
    path = write_config(tmp_path, """
study = spreading-time
beta = 0.99
sigma = 1e-4
omega = 1e-5
medium.n = 1.7
sweep.variable = theta-k
sweep.start = 40
sweep.stop = 70
sweep.samples = 301
""")
    cfg = parse_config(path)
    artifacts, _ = run_study(cfg, tmp_path, "csv")
    rows = [l.split(",") for l in artifacts[0].read_text().splitlines()
            if not l.startswith("#")]
    thetas = np.array([float(r[0]) for r in rows])
    inv = np.array([float(r[2]) for r in rows])
    flips = np.sum(np.sign(inv[:-1]) * np.sign(inv[1:]) < 0)
    assert flips == 2
    theta_ch = math.degrees(math.acos(1 / (0.99 * 1.7)))
    # |t_d| maxima sit next to the Cherenkov angle
    peak = thetas[int(np.argmin(np.abs(inv)))]
    assert abs(peak - theta_ch) < 0.5


def test_cli_main_exit_codes(tmp_path):
    path = write_config(tmp_path, MINIMAL_SPREADING)
    code = cli.main(["spreading-time", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 0
    code = cli.main(["singular-angles", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 1  # study mismatch


def test_malformed_chr_workers_spares_closed_form_studies(tmp_path,
                                                          monkeypatch):
    # CHR_WORKERS is read by evaluate_map only, not while building the parser
    monkeypatch.setenv("CHR_WORKERS", "abc")
    path = write_config(tmp_path, MINIMAL_SPREADING)
    assert cli.main(["spreading-time", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 0


SMALL_MAP = """
study = wigner-map
beta = 0.99
sigma = 1e-5
omega = 1e-5
t-out = 3e5
medium.n = 1.4
grid.nx = 3
grid.ny = 3
"""


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_map_study_rejects_bad_chr_workers(tmp_path, monkeypatch, capsys,
                                           raw):
    monkeypatch.setenv("CHR_WORKERS", raw)
    path = write_config(tmp_path, SMALL_MAP)
    assert cli.main(["wigner-map", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "CHR_WORKERS" in err and repr(raw) in err


@pytest.mark.parametrize("key,text", [
    ("sigma", "sigma = nan\n"), ("omega", "omega = inf\n"),
    ("t-out", "t-out = nan\n"), ("medium.n", "medium.n = nan\n"),
    ("medium.n", "medium.n = -1\n"), ("medium.n", "medium.n = 0\n"),
    ("medium.d", "medium.d = inf\n"), ("medium.e", "medium.e = nan\n"),
    ("sweep.start", "sweep.start = nan\n"),
    ("sweep.stop", "sweep.stop = -inf\n"), ("branch", "branch = 2\n"),
    ("branch", "branch = 0\n"), ("medium.table", "medium.table = .\n")])
def test_non_finite_inputs_are_config_errors(tmp_path, capsys, key, text):
    body = "\n".join(line for line in SMALL_MAP.splitlines()
                     if not line.startswith(key + " "))
    path = write_config(tmp_path, body + "\n" + text)
    with pytest.raises(ValidationError, match=key):
        parse_config(path)
    assert cli.main(["wigner-map", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


HOSTILE = ("", ".", "nan", "-1", "0", "1e400", "abc")
VALID = {"beta": "0.99", "sigma": "1e-4", "omega": "1e-5", "t-out": "1e6",
         "p-perp": "1e-5", "medium.n": "1.5", "sweep.start": "10",
         "sweep.stop": "20", "sweep.samples": "3", "grid.nx": "2",
         "grid.ny": "2"}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(study=st.sampled_from(cli.STUDIES),
       hostile=st.dictionaries(st.sampled_from(sorted(cli._KEYS)),
                               st.sampled_from(HOSTILE), max_size=3))
@example(study="singular-angles", hostile={"medium.table": "."})
def test_parser_raises_only_config_errors(tmp_path_factory, study, hostile):
    # a valid config of the study with up to three keys given hostile values
    values = dict(VALID, study=study)
    sweeps = cli._STUDIES[study][1]
    if sweeps:
        values["sweep.variable"] = sweeps[0]
    values.update(hostile)
    path = tmp_path_factory.mktemp("fuzz") / "study.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                    encoding="utf-8")
    try:
        parse_config(path)
    except (ParseError, ValidationError):
        pass


def test_threshold_check_reads_the_table_index(tmp_path, capsys):
    # beta * medium.n = 1.08 clears the threshold, but the ice table gives
    # n = 1.35 at 4 eV, and 0.72 * 1.35 < 1
    path = write_config(tmp_path, f"""
study = singular-angles
beta = 0.72
omega = 7.828e-6
medium.table = {ICE_TABLE}
""")
    with pytest.raises(ValidationError, match="Cherenkov threshold"):
        parse_config(path)
    assert cli.main(["singular-angles", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


def test_dispersion_scan_reads_the_table_index(tmp_path):
    cfg = parse_config(write_config(tmp_path, f"""
study = dispersion-scan
beta = 0.99
sigma = 1e-4
omega = 7.828e-6
medium.table = {ICE_TABLE}
p-perp = 1e-5
theta-k = 41.5
sweep.variable = d-param
sweep.start = -1
sweep.stop = 1
sweep.samples = 3
"""))
    n = cfg.medium().index(cfg.omega)[0]
    assert abs(n - 1.5) > 0.1
    artifacts, _ = run_study(cfg, tmp_path, "csv")
    assert f"# n: {n}" in artifacts[0].read_text().splitlines()


def test_cli_main_error_on_bad_config(tmp_path):
    path = write_config(tmp_path, "study = nonsense\n")
    assert cli.main(["spreading-time", "--config", str(path)]) == 1


@pytest.mark.parametrize("config", BUNDLED, ids=lambda p: p.name)
def test_bundled_configs_run(config, tmp_path):
    cfg = parse_config(config)
    artifacts, flagged = run_study(cfg, tmp_path, "csv+svg")
    assert artifacts, config.name
    for art in artifacts:
        assert art.exists()


def test_n_sweep_gated_by_cherenkov_threshold(tmp_path):
    # the shift curve exists only above the radiation threshold n >= 1/beta
    path = write_config(tmp_path, """
study = arrival-shift
beta = 0.7
sigma = 1e-5
omega = 1e-6
medium.n = 1.5
p-perp = 1e-5
theta-k = 10
sweep.variable = n
sweep.start = 1.2
sweep.stop = 1.8
sweep.samples = 25
""")
    cfg = parse_config(path)
    artifacts, _ = run_study(cfg, tmp_path, "csv")
    rows = [l.split(",") for l in artifacts[0].read_text().splitlines()
            if not l.startswith("#")]
    n_min = 1.0 / 0.7
    for row in rows:
        n_val, dt = float(row[0]), float(row[1])
        if n_val < n_min:
            assert math.isnan(dt)
        else:
            assert math.isfinite(dt)


def test_flagged_study_exits_two(tmp_path):
    # emission angles below 1/gamma trip the WKB small-angle flag
    path = write_config(tmp_path, """
study = arrival-shift
beta = 0.999
sigma = 1e-6
omega = 1e-6
medium.n = 1.3
p-perp = 1e-6
sweep.variable = theta-k
sweep.start = 1
sweep.stop = 3
sweep.samples = 3
""")
    code = cli.main(["arrival-shift", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 2


def data_rows(csv):
    return [l.split(",") for l in Path(csv).read_text().splitlines()
            if not l.startswith("#")]


FLASH = (CONFIG_DIR / "flash_duration.cfg").read_text(encoding="utf-8")


@pytest.mark.parametrize("key,value", [
    ("sweep.start", "0"), ("sweep.start", "-1e-7"), ("sweep.stop", "0"),
    ("sweep.stop", "-1e-4")])
def test_log_sweep_needs_positive_bounds(tmp_path, capsys, key, value):
    text = "\n".join(line for line in FLASH.splitlines()
                     if not line.startswith(key + " "))
    path = write_config(tmp_path, text + f"\n{key} = {value}\n")
    with pytest.raises(ValidationError, match=f"{key}: must be positive"):
        parse_config(path)
    assert cli.main(["flash-duration", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("samples", [None, "0", "-2"])
def test_sweep_needs_samples(tmp_path, samples):
    text = MINIMAL_SPREADING.replace("sweep.samples = 13\n", "" if samples
                                     is None else f"sweep.samples = {samples}\n")
    with pytest.raises(ValidationError, match="sweep.samples"):
        parse_config(write_config(tmp_path, text))


def test_flash_duration_honours_medium_d(tmp_path):
    # sigma_t comes from the kernel's group velocity 1/(n (1 + D)), as in
    # flash_stats; D = 0.3 must move every row
    plain = parse_config(write_config(tmp_path, FLASH, "plain.cfg"))
    dispersive = parse_config(write_config(tmp_path, FLASH + "medium.d = 0.3\n",
                                           "d.cfg"))
    base = data_rows(run_study(plain, tmp_path / "plain")[0][0])
    rows = data_rows(run_study(dispersive, tmp_path / "d")[0][0])
    assert len(rows) == len(base) == 31
    medium = dispersive.medium()
    kmag = medium.index(1e-5)[0] * 1e-5
    theta = math.acos(1.0 / (dispersive.beta * medium.index(1e-5)[0]))
    # the study puts p on the z axis, where the amplitude phase gradient
    # that flash_stats also takes is singular; sigma_t depends only on
    # u_p, u_k and sigma, so the same geometry is built about the x axis
    p = Momentum3(momentum_magnitude(dispersive.beta), 0.0, 0.0)
    k = Momentum3(kmag * math.cos(theta), 0.0, kmag * math.sin(theta))
    geom = EmissionGeometry.from_final_state(p - k, k, 1e-5)
    for row, row0 in zip(rows, base):
        sig, sigma_t = float(row[0]), float(row[1])
        assert abs(sigma_t / float(row0[1]) - 1.0) > 1e-3
        want = flash_stats(geom, ElectronPacket(p, sig), medium,
                           np.zeros(3), 0.0).sigma_t
        assert abs(sigma_t - want) <= 1e-14 * want


def test_flagged_sweep_names_its_flags(tmp_path, capsys):
    config = CONFIG_DIR / "fig06b_arrival_shift.cfg"
    out = tmp_path / "out"
    assert cli.main(["arrival-shift", "--config", str(config),
                     "--out-dir", str(out)]) == 2
    rows = data_rows(out / "fig06b_arrival_shift.csv")
    small = sum(1 for r in rows if int(float(r[-1])) & 1)
    turning = sum(1 for r in rows if int(float(r[-1])) & 2)
    assert small > 0
    expect = [f"chr: warning: small_angle flag on {small} sample"
              + "s" * (small != 1)]
    if turning:
        expect.append(f"chr: warning: turning_point flag on {turning} samples")
    assert capsys.readouterr().err.splitlines() == expect


def test_flagged_map_names_its_flags(tmp_path, capsys):
    # theta_k = 2 deg lies below 1/gamma = 8.1 deg at beta = 0.99, which
    # flags every node of the 3x3 map
    path = write_config(tmp_path, SMALL_MAP + "theta-k = 2\n")
    assert cli.main(["wigner-map", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert "chr: warning: small_angle flag on 9 nodes" in err
    assert all(line.startswith("chr: warning: ") and "nodes" in line
               for line in err)


def test_clean_study_prints_no_warning(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL_SPREADING)
    assert cli.main(["spreading-time", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
