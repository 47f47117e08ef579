import hashlib
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import ICE_TABLE
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cherenkov_wigner import cli
from cherenkov_wigner.amplitudes import DegeneratePhase
from cherenkov_wigner.cli import (ParseError, ScenarioConfig, ValidationError,
                                  parse_config, run_study)
from cherenkov_wigner.kinematics import (ElectronPacket, EmissionGeometry,
                                         Momentum3,
                                         momentum_magnitude,
                                         triangle_geometry)
from cherenkov_wigner.medium import (EV_PER_ME, ConstantMedium,
                                     DegenerateGroupVelocity,
                                     DispersionParams, TabulatedMedium)
from cherenkov_wigner.observables import (CollinearVelocities,
                                          MachConeDegenerate,
                                          PhaseSpaceKernel, flash_stats,
                                          spread_times_at_angle)
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


def test_import_leaves_multiprocessing_out():
    # maps run their rows on threads: no process pool is imported
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    probe = ("import sys, cherenkov_wigner.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'multiprocessing'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          check=True)
    assert done.stdout.strip() == "[]"


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


def test_cli_main_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL_SPREADING)
    code = cli.main(["spreading-time", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 0
    code = cli.main(["singular-angles", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 1  # study mismatch
    # usage errors are errors too: 2 means "completed with warnings"
    assert cli.main(["no-such-study", "--config", str(path)]) == 1
    assert cli.main(["spreading-time"]) == 1  # no --config
    assert cli.main(["spreading-time", "--config", str(path),
                     "--format", "pdf"]) == 1
    assert "usage: chr" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_a_config_error(tmp_path, capsys, workers):
    for study, text in (("wigner-map", SMALL_MAP),
                        ("spreading-time", MINIMAL_SPREADING)):
        path = write_config(tmp_path, text)
        assert cli.main([study, "--config", str(path), "--workers", workers,
                         "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == ("chr: config error: workers must be an integer >= 1, "
                       f"got {workers}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [
    ("helicity.lambda-e", "0.3"), ("helicity.lambda-e", "0"),
    ("helicity.lambda-prime", "1"), ("helicity.lambda-prime", "-0.3"),
    ("helicity.lambda-gamma", "0"), ("helicity.lambda-gamma", "2")])
def test_helicity_outside_its_values_is_a_config_error(tmp_path, capsys, key,
                                                        value):
    # lambda-gamma = 0 used to compute the +1 helicity and label the map
    # "sum"; lambda-e = 0.3 used to fail only inside the study
    path = write_config(tmp_path, SMALL_MAP + f"{key} = {value}\n")
    with pytest.raises(ValidationError, match=f"^{key}: must be one of"):
        parse_config(path)
    assert cli.main(["wigner-map", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"chr: config error: {key}: ")


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


@pytest.mark.parametrize("key,text", [
    ("sigma", "sigma = nan\n"), ("omega", "omega = inf\n"),
    ("t-out", "t-out = nan\n"), ("medium.n", "medium.n = nan\n"),
    ("medium.n", "medium.n = -1\n"), ("medium.n", "medium.n = 0\n"),
    ("medium.d", "medium.d = inf\n"), ("medium.e", "medium.e = nan\n"),
    ("sweep.start", "sweep.start = nan\n"),
    ("sweep.stop", "sweep.stop = -inf\n"), ("branch", "branch = 2\n"),
    ("branch", "branch = 0\n"), ("medium.table", "medium.table = .\n"),
    ("p-perp", "p-perp = nan\n"), ("pp-perp-ratio", "pp-perp-ratio = nan\n"),
    ("r-mag", "r-mag = nan\n"), ("snapshot.t", "snapshot.t = nan\n"),
    ("t-prime", "t-prime = inf\n"), ("theta-k", "theta-k = nan\n"),
    ("phi-k", "phi-k = -inf\n"), ("grid.z", "grid.z = nan\n"),
    ("helicity.lambda-e", "helicity.lambda-e = nan\n"),
    ("delta-p.offsets", "delta-p.offsets = 0,nan\n"),
    ("grid.extent", "grid.extent = nan\n"),
    ("grid.extent", "grid.extent = -1e4\n"),
    ("grid.extent", "grid.extent = 0\n")])
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


SINGULAR = """
study = singular-angles
beta = 0.9
sigma = 1e-4
omega = 1e-6
medium.n = 1.5
"""


@pytest.mark.parametrize("prefix", ["../escaped", "sub/dir", "/abs", ".",
                                    ".."])
def test_prefix_that_leaves_the_out_dir_is_a_config_error(tmp_path, capsys,
                                                          prefix):
    # ../escaped wrote its CSV beside --out-dir and exited 0; sub/dir
    # computed the study, then exited 1 on a bare [Errno 2]
    path = write_config(tmp_path, SINGULAR + f"out.prefix = {prefix}\n")
    message = ("out.prefix: must name files in --out-dir, without a path "
               f"separator, got {prefix!r}")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_config(path)
    out = tmp_path / "out" / "in"
    assert cli.main(["singular-angles", "--config", str(path),
                     "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"chr: config error: {message}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["study.cfg"]


def test_prefix_names_files_in_the_out_dir(tmp_path):
    path = write_config(tmp_path, SINGULAR + "out.prefix = a.b-c\n")
    assert cli.main(["singular-angles", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == [
        "a.b-c_singular_angles.csv"]


# each bundled config's exit code and stderr lines under chr --format csv+svg
BUNDLED_RUNS = {
    "fig03_correlation_radius.cfg": (0, []),
    "fig05_spreading_time.cfg": (0, []),
    "fig06b_arrival_shift.cfg": (
        2, ["chr: warning: small_angle flag on 1 sample"]),
    "fig08a_arrival_shift_n_sweep.cfg": (
        2, ["chr: warning: small_angle flag on 78 samples",
            "chr: warning: below_threshold flag on 38 samples"]),
    # D = -1 is one of the 41 samples: n (1 + D) = 0
    "fig09_ice_dispersion.cfg": (
        2, ["chr: warning: degenerate_group_velocity flag on 1 sample"]),
    "fig10_delta_p_scan.cfg": (0, []),
    "fig12_wigner_map.cfg": (0, []),
    "flash_duration.cfg": (0, []),
    "singular_angles.cfg": (0, []),
    "snapshot.cfg": (0, []),
    "sodium_eit_shift.cfg": (
        2, ["chr: warning: below_threshold flag on 89 samples"]),
}


@pytest.mark.parametrize("config", BUNDLED, ids=lambda p: p.name)
def test_bundled_configs_run(config, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main([parse_config(config).study, "--config", str(config),
                     "--out-dir", str(out), "--format", "csv+svg"])
    captured = capsys.readouterr()
    assert (code, captured.err.splitlines()) == BUNDLED_RUNS[config.name]
    artifacts = [Path(line) for line in captured.out.splitlines()]
    assert artifacts and all(art.parent == out and art.exists()
                             for art in artifacts)


# array passes of each arrival-time config: one placement and one
# flash-statistics pass per sweep, none where no sample clears the
# Cherenkov threshold (sodium)
ARRAY_PASSES = {"fig06b_arrival_shift": 1,
                "fig08a_arrival_shift_n_sweep": 1,
                "fig09_ice_dispersion": 1, "sodium_eit_shift": 0}


@pytest.mark.parametrize("name", sorted(ARRAY_PASSES))
def test_arrival_time_study_makes_one_array_pass(tmp_path, monkeypatch,
                                                 name):
    from cherenkov_wigner import kinematics, observables
    calls = []

    def counted(label, real):
        def wrapper(*args, **kwargs):
            calls.append(label)
            return real(*args, **kwargs)
        return wrapper

    def never(*args, **kwargs):
        raise AssertionError("a sweep evaluated one sample at a time")

    monkeypatch.setattr(cli, "place_triangles",
                        counted("place", cli.place_triangles))
    monkeypatch.setattr(observables, "flash_stats_batch",
                        counted("flash", observables.flash_stats_batch))
    monkeypatch.setattr(PhaseSpaceKernel, "from_geometry", never)
    monkeypatch.setattr(observables, "flash_stats", never)
    monkeypatch.setattr(kinematics, "triangle_geometry", never)
    config = CONFIG_DIR / f"{name}.cfg"
    assert cli.main([parse_config(config).study, "--config", str(config),
                     "--out-dir", str(tmp_path)]) in (0, 2)
    assert calls == ["place", "flash"] * ARRAY_PASSES[name]


def _rows_bits(rows):
    return [tuple(float(v).hex() for v in row) for row in rows]


# the reason under which a sweep counts each error of the one-sample calls
_REASONS = {DegenerateGroupVelocity: "degenerate_group_velocity",
            MachConeDegenerate: "mach_cone",
            CollinearVelocities: "collinear_velocities",
            DegeneratePhase: "degenerate_phase"}


def _one_sample(cfg, medium, theta):
    """(reason, row) of one arrival-time sample through the single-geometry
    functions, the reference of the sweep's array pass: reason is None
    where the sample emits, below_threshold, open_triangle (no triangle
    from ``triangle_geometry``), or the exception ``flash_stats`` raises."""
    n = medium.index(cfg.omega)[0]
    geom = triangle_geometry(cfg.p_perp, cfg.pp_perp_ratio * cfg.p_perp,
                             cfg.beta, cfg.omega, n, theta, cfg.phi_k,
                             cfg.branch)
    if cfg.beta * n < 1.0:
        return "below_threshold", None
    if geom is None:
        return "open_triangle", None
    try:
        stats = flash_stats(geom, ElectronPacket(geom.p, cfg.sigma), medium,
                            geom.k.as_array() / geom.k.mag * cfg.r_mag, 0.0)
    except tuple(_REASONS) as exc:
        return exc, None
    return None, (stats.delta_t, stats.sigma_t, stats.t_0, int(stats.flags))


def _arrival_sweep(cfg):
    values, media, theta_k = cli._arrival_samples(cfg)

    def one(value, medium, theta):
        _, row = _one_sample(cfg, medium, theta)
        return None if row is None else (value, *row)

    return ((values, media, np.broadcast_to(theta_k, len(values))),
            lambda *samples: cli._arrival_rows(cfg, *samples), one)


def _spread_rows(st):
    return list(zip(*(np.atleast_1d(getattr(st, field)).tolist()
                      for field in ("inv_t_d", "t_d", "t_d_tilde", "tau_d"))))


def _spreading_sweep(cfg):
    # the emission angles of fig05 through spread_times_at_angle
    medium = cfg.medium()
    dp = medium.dispersion_params(cfg.omega)

    def rows_of(thetas):
        return _spread_rows(spread_times_at_angle(
            cfg.beta, medium.index(cfg.omega)[0], cfg.omega, cfg.epsilon(),
            cfg.sigma, thetas, dp.d_param, dp.e_param)), {}

    return ((cli._sweep_values(cfg) * math.pi / 180.0,), rows_of,
            lambda theta: rows_of(float(theta))[0][0])


def _correlation_sweep(cfg):
    # the unit vectors R of fig03, one row each, through correlation_scales
    scenario = cli._balance_scenario(cfg, t_out=cfg.t_out or 1.0)
    kernel = PhaseSpaceKernel.from_geometry(
        scenario.geometry(), scenario.packet, scenario.medium)
    assert cfg.sweep_variable == "theta-r"
    R = np.array([Momentum3.from_spherical(
        1.0, v, cfg.phi_k + 20.0 * math.pi / 180.0).as_array()
        for v in cli._sweep_values(cfg) * math.pi / 180.0])
    def rows_of(rows):
        r_eff, inv_r_im_sq = kernel.correlation_scales(cfg.t_prime, rows)
        return list(zip(r_eff.tolist(), inv_r_im_sq.tolist())), {}

    return ((R,), rows_of,
            lambda one: kernel.correlation_scales(cfg.t_prime, one))


def _flash_duration_sweep(cfg):
    # the packet widths of the flash-duration study through one kernel of
    # them, against a kernel of each width's packet
    scenario = cli._balance_scenario(cfg, t_out=1.0)
    geom, packet, medium = scenario.geometry(), scenario.packet, \
        scenario.medium
    kernel = PhaseSpaceKernel.from_geometry(geom, packet, medium)

    def rows_of(sigmas):
        return [(v,) for v in PhaseSpaceKernel(
            kernel.u_p, kernel.u_k, kernel.a, kernel.b, sigmas,
            kernel.delta_eps).sigma_t(0.0).tolist()], {}

    return ((cli._sweep_values(cfg),), rows_of,
            lambda sigma: (PhaseSpaceKernel.from_geometry(
                geom, replace(packet, sigma=sigma), medium).sigma_t(0.0),))


# every config whose samples one call evaluates together: a function from
# its config to (samples, rows, one), the per-sample inputs, the study's
# rows and counts of any subset of them, and a sample's row from the
# one-sample call (None where that emits nothing)
SWEEPS = {**dict.fromkeys(ARRAY_PASSES, _arrival_sweep),
          "fig05_spreading_time": _spreading_sweep,
          "fig03_correlation_radius": _correlation_sweep,
          "flash_duration": _flash_duration_sweep}

# fig06b variants with one sample that closes its triangle but emits no
# photon: (config changes, that sample's exception from the one-sample
# calls, its message)
DEGENERATE_FIG06B = {
    # theta_k = 0 with pp_perp = p_perp closes with k along z, after two
    # samples that emit
    "fig06b_k_along_z": (
        {"pp-perp-ratio": "1", "sweep.start": "4", "sweep.stop": "0",
         "sweep.samples": "3"}, DegeneratePhase, "^azimuth of k "),
    # at p_perp = 1e-20 only theta_k = 0 closes, and there u_p and u_k
    # lie along z together (k has no azimuth either, a later check)
    "fig06b_collinear": (
        {"p-perp": "1e-20", "pp-perp-ratio": "1", "sweep.start": "90",
         "sweep.stop": "0", "sweep.samples": "4"}, CollinearVelocities,
        r"^\[u_p x u_k\] = 0")}


def _config_path(name, tmp_path):
    """The bundled config ``name``, or the fig06b variant of that name
    written under ``tmp_path``."""
    if name not in DEGENERATE_FIG06B:
        return CONFIG_DIR / f"{name}.cfg"
    text = FIG06B
    for key, value in DEGENERATE_FIG06B[name][0].items():
        text = with_key(text, key, value)
    return write_config(tmp_path, text)


@pytest.mark.parametrize("name", sorted(SWEEPS) + sorted(DEGENERATE_FIG06B))
def test_sweep_sample_bits_do_not_depend_on_the_sweep(tmp_path, name):
    # each sample's row, bit for bit, in the full sweep, the reversed sweep,
    # a sweep of that sample alone, and from its one-sample call:
    # flash_stats(triangle_geometry(...)) for the arrival studies (rows of
    # the study), spread_times_at_angle at one angle, correlation_scales
    # at one R, a kernel of one packet width (rows of the closed form);
    # the cross-sample sums are elementwise, where a BLAS product would
    # round a lone row apart
    cfg = parse_config(_config_path(name, tmp_path))
    samples, rows_of, one = SWEEPS.get(name, _arrival_sweep)(cfg)
    rows, counts = rows_of(*samples)
    back, back_counts = rows_of(*(s[::-1] for s in samples))
    assert _rows_bits(back[::-1]) == _rows_bits(rows)
    assert back_counts == counts
    for i, row in enumerate(rows):
        alone, _ = rows_of(*(s[i:i + 1] for s in samples))
        assert _rows_bits(alone) == _rows_bits([row])
        single = one(*(s[i] for s in samples))
        if single is not None:
            assert _rows_bits([single]) == _rows_bits([row])


@pytest.mark.parametrize("name,owner,method", [
    ("fig05_spreading_time", cli, "spread_times_at_angle"),
    ("fig03_correlation_radius", PhaseSpaceKernel, "correlation_scales"),
    ("flash_duration", PhaseSpaceKernel, "sigma_t")])
def test_closed_form_study_makes_one_call(tmp_path, monkeypatch, name, owner,
                                          method):
    # fig05 called spread_times_at_angle once per angle (357 times), fig03
    # correlation_scales once per R (179) and flash-duration built a kernel
    # per width (31)
    calls = []
    real = getattr(owner, method)

    def counted(*args, **kwargs):
        calls.append(method)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, method, counted)
    config = CONFIG_DIR / f"{name}.cfg"
    assert cli.main([parse_config(config).study, "--config", str(config),
                     "--out-dir", str(tmp_path)]) == 0
    assert calls == [method]


def _counting_media(monkeypatch):
    """Make the ConstantMedium of ``cli`` count the reads of each medium it
    builds; returns the list of those media, each with its ``reads``."""
    built = []

    class Counting(ConstantMedium):
        def __init__(self, n):
            super().__init__(n)
            self.reads = Counter()
            built.append(self)

        def index(self, omega):
            self.reads["index"] += 1
            return super().index(omega)

        def dispersion_params(self, omega):
            self.reads["dispersion_params"] += 1
            return DispersionParams(0.0, 0.0, omega)

    monkeypatch.setattr(cli, "ConstantMedium", Counting)
    return built


@pytest.mark.parametrize("name,media", [
    ("fig06b_arrival_shift", 1), ("fig08a_arrival_shift_n_sweep", 116)])
def test_arrival_sweep_reads_each_medium_once(tmp_path, monkeypatch, name,
                                              media):
    # a theta_k sweep read its one medium three times per sample (89
    # samples), an n sweep each sample's medium three times
    built = _counting_media(monkeypatch)
    config = CONFIG_DIR / f"{name}.cfg"
    assert cli.main(["arrival-shift", "--config", str(config),
                     "--out-dir", str(tmp_path)]) == 2
    assert len(built) == media
    assert all(medium.reads == {"index": 1, "dispersion_params": 1}
               for medium in built)


@pytest.mark.parametrize("name", sorted(DEGENERATE_FIG06B))
def test_sweep_counts_each_sample_without_a_photon_by_reason(tmp_path,
                                                            capsys, name):
    # the degenerate sample used to stop the sweep (exit 1, no rows); now
    # its row is NaN with no flags, and each sample is counted under the
    # type of the error that the one-sample calls raise for it alone
    _, error, match = DEGENERATE_FIG06B[name]
    path = _config_path(name, tmp_path)
    cfg = parse_config(path)
    values, media, theta_k = cli._arrival_samples(cfg)
    reasons = [_one_sample(cfg, medium, theta)[0] for medium, theta in
               zip(media, np.broadcast_to(theta_k, len(values)))]
    raised = [r for r in reasons if isinstance(r, Exception)]
    assert len(raised) == 1 and type(raised[0]) is error
    assert re.search(match, str(raised[0]))
    reasons = [_REASONS.get(type(r), r) for r in reasons]
    out = tmp_path / "out"
    assert cli.main(["arrival-shift", "--config", str(path),
                     "--out-dir", str(out)]) == 2
    rows = data_rows(out / "fig06b_arrival_shift.csv")
    assert [float(r[0]) for r in rows] == values.tolist()
    for row, reason in zip(rows, reasons):
        if reason is None:
            assert "nan" not in row
        else:
            assert row[1:] == ["nan", "nan", "nan", "0"]
    counts = Counter(r for r in reasons if r is not None)
    assert _REASONS[error] in counts
    # one line per reason, in check order, after the WKB flag lines
    order = ("below_threshold", "open_triangle", *_REASONS.values())
    want = [f"chr: warning: {r} flag on {counts[r]} sample"
            f"{'s' * (counts[r] != 1)}" for r in order if counts[r]]
    err = capsys.readouterr().err.splitlines()
    assert err[len(err) - len(want):] == want
    assert not any(r in line for line in err[:len(err) - len(want)]
                   for r in order)


def test_theta_k_sweep_through_zero_counts_negative_legs_as_open(tmp_path,
                                                                 capsys):
    # at pp_perp = p_perp the sample at -2.2e-16 degrees has a negative
    # leg k_perp within the closure slack: the sweep raised
    # TriangleViolation ("legs must be non-negative") and wrote no rows
    text = FIG06B
    for key, value in (("pp-perp-ratio", "1"), ("sweep.start", "-2"),
                       ("sweep.stop", "2"), ("sweep.samples", "99")):
        text = with_key(text, key, value)
    path = write_config(tmp_path, text)
    assert cli.main(["arrival-shift", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 2
    rows = data_rows(tmp_path / "out" / "fig06b_arrival_shift.csv")
    assert [r[1] == "nan" for r in rows] == [True] * 50 + [False] * 49
    assert capsys.readouterr().err.splitlines() == [
        "chr: warning: small_angle flag on 49 samples",
        "chr: warning: open_triangle flag on 50 samples"]


FIG06B = (CONFIG_DIR / "fig06b_arrival_shift.cfg").read_text(encoding="utf-8")


def with_key(text, key, value):
    """``text`` with ``key`` set to ``value``."""
    return "".join(line + "\n" for line in text.splitlines()
                   if not line.startswith(key + " ")) + f"{key} = {value}\n"


def test_open_triangle_samples_are_named(tmp_path, capsys):
    # at p-perp = 1e-7 the transverse legs close at 8 of the 89 angles
    path = write_config(tmp_path, with_key(FIG06B, "p-perp", "1e-7"))
    assert cli.main(["arrival-shift", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 2
    rows = data_rows(tmp_path / "out" / "fig06b_arrival_shift.csv")
    assert sum(r[1] == "nan" for r in rows) == 81
    assert capsys.readouterr().err.splitlines() == [
        "chr: warning: small_angle flag on 1 sample",
        "chr: warning: open_triangle flag on 81 samples"]


def test_degenerate_group_velocity_sample_is_named(tmp_path, capsys):
    config = CONFIG_DIR / "fig09_ice_dispersion.cfg"
    assert cli.main(["dispersion-scan", "--config", str(config),
                     "--out-dir", str(tmp_path)]) == 2
    rows = data_rows(tmp_path / "fig09_dispersion_scan.csv")
    assert [r[0] for r in rows if r[1] == "nan"] == ["-1.0"]
    assert [r[1:3] for r in rows if r[0] == "-1.0"] == [["nan", "nan"]]
    assert capsys.readouterr().err.splitlines() == [
        "chr: warning: degenerate_group_velocity flag on 1 sample"]


def test_dispersion_scan_lets_other_errors_through(tmp_path, monkeypatch,
                                                   capsys):
    # only n (1 + D) = 0 means "no photon"; any other division by zero is
    # a study failure, as in arrival-shift
    def fail(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli.observables, "flash_stats_batch", fail)
    config = CONFIG_DIR / "fig09_ice_dispersion.cfg"
    assert cli.main(["dispersion-scan", "--config", str(config),
                     "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "chr: dispersion-scan failed: boom\n"


@pytest.mark.parametrize("key,value", [
    ("p-perp", "-1e-6"), ("p-perp", "0"), ("pp-perp-ratio", "0"),
    ("pp-perp-ratio", "-0.5")])
def test_transverse_inputs_must_be_positive(tmp_path, capsys, key, value):
    # each used to write 89 NaN rows with exit 0 and nothing on stderr
    path = write_config(tmp_path, with_key(FIG06B, key, value))
    with pytest.raises(ValidationError, match=f"^{key}: must be positive"):
        parse_config(path)
    assert cli.main(["arrival-shift", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"chr: config error: {key}: ")
    assert not (tmp_path / "out").exists()


FIG08A = (CONFIG_DIR / "fig08a_arrival_shift_n_sweep.cfg").read_text(
    encoding="utf-8")


@pytest.mark.parametrize("key,value", [
    ("medium.d", "0.3"), ("medium.e", "-0.1"), ("medium.table", ICE_TABLE)],
    ids=["medium.d", "medium.e", "medium.table"])
def test_n_sweep_rejects_dispersion_keys(tmp_path, capsys, key, value):
    # each sample of an n sweep is ConstantMedium(n): with medium.d = 0.3
    # the sweep wrote fig08a's CSV byte for byte, with the same exit code
    message = f"{key}: an n sweep uses a constant medium at each n, not {key}"
    path = write_config(tmp_path, FIG08A + f"{key} = {value}\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_config(path)
    assert cli.main(["arrival-shift", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"chr: config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("keys", [("medium.n",), ("medium.d",),
                                  ("medium.n", "medium.d")],
                         ids=["medium.n", "medium.d", "both"])
def test_medium_table_rejects_the_keys_it_gives(tmp_path, capsys, keys):
    # a table gives n and D at each omega, and no study reads medium.n or
    # medium.d beside it: a spreading-time config with the table and both
    # keys ran on the table's n and D with exit 0
    key = keys[0]
    message = f"{key}: a medium.table gives n and D per omega, not {key}"
    text = MINIMAL_SPREADING.replace("medium.n = 1.7",
                                     f"medium.table = {ICE_TABLE}")
    path = write_config(tmp_path, text + "".join(
        f"{k} = {v}\n" for k, v in zip(keys, ("1.7", "0.3"))))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_config(path)
    assert cli.main(["spreading-time", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"chr: config error: {message}\n"
    assert not (tmp_path / "out").exists()
    # medium.e stays: a d-param sweep over the table's n reads it
    parse_config(write_config(tmp_path, text + "medium.e = 0.1\n"))


@pytest.mark.parametrize("config,study,key,value", [
    ("fig09_ice_dispersion.cfg", "dispersion-scan", "medium.d", "0.3"),
    ("fig06b_arrival_shift.cfg", "arrival-shift", "theta-k", "30"),
    ("fig05_spreading_time.cfg", "spreading-time", "theta-k", "30"),
    ("fig08a_arrival_shift_n_sweep.cfg", "arrival-shift", "medium.n", "1.5"),
    ("flash_duration.cfg", "flash-duration", "sigma", "1e-5")],
    ids=["d-param-medium.d", "arrival-theta-k", "spreading-theta-k",
         "n-medium.n", "sigma-sigma"])
def test_sweep_rejects_the_key_it_overrides(tmp_path, capsys, config, study,
                                            key, value):
    # the sweep sets that quantity at every sample: fig09 with medium.d =
    # 0.3 wrote fig09's CSV byte for byte, with the same exit code
    path = write_config(tmp_path, (CONFIG_DIR / config).read_text(
        encoding="utf-8") + f"{key} = {value}\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(key)}: an? "):
        parse_config(path)
    assert cli.main([study, "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"chr: config error: {key}: ")
    assert err.endswith(f", not {key}\n")
    assert not (tmp_path / "out").exists()


def test_phi_r_sweep_without_theta_k_puts_r_at_the_scenario_angle(tmp_path):
    # R's polar angle is the scenario's theta_k, theta_Ch by default: with
    # R along z every phi_R row was the same
    cfg = parse_config(write_config(tmp_path, """
study = correlation-radius
beta = 0.99
sigma = 1e-4
omega = 1e-5
medium.n = 1.7
t-out = 1e6
t-prime = 1e6
sweep.variable = phi-r
sweep.start = 0
sweep.stop = 80
sweep.samples = 5
"""))
    assert cfg.theta_k is None
    artifacts, _ = run_study(cfg, tmp_path, "csv")
    lines = artifacts[0].read_text().splitlines()
    theta_ch = math.acos(1.0 / (0.99 * 1.7))
    theta_k = float(lines[1].removeprefix("# theta_k: "))
    assert abs(theta_k - theta_ch) < 1e-12
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines if not line.startswith("#")])
    assert rows.shape == (5, 3)
    assert np.unique(rows[:, 1]).size == 5


@pytest.mark.parametrize("offsets,first,second,tag", [
    ("0.5,0.501", "0.5", "0.501", "dp_p0.50sigma"),
    ("0,1,0.001", "0.0", "0.001", "dp_p0.00sigma"),
    ("-1,2,-1", "-1.0", "-1.0", "dp_m1.00sigma")])
def test_delta_p_offsets_sharing_a_file_tag_are_a_config_error(
        tmp_path, capsys, offsets, first, second, tag):
    # 0.5 and 0.501 both wrote fig10_delta_p_dp_p0.50sigma.csv, the second
    # map over the first, with exit 0
    text = (CONFIG_DIR / "fig10_delta_p_scan.cfg").read_text(encoding="utf-8")
    path = write_config(tmp_path, with_key(text, "delta-p.offsets", offsets))
    message = (f"delta-p.offsets: {first} and {second} share the file tag "
               f"{tag}")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_config(path)
    assert cli.main(["delta-p-scan", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"chr: config error: {message}\n"


def test_n_sweep_gated_by_cherenkov_threshold(tmp_path):
    # the shift curve exists only above the radiation threshold n >= 1/beta
    path = write_config(tmp_path, """
study = arrival-shift
beta = 0.7
sigma = 1e-5
omega = 1e-6
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


def test_n_sweep_counts_the_samples_below_threshold(tmp_path, capsys):
    # fig08a sweeps n from 1.05 across 1/beta = 1.43: each NaN row below
    # it is one below_threshold sample, next to the WKB flags
    config = CONFIG_DIR / "fig08a_arrival_shift_n_sweep.cfg"
    out = tmp_path / "out"
    assert cli.main(["arrival-shift", "--config", str(config),
                     "--out-dir", str(out)]) == 2
    rows = data_rows(out / "fig08a_arrival_shift.csv")
    below = sum(1 for r in rows if 0.7 * float(r[0]) < 1.0)
    assert below == 38
    assert all(r[1] == "nan" for r in rows if 0.7 * float(r[0]) < 1.0)
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"chr: warning: below_threshold flag on {below} samples"
    assert len(err) == 2


def test_sodium_config_below_threshold_is_not_silent(tmp_path, capsys):
    # beta*n = 0.999 * 1.001 < 1: no sample radiates, so every row is NaN,
    # and chr says so with exit code 2
    config = CONFIG_DIR / "sodium_eit_shift.cfg"
    out = tmp_path / "out"
    assert cli.main(["arrival-shift", "--config", str(config),
                     "--out-dir", str(out)]) == 2
    rows = data_rows(out / "sodium_arrival_shift.csv")
    assert len(rows) == 89 and all(r[1:4] == ["nan"] * 3 for r in rows)
    assert capsys.readouterr().err.splitlines() == [
        "chr: warning: below_threshold flag on 89 samples"]


def test_dispersion_scan_below_threshold_warns(tmp_path, capsys):
    path = write_config(tmp_path, """
study = dispersion-scan
beta = 0.7
sigma = 1e-4
omega = 7.828e-6
medium.n = 1.35
p-perp = 1e-5
theta-k = 41.5
sweep.variable = d-param
sweep.start = -2
sweep.stop = 2
sweep.samples = 5
""")
    assert cli.main(["dispersion-scan", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "chr: warning: below_threshold flag on 5 samples"]


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


def test_flash_duration_names_collinear_velocities(tmp_path, capsys):
    # theta_k = 0 puts k along p: the one kernel over the widths raises
    # as the kernel of each width did
    path = write_config(tmp_path, FLASH + "theta-k = 0\n")
    assert cli.main(["flash-duration", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "chr: flash-duration failed: [u_p x u_k] = 0: flash duration "
        "undefined\n")


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


# For each arrival-shift sweep: the sha256 of the float.hex coordinates of
# (p, p', k) at every sample ("None" where no geometry), and the samples
# without one, as the study placed its triangle before triangle_geometry
# took beta: the triangle rules, then p_z = sqrt(|p|^2 - p_perp^2) with
# |p| = beta gamma (None where p_perp >= |p|), p'_z = p_z - n omega cos
# theta_k, and the placement at that p'_z.  Recorded from that code.
HAND_PLACED_TRIANGLES = {
    "fig06b_arrival_shift": (
        "5146e2cf954c50b03bc0ce2ab297756ee35cdd7a89cc2a6f7ccfa478dd8bf773",
        []),
    "fig08a_arrival_shift_n_sweep": (
        "6dd07a483484555f7070f3aee3255c6cc013e950193667df08a1ef219ac1c919",
        []),
    "sodium_eit_shift": (
        "08711150c1579b165660a1cd540f964ba70b2ca740a095691bd7ddbf42a2c439",
        list(range(41, 48))),
}


@pytest.mark.parametrize("name", sorted(HAND_PLACED_TRIANGLES))
def test_triangle_geometry_from_beta_is_the_hand_placement(tmp_path, name):
    cfg = parse_config(CONFIG_DIR / f"{name}.cfg")
    digest, missing, below = hashlib.sha256(), [], set()
    for i, v in enumerate(cli._sweep_values(cfg)):
        medium = cfg.medium() if cfg.sweep_variable == "theta-k" else \
            ConstantMedium(v)
        theta_k = v * math.pi / 180.0 if cfg.sweep_variable == "theta-k" \
            else cfg.theta_k
        n = medium.index(cfg.omega)[0]
        geom = triangle_geometry(cfg.p_perp, cfg.pp_perp_ratio * cfg.p_perp,
                                 cfg.beta, cfg.omega, n, theta_k, cfg.phi_k,
                                 cfg.branch)
        if geom is None:
            missing.append(i)
            digest.update(b"None;")
        else:
            digest.update(",".join(c.hex() for v3 in (geom.p, geom.p_prime,
                                                      geom.k)
                                   for c in (v3.x, v3.y, v3.z)).encode()
                          + b";")
        if cfg.beta * n < 1.0:
            below.add(i)
    assert (digest.hexdigest(), missing) == HAND_PLACED_TRIANGLES[name]
    # the study writes a NaN row exactly where there is no geometry or the
    # sample lies below the Cherenkov threshold
    run_study(cfg, tmp_path)
    rows = data_rows(tmp_path / f"{cfg.out_prefix}_arrival_shift.csv")
    assert {i for i, r in enumerate(rows) if r[1] == "nan"} == \
        set(missing) | below


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


@pytest.mark.parametrize("study,cfg,csv,width", [
    ("arrival-shift", "fig06b_arrival_shift", "fig06b_arrival_shift", 5),
    ("arrival-shift", "fig08a_arrival_shift_n_sweep", "fig08a_arrival_shift",
     5),
    ("dispersion-scan", "fig09_ice_dispersion", "fig09_dispersion_scan", 4),
    ("arrival-shift", "sodium_eit_shift", "sodium_arrival_shift", 5)])
def test_sweep_flags_column_reads_as_integers(tmp_path, study, cfg, csv,
                                              width):
    # the WKB flags are ints and are written as ints ("0", "1", ...), the
    # time columns as round-trip floats
    assert cli.main([study, "--config", str(CONFIG_DIR / f"{cfg}.cfg"),
                     "--out-dir", str(tmp_path)]) == 2
    rows = data_rows(tmp_path / f"{csv}.csv")
    assert rows and all(len(r) == width for r in rows)
    for row in rows:
        assert row[-1] == str(int(row[-1])) and 0 <= int(row[-1]) <= 3
        assert all("." in v or "e" in v or v in ("nan", "inf", "-inf")
                   for v in row[:-1])


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
