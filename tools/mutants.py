"""A mutation census of the physics: which tier-1 tests catch which error.

Each mutant is one named edit of the library: a file, a text that occurs
exactly once in it, its replacement, and the physics the edit breaks.
For each mutant the tool copies the checkout (without ``.git`` and the
caches) to a temporary directory, applies the edit, runs the tier-1 suite
there (``python -m pytest -q --continue-on-collection-errors -p
no:cacheprovider`` with that copy's ``src`` on ``PYTHONPATH``), and
records the tests that fail there but not on the unmutated copy.  A
mutant that no test catches is a survivor.

Each killing test is marked from ``KINDS``: an oracle is derived
independently of the code (a closed form, an expansion, a second route
that shares none of the mutated code, or a law of the physics), a pin
records today's output or today's code path.  A test not in ``KINDS``
is marked ``?``.

Each copy, the unmutated one included, loads a Hypothesis profile
without the shrink phase (``NO_SHRINK``), so that a failing property
test stops at its first failing example; the repository's own test
settings are not changed.  Not part of the test suite: one suite run per
mutant, plus one for the unmutated copy, one after another: about eight
minutes for seventeen mutants on two cores.  Prints the census as a
Markdown table, or writes it with ``--write``; ``--only`` runs the named
mutants and only prints, since its table is partial.  The table names
the commit it was measured on and the paths of the checkout that differ
from it.  ``--check MUTANTS.md`` compares the census, full or
``--only``, with a written table row by row instead of printing it, and
prints each mutant that an oracle caught there and that is now caught by
pins only, survives, or is missing (``regressions``).  Exits 1 when an
edit's text is not found exactly once or the check prints a mutant,
else 0.

    python3 tools/mutants.py [--only NAME ...]
                             [--write MUTANTS.md | --check MUTANTS.md]
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "src/cherenkov_wigner/"

Mutant = namedtuple("Mutant", "name file old new physics")

MUTANTS = [
    Mutant("delta_eps_sign", PKG + "observables.py",
           "eps - eps_prime - omega,", "-(eps - eps_prime - omega),",
           "the sign of the energy mismatch delta_eps"),
    Mutant("gouy_sign", PKG + "observables.py",
           "return -0.5 * np.log(scaled),",
           "return -0.5 * np.conj(np.log(scaled)),",
           "the sign of the Gouy phase g in the prefactor exp(-i g/2)/G "
           "(log pre, read by both panel rules)"),
    Mutant("sqrt_branch", PKG + "observables.py",
           "return -0.5 * np.log(scaled),",
           "return -0.5 * (np.log(-scaled) + 1j * np.pi),",
           "the principal branch of log(eta (eta C + chi D)), and so of the "
           "prefactor's square root: the cut moved to the positive real "
           "axis"),
    Mutant("prefactor_index", PKG + "wignerfield.py",
           "(1.0 + n * n) / (2.0 * n * n) ** 2",
           "(1.0 + n * n) / (2.0 * n * n)",
           "(1 + n^2)/(2 n^2)^2 in the prefactor"),
    Mutant("z_integer_azimuths", PKG + "amplitudes.py",
           "_Z_WEIGHTS = tuple((-s, sp, sg)",
           "_Z_WEIGHTS = tuple((-2 * s, 2 * sp, sg)",
           "the +-1/2 electron azimuthal slopes of _Z_WEIGHTS "
           "made integer"),
    Mutant("z_sigma_prime_sign", PKG + "amplitudes.py",
           "_Z_WEIGHTS = tuple((-s, sp, sg)",
           "_Z_WEIGHTS = tuple((-s, -sp, sg)",
           "the sign of sigma' in the azimuthal-phase rule "
           "z = -sigma phi + sigma' phi' + sigma_gamma phi_k"),
    Mutant("xi_dispersive_sign", PKG + "observables.py",
           "xi = e_param + n * n * (1.0 + d_param * (4.0 + d_param))",
           "xi = e_param + n * n * (1.0 - d_param * (4.0 + d_param))",
           "the sign of the dispersive D part of xi"),
    Mutant("delta_p_gaussian", PKG + "wignerfield.py",
           "math.exp(-(dp / sigma) ** 2)", "math.exp(-(dp / sigma) ** 2 / 2)",
           "exp(-(DeltaP/sigma)^2) in the prefactor"),
    Mutant("mirror_fold", PKG + "wignerfield.py",
           "[:, None], cols[::-1], cols)", "[:, None], cols, cols[::-1])",
           "the mirror fold of a map: rows taken from their mirror not "
           "reversed in X, source rows reversed"),
    Mutant("one_photon_helicity", PKG + "amplitudes.py",
           "return _mod_squared(ms_plus, cosines, g) + _mod_squared(ms_minus,",
           "return _mod_squared(ms_plus, cosines, g) + 0 * _mod_squared("
           "ms_minus,",
           "a photon helicity dropped from the |M|^2 sum"),
    Mutant("phase_velocity", PKG + "observables.py",
           "uk_mag = 1.0 / (n * (1.0 + d_param))", "uk_mag = 1.0 / n",
           "the group velocity u_k replaced by the phase velocity 1/n"),
    Mutant("gouy_knee", PKG + "wignerfield.py",
           "knee = min(abs(spread.t_d), abs(spread.t_d_tilde))",
           "knee = max(abs(spread.t_d), abs(spread.t_d_tilde))",
           "the Gouy knee from the slower spreading time (swapping t_d and "
           "t_d~ inside min() is an equivalent mutant)"),
    Mutant("levin_gouy_rate", PKG + "observables.py",
           "return (log_pre, c_a, c_b, -0.5 * rate,",
           "return (log_pre, c_a, c_b, -0.5 * rate.real,",
           "the Gouy rate -i g'/2 dropped from L' of the Levin panels"),
    Mutant("eta_width", PKG + "observables.py",
           "eta = 1.0 / (2.0 * self.sigma ** 2) + chi * self.a",
           "eta = 1.0 / (self.sigma ** 2) + chi * self.a",
           "the 1/(2 sigma^2) of eta in the one eta/chi pass"),
    Mutant("degeneracy_threshold", PKG + "observables.py",
           "_DEGENERATE = 1e-28", "_DEGENERATE = 0.0",
           "the Mach-cone and collinear threshold on C and D"),
    Mutant("r_eff_phase", PKG + "observables.py",
           "re = c_a.real * A + c_b.real * B",
           "re = c_a.imag * A + c_b.real * B",
           "R_eff read from the imaginary part of c_A, the phase, instead "
           "of its real part, the envelope (the one R_eff statement)"),
    Mutant("levin_negligible", PKG + "numerics.py",
           "_LEVIN_NEGLIGIBLE = 1e-6", "_LEVIN_NEGLIGIBLE = 1e3",
           "the Levin skip: turning cells whose envelope bound is up to "
           "1e3 x abs_tol, not 1e-6, left unsolved"),
]

# the tier-1 test functions that a mutant here kills, as oracles: each
# checks a law of the physics (a symmetry, a limit, a closed form, an
# expansion) or a second evaluation route; where a route shares the
# mutated code, the kill came from a part it does not share
ORACLES = {
    "test_criterion_05_amplitude_symmetries",
    "test_criterion_10_delta_p_scan",
    "test_criterion_11_oracle_equivalence",
    "test_mirror_symmetry",
    "test_phase_gradient_matches_50_digit_reference",
    "test_phi_prime_rigid_rotation_invariance",
    "test_summed_mod_squared",
    "test_flash_duration_honours_medium_d",
    "test_hessian_factor_analytic",
    "test_sodium_eit_dispersion_strength",
    "test_arrival_shift_linear_in_dispersion_strength",
    "test_arrival_shift_mirror_swap",
    "test_correlation_radius_reduction_at_zero_time",
    "test_correlation_radius_growth_and_mach_ratio",
    "test_exponent_at_zero_time",
    "test_log_integrand_slope_is_the_derivative_of_its_log",
    "test_prefactor_complex_matches_g_and_gouy",
    "test_prefactor_root_is_principal_where_the_gouy_phase_is_negative",
    "test_split_route_matches_complex_route",
    "test_delta_p_intensity_law_property",
    "test_delta_p_scan",
    "test_integrand_at_zero_time",
    "test_integrand_dual_route",
    "test_kernel_against_tau_integral_oracle",
    "test_long_map_matches_reference_at_every_node",
    "test_fig10_map_matches_reference_at_every_node",
    "test_point_matches_reference_oracle",
    "test_map_labels_the_photon_helicity_it_computes",
    "test_short_formation_map_is_the_packet_gaussian",
    "test_wide_maps_converge_at_every_node",
    "test_copied_half_rows_match_rows_integrated_in_full",
    "test_map_long_maps_are_the_maps_without_the_levin_skip",
}
# and as pins: each records today's output, bits, call counts or code path
PINS = {
    "test_partial_terms_are_the_products_of_the_public_d_functions",
    "test_flash_duration_names_collinear_velocities",
    "test_sweep_counts_each_sample_without_a_photon_by_reason",
    "test_collinear_flash_raises",
    "test_eta_chi_pair",
    "test_coefficient_methods_share_one_eta_chi_pass",
    "test_gauss_kronrod_integrand_is_the_levin_log_form",
    "test_integrand_forms_keep_the_bits_of_their_expressions",
    "test_reference_reads_no_production_coefficients",
    "test_mach_cone_degenerate_raises",
    "test_fig10_rows_converge_on_the_graded_start_mesh",
    "test_grid_without_mirror_symmetry_integrates_every_row",
    "test_levin_point_on_one_start_panel_builds_one_start_mesh",
    "test_levin_row_fits_a_budget_of_the_pilots_panels",
    "test_map_is_the_same_for_smaller_blocks",
    "test_map_long_batches_build_each_start_mesh_once",
    "test_map_long_rows_follow_the_pilot_mesh",
    "test_map_worker_independence_under_spawn",
    "test_mirrored_rows_are_their_source_reversed",
    "test_point_negative_value_at_shifted_angle",
    "test_point_on_its_start_mesh_is_one_integrand_call",
    "test_row_groups_match_per_row_batches_bit_for_bit",
    "test_threads_map_row_groups",
    "test_threads_on_a_levin_map_of_several_groups_change_no_bit",
    "test_negligible_cells_take_their_bound_and_are_not_solved",
    "test_map_long_nodes_as_points_take_few_rounds",
    "test_map_long_rows_take_few_levin_panels",
    "test_map_long_solves_only_the_levin_systems_that_can_matter",
    "test_correlation_scales_keep_the_bits_of_the_complex_exponent",
    "test_correlation_scale_branches_agree_at_zero_and_nan_factors",
    "test_default_grid_extents_are_the_correlation_scales",
    "test_default_grid_extents_on_the_benchmark_and_paper_maps",
    "test_default_grid_forms_the_exponent_coefficients_once",
    "test_phi_r_sweep_without_theta_k_puts_r_at_the_scenario_angle",
}
KINDS = dict.fromkeys(ORACLES, "oracle") | dict.fromkeys(PINS, "pin")

# a census row: the mutant's name and, after the last " | ", its killers
ROW = re.compile(r"^\| `(?P<name>[^`]+)` \(`[^`]+`\) \| .* \| "
                 r"(?P<cell>[^|]*) \|$")
# a failed or errored test in pytest's short summary
FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)")
# appended to the copy's root conftest.py (the checkout has none): a
# Hypothesis profile without the shrink and explain phases, so that a
# failing property test reports its first failing example at once; the
# census needs only which tests fail
NO_SHRINK = """
from hypothesis import Phase, settings

settings.register_profile("census", phases=(
    Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
settings.load_profile("census")
"""
IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache",
                                ".benchmarks", "__pycache__", "output", "out")


def failures(tree):
    """The node ids of the tier-1 tests that fail or error in ``tree``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tree / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=tree, env=env, capture_output=True, text=True)
    return {m.group(1) for m in map(FAILED.match, run.stdout.splitlines())
            if m}


def run(mutant, scratch):
    """The failures of a copy of the checkout with ``mutant`` applied;
    None if its text is not in its file exactly once."""
    if mutant is not None:
        text = (ROOT / mutant.file).read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return None
    tree = Path(tempfile.mkdtemp(dir=scratch))
    shutil.copytree(ROOT, tree, dirs_exist_ok=True, ignore=IGNORE)
    with open(tree / "conftest.py", "a", encoding="utf-8") as conftest:
        conftest.write(NO_SHRINK)
    if mutant is not None:
        (tree / mutant.file).write_text(text.replace(mutant.old, mutant.new),
                                        encoding="utf-8")
    try:
        return failures(tree)
    finally:
        shutil.rmtree(tree)


def function(node):
    """``tests/test_x.py::test_y[param]`` -> ``test_x.py::test_y``."""
    return node.split("/")[-1].split("[")[0]


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True).stdout


def census(mutants):
    """The census as Markdown lines, and whether every edit applied."""
    commit = git("rev-parse", "--short", "HEAD").strip()
    # each copy carries the checkout as it is, not as committed
    dirty = [line[3:] for line in git("status", "--porcelain",
                                      "--untracked-files=all").splitlines()]
    if dirty:
        commit += " with uncommitted changes to " + ", ".join(dirty)
    with tempfile.TemporaryDirectory() as scratch:
        base = run(None, scratch)
        lines = ["# Mutation census", "",
                 "Written by `python3 tools/mutants.py --write MUTANTS.md`. "
                 "Each row is one single-edit mutant of the library (the "
                 "`MUTANTS` list of the tool) and the tier-1 tests that fail "
                 "on it but not on the unmutated tree, each marked an oracle "
                 "(derived independently of the code) or a pin (records "
                 "today's output or code path).", "",
                 f"Measured on commit {commit}; the unmutated suite fails "
                 f"{len(base)} test(s): "
                 + (", ".join(sorted(map(function, base))) or "none") + ".",
                 "", "| mutant | breaks | killed by (oracle / pin) |",
                 "| --- | --- | --- |"]
        ok, survivors, pinned = True, [], []
        for mutant in mutants:
            got = run(mutant, scratch)
            if got is None:
                ok = False
                cell = "edit not applied: text not found exactly once"
            else:
                killers = {}
                for node in got - base:
                    killers.setdefault(function(node), []).append(node)
                fixed = sorted(map(function, base - got))
                cell = "; ".join(
                    f"{name} ({KINDS.get(name.split('::')[1], '?')}"
                    + (f", {len(nodes)} cases" if len(nodes) > 1 else "")
                    + ")" for name, nodes in sorted(killers.items()))
                kinds = {KINDS.get(name.split("::")[1]) for name in killers}
                if not killers:
                    survivors.append(mutant.name)
                elif "oracle" not in kinds:
                    pinned.append(mutant.name)
                cell = cell or "**survives**"
                if fixed:
                    cell += "; now passing: " + ", ".join(fixed)
            lines.append(f"| `{mutant.name}` (`{Path(mutant.file).name}`) "
                         f"| {mutant.physics} | {cell} |")
            print(lines[-1], file=sys.stderr, flush=True)
    lines += ["", "Survivors: " + (", ".join(survivors) or "none") + ".",
              "Caught by pins only: " + (", ".join(pinned) or "none") + "."]
    return lines, ok


def outcomes(lines):
    """{mutant: (outcome, row)} of the census rows among ``lines``, each
    outcome "oracle" (an oracle kills it), "pins" (only pins or unmarked
    tests do), "survives" or "not applied"."""
    rows = {}
    for line in lines:
        m = ROW.match(line.strip())
        if m is None:
            continue
        cell = m.group("cell")
        if cell.startswith("edit not applied"):
            outcome = "not applied"
        elif cell.startswith("**survives**"):
            outcome = "survives"
        else:
            outcome = "oracle" if "(oracle" in cell else "pins"
        rows[m.group("name")] = (outcome, line.strip())
    return rows


def regressions(committed, fresh, names=None):
    """The lines that report each mutant an oracle caught in the
    ``committed`` census and that the ``fresh`` one has caught by pins
    only, as a survivor, not applied, or not at all; ``names`` limits the
    comparison to the mutants run (``--only``)."""
    now = outcomes(fresh)
    found = []
    for name, (outcome, row) in outcomes(committed).items():
        if outcome != "oracle" or (names is not None and name not in names):
            continue
        got, fresh_row = now.get(name, ("missing", row))
        if got != "oracle":
            found.append(f"{name}: was caught by an oracle, now {got}: "
                         f"{fresh_row}")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run only the named mutants")
    out = parser.add_mutually_exclusive_group()
    out.add_argument("--write", type=Path, metavar="PATH",
                     help="write the table to PATH instead of stdout")
    out.add_argument("--check", type=Path, metavar="PATH",
                     help="compare with the table in PATH instead of "
                          "printing: exit 1 on each mutant that an oracle "
                          "caught there and that is now caught by pins "
                          "only, survives or is missing")
    args = parser.parse_args(argv)
    if args.only and args.write:
        parser.error("--only gives a partial census: print it, not --write")
    committed = (args.check.read_text(encoding="utf-8").splitlines()
                 if args.check else None)
    names = {m.name for m in MUTANTS}
    unknown = set(args.only or ()) - names
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    mutants = [m for m in MUTANTS if not args.only or m.name in args.only]
    lines, ok = census(mutants)
    text = "\n".join(lines) + "\n"
    if committed is not None:
        found = regressions(committed, lines, args.only and set(args.only))
        print("\n".join(found + [f"census check: {len(found)} mutant(s) "
                                  "no longer caught by an oracle"]))
        ok = ok and not found
    elif args.write:
        args.write.write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
