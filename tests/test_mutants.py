import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table(*rows):
    return ["# Mutation census", "", "Measured on commit abc1234.", "",
            "| mutant | breaks | killed by (oracle / pin) |",
            "| --- | --- | --- |",
            *(f"| `{name}` (`observables.py`) | {breaks} | {cell} |"
              for name, breaks, cell in rows),
            "", "Survivors: none."]


def test_census_check_reports_each_mutant_an_oracle_no_longer_catches():
    # rows compared by mutant; an oracle kill that became pin-only, a
    # survivor, an edit not applied or no row is reported, and nothing else
    oracle = "test_o.py::test_law (oracle, 2 cases); test_p.py::test_pin (pin)"
    pins = "test_p.py::test_pin (pin); test_q.py::test_new (?)"
    committed = _table(
        ("kept", "the sign of |M|^2", oracle),
        ("to_pins", "a | b", oracle),
        ("to_survivor", "x", oracle),
        ("not_applied", "x", oracle),
        ("gone", "x", oracle),
        ("pins_before", "x", pins),
        ("survived_before", "x", "**survives**"))
    fresh = _table(
        ("kept", "the sign of |M|^2", "test_o.py::test_law (oracle)"),
        ("to_pins", "a | b", pins),
        ("to_survivor", "x", "**survives**; now passing: test_a.py::test_b"),
        ("not_applied", "x",
         "edit not applied: text not found exactly once"),
        ("pins_before", "x", "**survives**"),
        ("survived_before", "x", pins))
    mutants = _tool()
    found = mutants.regressions(committed, fresh)
    assert [line.split(":")[0] for line in found] == [
        "to_pins", "to_survivor", "not_applied", "gone"]
    assert found[0].endswith(fresh[7])
    assert "now pins" in found[0] and "now missing" in found[3]
    assert "now survives" in found[1] and "now not applied" in found[2]
    # --only: rows not run are not missing
    assert mutants.regressions(committed, fresh, {"kept", "pins_before"}) \
        == []
    assert mutants.regressions(committed, committed) == []
