"""Smoke test of the scripts under demos/: each runs to completion from a
copy in a temporary directory, so its output lands there, not in the
repository."""

import runpy
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_writes_svg(script, tmp_path):
    # the copy keeps the repository layout, demos/ beside data/
    shutil.copytree(ROOT / "data", tmp_path / "data")
    copy = tmp_path / "demos" / script.name
    copy.parent.mkdir()
    shutil.copy(script, copy)
    runpy.run_path(str(copy), run_name="__main__")
    assert list((copy.parent / "output").glob("*.svg"))
