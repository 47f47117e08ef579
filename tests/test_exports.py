"""Every exported name resolves: a removal that leaves its name behind in
an ``__all__`` or in the package's re-exports fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cherenkov_wigner

MODULES = sorted(info.name
                 for info in pkgutil.iter_modules(cherenkov_wigner.__path__))


def package_reexports():
    """(module, name) for each ``from .module import name`` of the
    package's ``__init__``."""
    tree = ast.parse(Path(cherenkov_wigner.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"cherenkov_wigner.{module}")
    assert mod.__all__, f"{module} exports nothing"
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_reexports_are_exported_by_their_module():
    pairs = package_reexports()
    assert pairs
    for module, name in pairs:
        mod = importlib.import_module(f"cherenkov_wigner.{module}")
        assert name in mod.__all__, f"{module}.{name} is not in its __all__"
        assert getattr(cherenkov_wigner, name) is getattr(mod, name)
