"""The public surface resolves: no stale name survives a rename."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import igakron

MODULES = sorted(m.name for m in pkgutil.iter_modules(igakron.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module("igakron." + name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_top_level_export_is_a_public_name_of_its_module():
    tree = ast.parse(Path(igakron.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    exports = [(node.module, alias.name) for node in imports for alias in node.names]
    assert exports
    for module_name, name in exports:
        module = importlib.import_module("igakron." + module_name)
        assert name in module.__all__, (module_name, name)
        assert getattr(igakron, name) is getattr(module, name)
