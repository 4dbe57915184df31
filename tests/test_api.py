"""Every exported name of the package resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import brachkit


def _modules():
    return [importlib.import_module(f"brachkit.{info.name}")
            for info in pkgutil.iter_modules(brachkit.__path__)]


def test_module_all_names_resolve():
    checked = 0
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing '{name}'"
            checked += 1
    assert checked > 0


def test_package_imports_resolve():
    tree = ast.parse(Path(brachkit.__file__).read_text())
    imported = [(node.module, alias) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, alias in imported:
        source = importlib.import_module(f"brachkit.{module}")
        assert hasattr(source, alias.name), f"brachkit.{module} has no '{alias.name}'"
        assert getattr(brachkit, alias.asname or alias.name) is getattr(source, alias.name)
