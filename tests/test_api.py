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


# bench/spans.py wraps each of these modules' own ``solve_ivp`` binding by name
_UNUSED_FOR_BENCH = {("bvp", "solve_ivp"), ("jacobi", "solve_ivp"), ("transform", "solve_ivp")}


def test_modules_use_every_name_they_import():
    unused = set()
    for path in sorted(Path(brachkit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(importlib.import_module(f"brachkit.{path.stem}"), "__all__", ()))
        unused |= {(path.stem, name) for name in imported - used}
    assert unused == _UNUSED_FOR_BENCH


def test_no_module_calls_solve_ivp():
    # every ODE runs on dynamics.ode_lanes; the solve_ivp bindings above stay uncalled
    calls = []
    for path in sorted(Path(brachkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "solve_ivp":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
