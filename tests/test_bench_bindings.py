"""The benchmark's instrumentation (bench/spans.py) rebinds brachkit names by
name; entering and leaving it must work and leave every binding as it was, so
deleting a name that only the benchmark binds fails here too."""

import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _bindings(modules):
    """Every module attribute, and every attribute of the classes they define, by identity."""
    out = {}
    for mod in modules:
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = cvalue
    return out


def test_bench_instrumentation_enters_and_restores_bindings():
    spans = _load_spans()
    modules = spans._brachkit_modules()
    before = _bindings(modules)
    import brachkit.dynamics as dynamics
    original = dynamics.solve_ivp
    with spans.instrument(spans.Recorder()):
        assert dynamics.solve_ivp is not original
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
