"""Every name that perfbench/tracing.py wraps resolves in the package.

The tracer replaces each (module, function) of TRACED_FUNCTIONS and each
(module, class, method) of TRACED_METHODS by a plain attribute lookup, so a
deleted or renamed one breaks the traced benchmark run.  The tuples are read
from the file's syntax tree, without importing perfbench."""
import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced(name):
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING.name}")


def test_traced_functions_resolve():
    names = _traced("TRACED_FUNCTIONS")
    assert names
    for home, attr in names:
        assert callable(getattr(importlib.import_module(f"trimoduli.{home}"), attr)), (home, attr)


def test_traced_methods_resolve():
    names = _traced("TRACED_METHODS")
    assert names
    for home, cls_name, attr in names:
        cls = getattr(importlib.import_module(f"trimoduli.{home}"), cls_name)
        assert callable(cls.__dict__[attr]), (home, cls_name, attr)
