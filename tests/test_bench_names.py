"""The benchmark's tracer wraps rmtlab functions by name; each name must resolve.

perfbench/spans.py is read and executed in a fresh namespace, so no bytecode
is written next to it.
"""

import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans() -> dict:
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return namespace


_NS = _spans()


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in _NS["TRACED"].items() for n in names]
)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"rmtlab.{module}"), name))


@pytest.mark.parametrize("where, span", list(_NS["ALIASES"].items()))
def test_alias_is_the_traced_function(where, span):
    module, name = where
    owner, owner_name = span.split(".")
    alias = getattr(importlib.import_module(f"rmtlab.{module}"), name)
    assert alias is getattr(importlib.import_module(f"rmtlab.{owner}"), owner_name)
