"""Every function the benchmark's per-layer trace wraps still exists.

``perfbench/layers.py`` names each wrapped function as a ``module.attr``
string. A rename inside bohmsim would leave that layer of the trace blank
without failing a test here, because ``perfbench/tests`` is outside this
suite. The benchmark's files are parsed, never imported or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _targets():
    """(module, attr) of every Target(layer, module, attr, ...) call."""
    tree = ast.parse((BENCH_DIR / "layers.py").read_text())
    return [(call.args[1].value, call.args[2].value)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "Target"]


def _top_level_names(path):
    """Names a benchmark module binds at its top level."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


TARGETS = _targets()


def test_targets_found():
    assert any(module == "bohmsim.guidance" for module, _ in TARGETS)


@pytest.mark.parametrize("module,attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_trace_target_resolves(module, attr):
    if module.split(".")[0] == "bohmsim":
        assert callable(getattr(importlib.import_module(module), attr, None))
    else:  # a benchmark driver module, such as workloads
        assert attr in _top_level_names(BENCH_DIR / f"{module}.py")
