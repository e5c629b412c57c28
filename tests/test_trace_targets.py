"""Every function the benchmark's per-layer trace wraps still exists, and
every call the benchmark's workloads make into bohmsim still binds.

``perfbench/layers.py`` names each wrapped function as a ``module.attr``
string. A rename inside bohmsim would leave that layer of the trace blank
without failing a test here, because ``perfbench/tests`` is outside this
suite. Likewise a changed signature would break a workload only when the
benchmark runs. The benchmark's files are parsed, never imported or changed.
"""

import ast
import importlib
import inspect
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


def _dotted(node):
    """["a", "b", "c"] for the expression a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def _workload_calls():
    """(callee as written, its bohmsim path, line, positional count,
    keywords) of every call in ``perfbench/workloads.py`` whose callee is a
    name imported from bohmsim."""
    tree = ast.parse((BENCH_DIR / "workloads.py").read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith(
                "bohmsim"):
            for a in node.names:
                imported[a.asname or a.name] = f"{node.module}.{a.name}"
    calls = []
    for call in ast.walk(tree):
        name = _dotted(call.func) if isinstance(call, ast.Call) else None
        if name and name[0] in imported:
            assert not any(isinstance(a, ast.Starred) for a in call.args)
            calls.append((".".join(name),
                          ".".join([imported[name[0]], *name[1:]]),
                          call.lineno, len(call.args),
                          [k.arg for k in call.keywords]))
    return calls


def _resolve(path):
    """The object a dotted bohmsim path names: the longest importable
    module prefix, then attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


CALLS = _workload_calls()


def test_workload_calls_found():
    assert {"evolve", "integrate_flow", "sample_density",
            "scenarios.make_initial", "scenarios.run_scenario",
            "scenarios.validate_config", "Grid.regular",
            "PhysicalConstants.natural", "ScalarWaveFunction.from_callable",
            "norm"} <= {written for written, *_ in CALLS}


@pytest.mark.parametrize("written,path,line,positional,keywords", CALLS,
                         ids=[f"{w}@{line}" for w, _, line, *_ in CALLS])
def test_workload_call_binds(written, path, line, positional, keywords):
    """The call's positional count and keywords bind to the signature of
    the bohmsim function it calls."""
    signature = inspect.signature(_resolve(path))
    signature.bind(*[None] * positional, **dict.fromkeys(keywords))
