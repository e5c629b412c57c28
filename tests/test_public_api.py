"""The package's public surface: every exported name has a caller outside
the tests."""

import ast
from pathlib import Path

import bohmsim

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names():
    """Every name that the library (bar ``__init__.py``), the benchmark and
    the tools load, read as an attribute or import."""
    files = [p for p in (ROOT / "src" / "bohmsim").glob("*.py")
             if p.name != "__init__.py"]
    for sub in ("perfbench", "tools"):
        files += (ROOT / sub).rglob("*.py")
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1]
                             for alias in node.names)
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    referenced = _referenced_names()
    exported = [n for n in bohmsim.__all__ if not n.startswith("__")]
    assert exported
    assert [n for n in exported if n not in referenced] == []
