"""``tools/src_lines.py`` on a small hand-written module: every line is
counted once, as docstring, code or comment, or as blank."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

SOURCE = '''"""A module docstring
on two lines."""

# a comment line
import os  # a comment after code


def f():
    """A function docstring."""
    text = """a string
that is no docstring"""
    return os.sep + text
'''


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("_src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_line_counts_once(src_lines):
    # blank: lines 3, 6 and 7
    assert src_lines.count(SOURCE) == {"total": 12, "code": 5,
                                       "docstring": 3, "comment": 1}


def test_rows_per_module_and_their_sums(src_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "total", "code", "docstring", "comment"],
                    ["a.py", "12", "5", "3", "1"],
                    ["b.py", "1", "1", "0", "0"],
                    ["all", "13", "6", "3", "1"]]
