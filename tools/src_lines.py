"""Print the total, code, docstring and comment lines of each module of the
package, and their sums on a last row, ``all``.

Usage: python3 tools/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's ``src/bohmsim``; naming the package
of another checkout compares two commits. Each line counts in one column
besides the total, the first of these that holds for it: a line of a
docstring (the string that opens a module, class or function body, from
its first line to its last), a line with a token of code, a line holding
only a comment. Blank lines count in the total alone.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("total", "code", "docstring", "comment")
_LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT)


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """{column: number of lines} of one module's source text."""
    docstring = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    comment -= docstring | code
    return {"total": len(source.splitlines()), "code": len(code),
            "docstring": len(docstring), "comment": len(comment)}


def main(argv):
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print("usage: python3 tools/src_lines.py [PACKAGE_DIR]",
              file=sys.stderr)
        return 2
    package = Path(argv[0]) if argv else ROOT / "src" / "bohmsim"
    rows = [(path.relative_to(package).as_posix(), count(path.read_text()))
            for path in sorted(package.rglob("*.py"))]
    rows.append(("all", {c: sum(r[c] for _, r in rows) for c in COLUMNS}))
    print(f"{'module':<20}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, row in rows:
        print(f"{name:<20}" + "".join(f"{row[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
