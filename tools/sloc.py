"""Count the code lines of each ``src/saddlesolve`` module and their total.

A code line holds at least one token of a statement: blank lines, comment
lines and docstrings (the string that opens a module, class or function) do
not count. Standard library only.

    python3 tools/sloc.py [PACKAGE_DIR]
    python3 tools/sloc.py OLD_DIR NEW_DIR

PACKAGE_DIR defaults to ``src/saddlesolve`` next to this script's parent.
With two directories, each module of either is listed with its count in
OLD_DIR, its count in NEW_DIR (0 where it is missing) and the difference,
then the totals. The old tree can come from ``git archive REV src | tar -x
-C DIR``, which needs no network.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """Number of code lines in the Python file at ``path``."""
    source = Path(path).read_text(encoding="utf-8")
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _counts(package):
    """{module file name: code lines} of the package directory ``package``."""
    return {path.name: code_lines(path) for path in Path(package).glob("*.py")}


def main(argv):
    if len(argv) == 2:
        old, new = _counts(argv[0]), _counts(argv[1])
        for name in sorted(old.keys() | new.keys()):
            a, b = old.get(name, 0), new.get(name, 0)
            print(f"{a:6d} {b:6d} {b - a:+6d}  {name}")
        a, b = sum(old.values()), sum(new.values())
        print(f"{a:6d} {b:6d} {b - a:+6d}  total")
        return
    default = Path(__file__).resolve().parent.parent / "src" / "saddlesolve"
    counts = _counts(argv[0] if argv else default)
    for name in sorted(counts):
        print(f"{counts[name]:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
