#!/usr/bin/env python3
"""Code lines of each ``src/shadowosc`` module and their total.

A code line holds a token that is not a comment, and lies outside every
docstring (a module's, class's or function's first statement when that is
a string).  Blank lines, comment lines and docstring lines are left out; a
line of a multi-line string that is no docstring counts.  The tokens come
from ``tokenize`` and the docstrings from ``ast``.

Usage:
    python scripts/code_lines.py [CHECKOUT]

prints one line per module of CHECKOUT/src/shadowosc (default: this
checkout), ``<code lines>  <file name>``, then the total.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent

# tokens that make no line a code line by themselves
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, a module's text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?", default=CHECKOUT,
                        help="tree whose src/shadowosc is counted")
    args = parser.parse_args()
    total = 0
    for path in sorted((args.checkout / "src" / "shadowosc").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
