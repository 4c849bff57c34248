"""Line counts of ``src/cpelab``: every line, and the code lines alone.

Run from anywhere with ``python3 tools/loc.py``; it takes no options.  For
each ``src/cpelab/*.py`` it prints the file's lines and its code lines,
then the totals.  A code line holds a token other than a comment and is
not inside a module, class or function docstring, so blank lines, lines
that are only a comment and docstrings do not count.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "cpelab")

#: Tokens that do not make a line a code line.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
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


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of a module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main() -> int:
    totals = [0, 0]
    print(f"{'lines':>6} {'code':>6}  file")
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as f:
            counts = count(f.read())
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{counts[0]:6d} {counts[1]:6d}  {os.path.basename(path)}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
