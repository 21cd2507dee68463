"""Count the code lines of Python modules: lines that are not blank, comment
or docstring lines.

A line counts when a token other than a comment starts on it or runs
through it, unless that token is a docstring (the string that opens a
module, class or function body).  So a line holding code and a trailing
comment counts, and every line of a multi-line expression counts.

Usage: ``python tests/code_lines.py [PATH ...]`` prints the count of each
module under each PATH (a file or a directory, default ``src/fairtrade``)
and their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = body[0] if body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of lines of ``source`` that are not blank, comment or docstring lines."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _modules(path: Path) -> list:
    return sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv: list) -> int:
    total = 0
    for path in [Path(arg) for arg in argv] or [Path("src/fairtrade")]:
        for module in _modules(path):
            n = count_code_lines(module.read_text(encoding="utf-8"))
            print(f"{n:6d}  {module}")
            total += n
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
