"""Count the lines of the Python sources under a tree (src/ by default).

Raw lines are every line of every .py file. Code lines are the non-blank
lines that are not comment-only and not inside a docstring: the first
statement of a module, class or function when it is a string literal.

    python tools/loc.py [directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of tree span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one file's source."""
    text = source.splitlines()
    covered: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            covered.update(range(token.start[0], token.end[0] + 1))
    covered -= docstring_lines(ast.parse(source))
    return len(text), sum(1 for i in covered if text[i - 1].strip())


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src")
    raw = code = 0
    for path in sorted(root.rglob("*.py")):
        r, c = count(path.read_text(encoding="utf-8"))
        raw, code = raw + r, code + c
    print("%s: %d raw lines, %d code lines" % (root, raw, code))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
