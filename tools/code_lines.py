"""Count the code lines of each module of src/perturba.

A code line holds at least one token that is not a comment, a line break,
an indent or a docstring.  A docstring is a string statement standing alone
at the head of a module, class or function body.  Run from anywhere:

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "perturba"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """Line numbers spanned by the docstrings of source."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of source that hold a code token."""
    docs = docstring_lines(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start[0] in docs:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:6}")
    print(f"{'total':16} {total:6}")


if __name__ == "__main__":
    main()
