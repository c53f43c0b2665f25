"""Print the code, docstring and comment lines of each ``src/latsum`` module.

    python tests/source_lines.py

A docstring line is a line of a module, class or function docstring, as
``ast`` finds them.  A comment line holds a comment and no code; a code
line holds some token other than a comment, outside a docstring.  Blank
lines count in none of the three.  One line per module, then the totals.
Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latsum"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(text: str) -> tuple[int, int, int]:
    """(code, docstring, comment) lines of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstrings
    return len(code), len(docstrings), len(comments - code - docstrings)


def main() -> None:
    totals = [0, 0, 0]
    for path in sorted(SRC.glob("*.py")):
        counts = count(path.read_text())
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<16} code {counts[0]:>5,}  docstring {counts[1]:>5,}  comment {counts[2]:>4,}")
    print(f"{'total':<16} code {totals[0]:>5,}  docstring {totals[1]:>5,}  comment {totals[2]:>4,}")


if __name__ == "__main__":
    main()
