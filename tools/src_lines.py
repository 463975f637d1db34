"""Count the lines of each module under src/: by ``wc -l`` and as code lines.

A code line is a physical line that holds part of a token other than a
comment, a line break, an indent, or a docstring.  A docstring is a string
statement that opens a module, class or function body, so docstrings,
comments and blank lines are left out, and a statement spanning lines
counts each line it covers.

    python tools/src_lines.py [ROOT]

prints one line per module, ``<wc -l> <code lines> <path>``, then the
totals; ROOT defaults to the repo's src/.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines each docstring in the module spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(wc -l, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in docs)
    return source.count("\n"), len(code)


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    total_lines = total_code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text())
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{lines:6d} {code:6d} {path.relative_to(root)}")
    print(f"{total_lines:6d} {total_code:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
