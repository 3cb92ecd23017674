"""Count the lines of each module of src/dgocp: all lines, and code lines.

A code line holds at least one token that is neither a comment nor part of
a docstring (of a module, class or function), so blank, comment-only and
docstring lines are not code.  Standard library only; run from anywhere:

    python tools/code_size.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dgocp"
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers taken by the docstrings of the module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python source."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, len(source.splitlines()), code_lines(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, total, code in rows:
        print(f"{name:<16}{total:>7}{code:>7}")


if __name__ == "__main__":
    main()
