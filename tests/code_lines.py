"""Count the code lines of the package: docstrings, comments and blank lines excluded.

A line counts when it holds a token other than a comment or a line break
(``tokenize``), and lies outside every module, class and function docstring
(``ast`` spans).  Run from the repository root:

    python tests/code_lines.py          # total over src/
    python tests/code_lines.py -v       # one line per file, then the total
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(text: str) -> set[int]:
    """The line numbers of every module, class and function docstring in ``text``."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold code (module docstring)."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(text))


def count(root: Path = SRC) -> dict[str, int]:
    """Code lines per ``.py`` file under ``root``, by path relative to it."""
    return {str(p.relative_to(root)): code_lines(p.read_text()) for p in sorted(root.rglob("*.py"))}


if __name__ == "__main__":
    per_file = count()
    if "-v" in sys.argv[1:]:
        for name, n in per_file.items():
            print(f"{n:6d}  {name}")
    print(f"{sum(per_file.values()):6d}  src/ code lines")
