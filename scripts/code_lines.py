#!/usr/bin/env python3
"""Count the code lines of a package: the figure the project's notes quote.

A code line is a line that holds a token other than a comment, a newline
or indentation, as Python's ``tokenize`` reads the source; a token over
several lines (a triple-quoted string) holds each of them. The lines of
module, class and function docstrings are then taken out, so a line
counts for what it does, not for what it says. Blank lines, comments and
docstrings change no count.

    python3 scripts/code_lines.py               # every module of src/adabloom
    python3 scripts/code_lines.py path/to/pkg   # or of another directory

Prints one line per module, in path order, and the total last.
"""

import ast
import io
import pathlib
import sys
import tokenize

# tokens that hold no code
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "adabloom"


def docstring_lines(source: str) -> set[int]:
    """The 1-based lines of the module, class and function docstrings of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of ``source``: lines holding a code token, less its docstrings."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    package = pathlib.Path(argv[0]) if argv else _PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
