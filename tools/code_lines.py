"""Count the physical lines of Python source that hold code.

A line counts when some token on it is code: comments, blank lines and
docstrings (a string literal that opens a module, class or function) do
not count.  Usage: python tools/code_lines.py PATH...  Each PATH is a
file or a directory searched for *.py files; prints one count per file,
then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, OWNERS) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


if __name__ == "__main__":
    files = sorted(f for arg in sys.argv[1:] for f in (
        Path(arg).rglob("*.py") if Path(arg).is_dir() else [Path(arg)]))
    counts = {f: code_lines(f.read_text()) for f in files}
    for f, n in counts.items():
        print(f"{n:6d}  {f}")
    print(f"{sum(counts.values()):6d}  total")
