"""Line counts of the package's modules: total, code and docstring lines.

Run ``python tests/src_size.py`` from the repository root (or pass the root
as the one argument).  A line is a docstring line if a module, class or
function docstring spans it.  A line is a code line if a token other than a
comment, newline or indentation starts or spans it and it is not a docstring
line, so comments, blank lines and docstrings are left out.  pytest does not
collect this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def sizes(text: str) -> tuple[int, int, int]:
    """(total, code, docstring) lines of the Python source ``text``."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DEFINITIONS) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs), len(docs)


def main(root: str = ".") -> None:
    total = [0, 0, 0]
    print(f"{'module':<16}{'total':>7}{'code':>7}{'doc':>7}")
    for path in sorted(Path(root, "src", "sigmaflow").glob("*.py")):
        counts = sizes(path.read_text())
        total = [a + b for a, b in zip(total, counts)]
        print(f"{path.name:<16}" + "".join(f"{c:>7,}" for c in counts))
    print(f"{'src/':<16}" + "".join(f"{c:>7,}" for c in total))


if __name__ == "__main__":
    main(*sys.argv[1:])
