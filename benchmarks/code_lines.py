"""The ROADMAP's "code lines" metric: physical lines carrying a token other
than a comment, newline or indentation, minus module/class/function
docstring lines.

    python benchmarks/code_lines.py [ROOT]      # default: src/repro

prints one line per top-level package under ROOT and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, Set

_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _BLANK:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def package_totals(root: Path) -> Dict[str, int]:
    """Code lines per top-level package (``.`` for modules directly in ``root``)."""
    totals: Dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        package = relative.parts[0] if len(relative.parts) > 1 else "."
        totals[package] = totals.get(package, 0) + code_lines(path.read_text())
    return totals


if __name__ == "__main__":
    totals = package_totals(Path(sys.argv[1] if len(sys.argv) > 1 else "src/repro"))
    for package, count in sorted(totals.items()):
        print("%-12s %6d" % (package, count))
    print("%-12s %6d" % ("total", sum(totals.values())))
