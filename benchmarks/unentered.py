"""Which ``src/repro`` definitions does a pytest run never enter?

    PYTHONPATH=src python benchmarks/unentered.py [PYTEST ARGS ...]

runs pytest in this process from the repository root (the arguments
default to the whole suite) under a call-only tracer, then prints every
``def`` in ``src/repro`` whose code object no call entered, one
``path:line qualified.name`` line each, and their count.

The tracer is armed again, for this thread and for threads started later,
before each test's setup, call and teardown: Hypothesis clears the global
tracer, and a tracer armed once goes blind after the first property test.
It records ``call`` events only and traces no line, so the run costs about
twice the suite's time; it is a probe, not part of tier-1.  Code that runs
only in a child process (the CLI's subprocess tests, the mutant gate)
counts as not entered.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

Site = Tuple[str, int]


class _CallProbe:
    """A pytest plugin that records every code object a call enters."""

    def __init__(self) -> None:
        self.entered: Set[object] = set()

    def _trace(self, frame, event, _arg):
        if event == "call":
            self.entered.add(frame.f_code)
        # No local tracer: lines, returns and exceptions cost nothing.

    def arm(self) -> None:
        sys.settrace(self._trace)
        threading.settrace(self._trace)

    def disarm(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item):
        self.arm()

    def sites(self) -> Set[Site]:
        return {(os.path.realpath(code.co_filename), code.co_firstlineno)
                for code in self.entered}


def definitions(package: Path) -> Dict[Site, str]:
    """Every ``def`` under ``package``: (file, first line) -> qualified
    name.  A decorated function's code starts at its first decorator."""
    found: Dict[Site, str] = {}
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        filename = os.path.realpath(str(path))
        stack: List[Tuple[ast.AST, str]] = [(ast.parse(path.read_text()), module)]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno for decorator
                                                  in child.decorator_list])
                    found[(filename, first)] = prefix + "." + child.name
                    stack.append((child, prefix + "." + child.name))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, prefix + "." + child.name))
                else:
                    stack.append((child, prefix))
    return found


def main(argv: List[str]) -> int:
    os.chdir(ROOT)
    probe = _CallProbe()
    probe.arm()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider"] + argv,
                             plugins=[probe])
    finally:
        probe.disarm()
    entered = probe.sites()
    missed = sorted((site, name) for site, name in definitions(PACKAGE).items()
                    if site not in entered)
    for (filename, line), name in missed:
        print("%s:%d %s" % (os.path.relpath(filename, ROOT), line, name))
    print("%d definitions never entered (pytest exit status %d)"
          % (len(missed), status))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
