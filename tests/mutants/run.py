"""The mutant gate: each mutant is a fault that one named test must catch.

    python tests/mutants/run.py             # every mutant
    python tests/mutants/run.py NAME ...    # the named ones (file stems)

A mutant is ``tests/mutants/<name>.patch``: a unified diff against the
repository root, preceded by a few lines that say what it breaks and, on a
``Killed-by:`` line, the pytest id of the test that must fail.  For each
mutant the runner copies ``src/`` and ``tests/`` into a temporary directory
— the tree itself is never patched — runs the test there (it must pass),
applies the patch with ``patch -p1`` and runs the test again (it must now
fail).  Each run gets :data:`TIMEOUT` seconds: a mutated run that takes
longer is killed (a mutant may make the code loop forever), an unmutated
one is a failure.  It prints one line per mutant and exits 1 unless every
mutant is killed.  A patch that no longer applies is a failure too:
refresh it against the code it mutates.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
_KILLED_BY = re.compile(r"^Killed-by: (\S+)$", re.MULTILINE)

#: Seconds one pytest run of a mutant's test may take.
TIMEOUT = 60


def _passes(copy, test):
    """Whether ``test`` passes in ``copy``: ``True``, ``False``,
    ``"timeout"`` when the run outlasted :data:`TIMEOUT`, or ``None`` when
    pytest did not run it to a verdict (no such test, a collection error)."""
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             test],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: True, 1: False}.get(completed.returncode)


def run_mutant(patch):
    """``(verdict, test)``: ``"killed"``, ``"killed (timed out)"`` or what
    went wrong instead."""
    found = _KILLED_BY.search(patch.read_text())
    if found is None:
        return "names no Killed-by test", None
    test = found.group(1)
    with tempfile.TemporaryDirectory(prefix="mutant-") as temporary:
        copy = Path(temporary)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        unmutated = _passes(copy, test)
        if unmutated == "timeout":
            return "its test timed out unmutated", test
        if not unmutated:
            return "its test does not pass unmutated", test
        applied = subprocess.run(
            ["patch", "-p1", "--batch", "--silent", "-d", str(copy),
             "-i", str(patch)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if applied.returncode:
            return "does not apply", test
        verdict = _passes(copy, test)
    if verdict is None:
        return "its test did not run", test
    if verdict == "timeout":
        return "killed (timed out)", test
    return ("SURVIVED" if verdict else "killed"), test


def main(argv=None):
    names = (argv if argv is not None else sys.argv[1:])
    patches = [HERE / ("%s.patch" % name) for name in names] if names \
        else sorted(HERE.glob("*.patch"))
    failed = 0
    for patch in patches:
        verdict, test = run_mutant(patch)
        failed += not verdict.startswith("killed")
        print("%-28s %s (%s)" % (patch.stem, verdict, test))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
