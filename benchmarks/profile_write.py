"""Call profile of a delete-rederive write: what one derived fact costs.

Opens a :class:`~repro.db.session.DatabaseSession` over a chain of ``N``
``e/2`` edges under the transitive closure ``tc/2``, then profiles
``PAIRS`` mid-chain writes, each a retract of one edge in the middle fifth
followed by its re-insert (a delta of about ``N * N / 4`` ``tc`` facts
each way).  It prints the profile's total function calls, the calls into
the package (its modules and the plan functions it generates), and the
executor's fetches and candidates over the writes.  Only the writes are
profiled, not the session's first evaluation.

The run re-executes itself under ``PYTHONHASHSEED=0``, so the call counts
are those of one fixed string hash.  ``--check`` fails (exit status 1)
when the package's calls exceed :data:`CALL_BUDGET`; CI runs it so that a
change making the per-fact path slower in calls has to say so here.

    python benchmarks/profile_write.py [--check] [--top 20]
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import random
import subprocess
import sys

#: The checkout's package, profiled in preference to an installed one.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

#: Chain length and retract+insert pairs of the profiled writes.
N = 100
PAIRS = 20

#: Ceiling on the package's calls over the profiled writes (``--check``):
#: 1.74 M measured under CPython 3.11 (3.67 M calls in all), plus room for
#: interpreters that count a little more.  CPython 3.12 counts fewer, as it
#: inlines comprehensions.  Before terms hashed by identity and carried
#: their indicator, the same writes made 5.95 M package calls (9.33 M in
#: all), with the same fetches and candidates.
CALL_BUDGET = 1_900_000


def _program():
    edges = " ".join("e(p%d, p%d)." % (i, i + 1) for i in range(N))
    return "tc(X, Y) :- e(X, Y).  tc(X, Y) :- e(X, Z), tc(Z, Y).  " + edges


def _writes(session):
    positions = list(range(2 * N // 5, 3 * N // 5))
    random.Random(7).shuffle(positions)
    for position in positions[:PAIRS]:
        edge = "e(p%d, p%d)." % (position, position + 1)
        session.retract(edge)
        session.insert(edge)


def _is_package(filename, package_dir):
    return filename.startswith(package_dir) or filename.startswith("<plan of ")


def profile(top):
    sys.path.insert(0, SRC)
    import repro
    from repro import DatabaseSession
    from repro.engine.seminaive import EXECUTION_STATS

    session = DatabaseSession(_program())
    before = EXECUTION_STATS.snapshot()
    profiler = cProfile.Profile()
    profiler.enable()
    _writes(session)
    profiler.disable()
    work = EXECUTION_STATS.diff(before)
    assert session.check()

    stats = pstats.Stats(profiler)
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    package_calls = sum(
        calls for (filename, _line, _name), (_prim, calls, *_rest)
        in stats.stats.items() if _is_package(filename, package_dir)
    )
    print("writes          %d (%d retract+insert pairs, chain-%d tc)"
          % (2 * PAIRS, PAIRS, N))
    print("total calls     %d" % stats.total_calls)
    print("package calls   %d (budget %d)" % (package_calls, CALL_BUDGET))
    print("fetches         %d" % work["fetches"])
    print("candidates      %d" % work["candidates"])
    if top:
        stats.sort_stats("ncalls").print_stats(top)
    return package_calls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the package's calls exceed the budget")
    parser.add_argument("--top", type=int, default=0,
                        help="also print the N most-called functions")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.call([sys.executable] + sys.argv, env=env)
    package_calls = profile(args.top)
    if args.check and package_calls > CALL_BUDGET:
        print("FAIL: %d package calls exceed the budget of %d"
              % (package_calls, CALL_BUDGET))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
