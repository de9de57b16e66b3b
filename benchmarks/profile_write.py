"""Call profile of a delete-rederive write: what one derived fact costs,
and what one delta round costs.

Each case opens a :class:`~repro.db.session.DatabaseSession` over a chain
of ``e/2`` edges under the transitive closure ``tc/2`` and profiles
``PAIRS`` retract+insert pairs of writes:

* **mid-chain** (chain-``N``): retract one edge in the middle fifth, then
  re-insert it — a delta of about ``N * N / 4`` ``tc`` facts each way, in
  fat rounds;
* **leaf** (chain-``LEAF_N``): insert a leaf edge at the chain's tail,
  then retract it — about ``LEAF_N`` facts each way, one per round, the
  tail write of the ledger's ``tc-read`` workload.  Its cost is the
  per-round bookkeeping, not the joins.

For each case it prints the profile's total function calls, the calls
into the package (its modules and the plan functions it generates), and
the executor's fetches and candidates over the writes.  Only the writes
are profiled, not the session's first evaluation.

The run re-executes itself under ``PYTHONHASHSEED=0``, so the call counts
are those of one fixed string hash.  ``--check`` fails (exit status 1)
when a case's package calls exceed its budget (:data:`CALL_BUDGET`,
:data:`LEAF_CALL_BUDGET`); CI runs it so that a change making the per-fact
or the per-round path slower in calls has to say so here.

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

#: Chain lengths of the two cases, and the retract+insert pairs of each.
N = 100
LEAF_N = 200
PAIRS = 20

#: Ceiling on the package's calls over the mid-chain writes (``--check``):
#: 1 413 066 measured under CPython 3.11 (3.14 M calls in all), plus the
#: 9.2 % of room for interpreters that count a little more that the budget
#: has always had.  CPython 3.12 counts fewer, as it inlines comprehensions.
#: Before a delta round stopped building a store, a sources object and a
#: generator and stopped meeting the caps per head, the same writes made
#: 1 789 016 (3.72 M in all); before terms hashed by identity and carried
#: their indicator, about 6 M — with the same fetches and candidates
#: throughout.
CALL_BUDGET = 1_545_000

#: Ceiling on the package's calls over the leaf writes (``--check``):
#: 138 604 measured under CPython 3.11 (325 K in all), with the same room.
#: Before a delta round stopped building a store, a sources object and a
#: generator, the same writes made 267 544 (513 K in all).
LEAF_CALL_BUDGET = 151_500


def _program(n):
    edges = " ".join("e(p%d, p%d)." % (i, i + 1) for i in range(n))
    return "tc(X, Y) :- e(X, Y).  tc(X, Y) :- e(X, Z), tc(Z, Y).  " + edges


def _mid_chain_writes(session):
    positions = list(range(2 * N // 5, 3 * N // 5))
    random.Random(7).shuffle(positions)
    for position in positions[:PAIRS]:
        edge = "e(p%d, p%d)." % (position, position + 1)
        session.retract(edge)
        session.insert(edge)


def _leaf_writes(session):
    edge = "e(p%d, px0)." % LEAF_N
    for _pair in range(PAIRS):
        session.insert(edge)
        session.retract(edge)


#: ``(name, chain length, writes, budget)`` of each profiled case.
CASES = (
    ("mid-chain", N, _mid_chain_writes, CALL_BUDGET),
    ("leaf", LEAF_N, _leaf_writes, LEAF_CALL_BUDGET),
)


def _is_package(filename, package_dir):
    return filename.startswith(package_dir) or filename.startswith("<plan of ")


def profile(name, n, writes, budget, top):
    """Profile one case; return its package calls."""
    sys.path.insert(0, SRC)
    import repro
    from repro import DatabaseSession
    from repro.engine.seminaive import EXECUTION_STATS

    session = DatabaseSession(_program(n))
    before = EXECUTION_STATS.snapshot()
    profiler = cProfile.Profile()
    profiler.enable()
    writes(session)
    profiler.disable()
    work = EXECUTION_STATS.diff(before)
    assert session.check()

    # Counted per code object: ``pstats`` keys functions by file, line and
    # name, and the plan functions of one rule all share ``<plan of ...>``,
    # line 1 and ``run``, so it keeps one of them and drops the rest.
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    entries = profiler.getstats()
    total_calls = sum(entry.callcount for entry in entries)
    package_calls = sum(
        entry.callcount for entry in entries
        if _is_package(getattr(entry.code, "co_filename", ""), package_dir)
    )
    print("%s writes %d (%d pairs, chain-%d tc)" % (name, 2 * PAIRS, PAIRS, n))
    print("  total calls     %d" % total_calls)
    print("  package calls   %d (budget %d)" % (package_calls, budget))
    print("  fetches         %d" % work["fetches"])
    print("  candidates      %d" % work["candidates"])
    if top:
        pstats.Stats(profiler).sort_stats("ncalls").print_stats(top)
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
    failed = False
    for name, n, writes, budget in CASES:
        package_calls = profile(name, n, writes, budget, args.top)
        if args.check and package_calls > budget:
            print("FAIL: %s: %d package calls exceed the budget of %d"
                  % (name, package_calls, budget))
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
