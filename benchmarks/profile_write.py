"""Call profile of a delete-rederive write — what one derived fact costs,
and what one delta round costs — and of text to terms.

The two write cases open a :class:`~repro.db.session.DatabaseSession`
over a chain of ``e/2`` edges under the transitive closure ``tc/2`` and
profile ``PAIRS`` retract+insert pairs of writes:

* **mid-chain** (chain-``N``): retract one edge in the middle fifth, then
  re-insert it — a delta of about ``N * N / 4`` ``tc`` facts each way, in
  fat rounds;
* **leaf** (chain-``LEAF_N``): insert a leaf edge at the chain's tail,
  then retract it — about ``LEAF_N`` facts each way, one per round, the
  tail write of the ledger's ``tc-read`` workload.  Its cost is the
  per-round bookkeeping, not the joins.

The third case, **parse**, profiles the parser alone: a
``PARSE_CLAUSES``-clause program of the ledger's ``game-wf`` shape (the
win/move rule and ``move/2`` facts over ``PARSE_NODES`` nodes), then
``PARSE_TEXTS`` short texts, half of them through ``parse_query`` and
half through ``parse_term``, as reads parse theirs.  Every write parses
its fact as well, so the write cases count the parser too.

For each case it prints the profile's total function calls, the calls
into the package (its modules and the plan functions it generates), and
the executor's fetches and candidates.  Only the writes and the parses
are profiled, not the session's first evaluation.

The run re-executes itself under ``PYTHONHASHSEED=0``, so the call counts
are those of one fixed string hash.  ``--check`` fails (exit status 1)
when a case's package calls exceed its budget (:data:`CALL_BUDGET`,
:data:`LEAF_CALL_BUDGET`, :data:`PARSE_CALL_BUDGET`); CI runs it so that
a change making the per-fact path, the per-round path or the parser
slower in calls has to say so here.

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
#: 1 405 916 measured under CPython 3.11 (3.12 M calls in all), plus the
#: 9.2 % of room for interpreters that count a little more that the budget
#: has always had.  CPython 3.12 counts fewer, as it inlines comprehensions.
#: Before a write stopped opening an intern generation and a new term
#: stopped being recorded in one, the same writes made 1 409 466; before
#: the parser read its text in one regular-expression scan, 1 413 026;
#: before a delta round stopped building a store, a sources object and a
#: generator and stopped meeting the caps per head, 1 789 016 (3.72 M in
#: all); before terms hashed by identity and carried their indicator,
#: about 6 M — with the same fetches and candidates throughout.
CALL_BUDGET = 1_536_000

#: Ceiling on the package's calls over the leaf writes (``--check``):
#: 134 401 measured under CPython 3.11 (314 K in all), with the same room.
#: Before the intern generations went the same writes made 134 964; before
#: the one-scan parser, 138 564; before a delta round stopped building a
#: store, a sources object and a generator, 267 544 (513 K in all).
LEAF_CALL_BUDGET = 147_000

#: Size of the parse case: clauses of its program, nodes of its game
#: graph, and short texts parsed after it.
PARSE_CLAUSES = 1001
PARSE_NODES = 200
PARSE_TEXTS = 1000

#: Ceiling on the package's calls over the parse case (``--check``):
#: 51 961 measured under CPython 3.11 (163 K in all), with the same room.
#: The character-at-a-time lexer and the token-helper parser before the
#: one-scan parser made 227 337 (567 K in all).
PARSE_CALL_BUDGET = 56_750


def _program(n):
    edges = " ".join("e(p%d, p%d)." % (i, i + 1) for i in range(n))
    return "tc(X, Y) :- e(X, Y).  tc(X, Y) :- e(X, Z), tc(Z, Y).  " + edges


def _mid_chain():
    from repro import DatabaseSession

    session = DatabaseSession(_program(N))
    positions = list(range(2 * N // 5, 3 * N // 5))
    random.Random(7).shuffle(positions)

    def writes():
        for position in positions[:PAIRS]:
            edge = "e(p%d, p%d)." % (position, position + 1)
            session.retract(edge)
            session.insert(edge)
    return writes, session.check


def _leaf():
    from repro import DatabaseSession

    session = DatabaseSession(_program(LEAF_N))
    edge = "e(p%d, px0)." % LEAF_N

    def writes():
        for _pair in range(PAIRS):
            session.insert(edge)
            session.retract(edge)
    return writes, session.check


def _parse():
    from repro import parse_program, parse_query, parse_term

    rng = random.Random(7)
    moves = ["move(g%d, g%d)." % (rng.randrange(PARSE_NODES),
                                  rng.randrange(PARSE_NODES))
             for _ in range(PARSE_CLAUSES - 1)]
    text = "\n".join(["winning(X) :- move(X, Y), not winning(Y)."] + moves)
    queries = ["move(g%d, X)" % i for i in range(PARSE_TEXTS // 2)]
    terms = ["winning(g%d)" % i for i in range(PARSE_TEXTS // 2)]

    def parses():
        parse_program(text)
        for query, term in zip(queries, terms):
            parse_query(query)
            parse_term(term)
    return parses, lambda: len(parse_program(text).rules) == PARSE_CLAUSES


#: ``(name, what is profiled, case, budget)`` of each profiled case; a
#: case sets up what it needs and returns the callable to profile and a
#: check of the result.
CASES = (
    ("mid-chain", "40 writes (20 pairs, chain-%d tc)" % N, _mid_chain,
     CALL_BUDGET),
    ("leaf", "40 writes (20 pairs, chain-%d tc)" % LEAF_N, _leaf,
     LEAF_CALL_BUDGET),
    ("parse", "a %d-clause move/2 program, then %d queries and terms"
     % (PARSE_CLAUSES, PARSE_TEXTS), _parse, PARSE_CALL_BUDGET),
)


def _is_package(filename, package_dir):
    return filename.startswith(package_dir) or filename.startswith("<plan of ")


def profile(name, what, run, budget, top):
    """Profile one call of ``run``; return its package calls."""
    import repro
    from repro.engine.seminaive import EXECUTION_STATS

    before = EXECUTION_STATS.snapshot()
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    work = EXECUTION_STATS.diff(before)

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
    print("%s: %s" % (name, what))
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
    sys.path.insert(0, SRC)
    failed = False
    for name, what, case, budget in CASES:
        run, check = case()
        package_calls = profile(name, what, run, budget, args.top)
        assert check(), name
        if args.check and package_calls > budget:
            print("FAIL: %s: %d package calls exceed the budget of %d"
                  % (name, package_calls, budget))
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
