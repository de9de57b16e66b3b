"""Call profile of a delete-rederive write — what one derived fact costs,
and what one delta round costs — of text to terms, and of a cold model
and a restore.

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

Two cases price the cold layers, where nearly every term is new and
construction (the intern miss path) is most of the cost.  Both take
``tc`` over a chain of ``COLD_N`` edges whose constants no other case
interns:

* **cold**: text to model through ``perfect_model_for_hilog(...,
  strategy="seminaive")`` — parse, compile and the first evaluation;
* **recovery**: ``DatabaseSession.open`` of a data directory holding that
  model's snapshot and a ``RECOVERY_TXNS``-transaction WAL tail — the
  snapshot decode and the replay, whose tail nets to nothing.  Set-up
  drops the session that wrote the directory and sweeps the intern
  tables, so the decode builds every term anew, as a restarted process
  does.

For each case it prints the profile's total function calls, the calls
into the package (its modules and the plan functions it generates), the
executor's fetches and candidates, and its intern misses: how much the
intern tables grew over the case.  Only what each case names is
profiled: the write cases' first evaluation is not.

The run re-executes itself under ``PYTHONHASHSEED=0``, so the call counts
are those of one fixed string hash.  ``--check`` fails (exit status 1)
when a case's package calls exceed its budget (:data:`CALL_BUDGET`,
:data:`LEAF_CALL_BUDGET`, :data:`PARSE_CALL_BUDGET`,
:data:`COLD_CALL_BUDGET`, :data:`RECOVERY_CALL_BUDGET`); CI runs it so
that a change making the per-fact path, the per-round path, the parser,
a cold evaluation or a restore slower in calls has to say so here.

    python benchmarks/profile_write.py [--check] [--top 20]
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import random
import shutil
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
#: 1 371 936 measured under CPython 3.11 (3.07 M calls in all), plus the
#: 9.2 % of room for interpreters that count a little more that the budget
#: has always had.  CPython 3.12 counts fewer, as it inlines comprehensions.
#: Before a new application took one trusted miss path, the same writes
#: made 1 405 836; before a write stopped opening an intern generation and
#: a new term stopped being recorded in one, 1 409 466; before the parser
#: read its text in one regular-expression scan, 1 413 026;
#: before a delta round stopped building a store, a sources object and a
#: generator and stopped meeting the caps per head, 1 789 016 (3.72 M in
#: all); before terms hashed by identity and carried their indicator,
#: about 6 M — with the same fetches and candidates throughout.
CALL_BUDGET = 1_499_000

#: Ceiling on the package's calls over the leaf writes (``--check``):
#: 130 302 measured under CPython 3.11 (308 K in all), with the same room.
#: Before the one miss path, the same writes made 134 321; before the
#: intern generations went, 134 964; before the one-scan parser, 138 564;
#: before a delta round stopped building a store, a sources object and a
#: generator, 267 544 (513 K in all).
LEAF_CALL_BUDGET = 143_000

#: Size of the parse case: clauses of its program, nodes of its game
#: graph, and short texts parsed after it.
PARSE_CLAUSES = 1001
PARSE_NODES = 200
PARSE_TEXTS = 1000

#: Ceiling on the package's calls over the parse case (``--check``):
#: 35 541 measured under CPython 3.11 (139 K in all), with the same room.
#: Before the parser built its applications through ``intern_app`` and the
#: one miss path, 51 961 (163 K in all); the character-at-a-time lexer and
#: the token-helper parser before the one-scan parser made 227 337 (567 K).
PARSE_CALL_BUDGET = 39_000

#: Chain length of the cold and recovery cases, the prefix of their
#: constants (which no other case interns, so every term they build is
#: new), and the writes the recovery case replays from the WAL.
COLD_N = 200
COLD_CONSTANT = "c"
RECOVERY_TXNS = 30

#: Ceiling on the package's calls over the cold case (``--check``):
#: 130 376 measured under CPython 3.11 (469 K in all), with the same room;
#: 333 176 (773 K in all) before the one miss path.
COLD_CALL_BUDGET = 143_000

#: Ceiling on the package's calls over the recovery case (``--check``):
#: 71 039 measured under CPython 3.11 (295 K in all), with the same room.
#: The case prices the snapshot decode, the WAL decode and the coercion of
#: its texts, and no maintenance: replay folds the tail, 15 insert/retract
#: pairs of one edge each, into one net batch that changes nothing.
#: 173 626 (583 K in all) when replay maintained each transaction;
#: 457 436 (938 K in all) before the one miss path and the snapshot
#: decoder's trusted constructor.
RECOVERY_CALL_BUDGET = 77_600


def _program(n, constant="p"):
    edges = " ".join("e(%s%d, %s%d)." % (constant, i, constant, i + 1)
                     for i in range(n))
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


def _cold():
    from repro import parse_program, perfect_model_for_hilog

    text = _program(COLD_N, COLD_CONSTANT)
    models = []

    def build():
        models.append(perfect_model_for_hilog(parse_program(text),
                                              strategy="seminaive"))
    return build, lambda: len(models[0].true) == COLD_N * (COLD_N + 3) // 2


def _recovery():
    import gc
    import tempfile

    from repro import DatabaseSession
    from repro.hilog.terms import collect_terms

    directory = os.path.join(tempfile.mkdtemp(prefix="profile-write-"), "db")
    session = DatabaseSession(_program(COLD_N, COLD_CONSTANT), path=directory,
                              fsync="off")
    for txn in range(RECOVERY_TXNS):
        edge = "e(%s%d, %sx%d)." % (COLD_CONSTANT, COLD_N, COLD_CONSTANT,
                                    txn // 2)
        if txn % 2:
            session.retract(edge)
        else:
            session.insert(edge)
    # A crash after the last commit: the WAL tail stays unreplayed.
    session.close(checkpoint=False)
    # The open that is profiled decodes terms that no longer exist.
    del session
    gc.collect()
    collect_terms()
    sessions = []

    def recover():
        sessions.append(DatabaseSession.open(directory, fsync="off"))

    def check():
        recovered = sessions[0]
        replayed = recovered.stats()["durability"]["replayed_txns"]
        recovered.close(checkpoint=False)
        shutil.rmtree(os.path.dirname(directory))
        return replayed == RECOVERY_TXNS
    return recover, check


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
    ("cold", "text to model, chain-%d tc" % COLD_N, _cold, COLD_CALL_BUDGET),
    ("recovery", "snapshot load and %d replayed writes, chain-%d tc"
     % (RECOVERY_TXNS, COLD_N), _recovery, RECOVERY_CALL_BUDGET),
)


def _is_package(filename, package_dir):
    return filename.startswith(package_dir) or filename.startswith("<plan of ")


def profile(name, what, run, budget, top):
    """Profile one call of ``run``; return its package calls."""
    import repro
    from repro.engine.seminaive import EXECUTION_STATS
    from repro.hilog.terms import intern_table_sizes

    before = EXECUTION_STATS.snapshot()
    interned = sum(intern_table_sizes().values())
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    work = EXECUTION_STATS.diff(before)
    misses = sum(intern_table_sizes().values()) - interned

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
    print("  intern misses   %d" % misses)
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
        del run, check  # a case's terms must not outlive it
        if args.check and package_calls > budget:
            print("FAIL: %s: %d package calls exceed the budget of %d"
                  % (name, package_calls, budget))
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
