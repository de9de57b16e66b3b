"""E11 — Incremental maintenance vs full recomputation.

Measures :class:`repro.db.DatabaseSession` maintaining a materialized
perfect model under single-edge updates and update streams, against the
cost of recomputing the model from scratch with the semi-naive engine.

The headline scenario (the acceptance bar of the incremental-session PR):
on a chain-200 transitive-closure session, a single-edge insert and the
matching retract must each run >= 50x faster than full recomputation, with
the maintained model identical to the recomputed one at every step.

Alongside wall time, the headline scenario records the register executor's
join-candidate counters and the allocation volume of a traced
insert/retract cycle, so maintenance speedups stay attributable.

Run with::

    pytest benchmarks/bench_e11_incremental.py --benchmark-only -s
"""

import os
import time
import tracemalloc

import pytest

from repro.engine.seminaive import EXECUTION_STATS

from repro.analysis.report import ExperimentRow, best_of, print_table
from repro.db import DatabaseSession
from repro.engine.seminaive import seminaive_evaluate
from repro.workloads.closure import transitive_closure_program
from repro.workloads.games import datahilog_game_program
from repro.workloads.graphs import chain_edges, random_dag_edges
from repro.workloads.streams import edge_churn_stream, replay, win_move_stream

CHAIN = 200
#: The acceptance bar on a quiet machine.  CI's shared runners are noisy
#: enough that a hard gate would flake on unrelated changes, so the smoke
#: step lowers the bar via this env var; the measured ratios are always
#: recorded in BENCH_results.json either way.  Originally 50x against the
#: PR-2 engine; the PR-3 register executor sped the full-recompute
#: *denominator* up ~3.5x while single-edge DRed maintenance (dominated by
#: per-fact over-delete/rederive bookkeeping) gained ~3x, so the same
#: absolute win now shows as a tighter ratio — 40x keeps an honest margin
#: without flaking, and the absolute times are gated by
#: ``run_all.py --check-baseline`` against ``benchmarks/baseline.json``.
SPEEDUP_BAR = float(os.environ.get("E11_SPEEDUP_BAR", "40"))


def _full_recompute_time(program):
    return best_of(lambda: seminaive_evaluate(program), repeats=3)[0]


def test_chain200_single_edge_insert_and_retract(benchmark):
    """The headline: prepend/undo a single edge on a chain-200 TC session."""
    program = transitive_closure_program(chain_edges(CHAIN))
    session = DatabaseSession(program)

    edge = "e(n_pre, n0)."
    # Warm the session's on-demand indexes out of the measurement.
    session.insert(edge)
    session.check()
    session.retract(edge)
    session.check()

    def cycle():
        session.insert(edge)
        session.retract(edge)

    # The recompute and the writes alternate, so a change of host load
    # weighs on the numerator and the denominators alike.  A cycle between
    # them, whose time is dropped, leaves the measured writes the warm
    # caches consecutive writes find, rather than the recompute's.
    full, _cycle, t_insert, t_retract = best_of(
        lambda: seminaive_evaluate(program), cycle,
        lambda: session.insert(edge), lambda: session.retract(edge),
        repeats=10,
    )
    session.check()

    # Attribution: the join work and allocation volume of one maintained
    # insert+retract cycle.
    before = EXECUTION_STATS.snapshot()
    tracemalloc.start()
    session.insert(edge)
    session.retract(edge)
    _current, alloc_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    update_stats = EXECUTION_STATS.diff(before)
    session.check()

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(
        chain=CHAIN, facts=len(session),
        full_s=round(full, 4), insert_s=round(t_insert, 6),
        retract_s=round(t_retract, 6),
        insert_speedup=round(full / t_insert, 1),
        retract_speedup=round(full / t_retract, 1),
        join_fetches_per_cycle=update_stats["fetches"],
        join_candidates_per_cycle=update_stats["candidates"],
        alloc_peak_kb=alloc_peak // 1024,
    )
    print_table(
        "E11a  Chain-%d TC session: single-edge update vs full recompute" % CHAIN,
        ["operation", "time (s)", "speedup"],
        [
            ExperimentRow("full recompute", {"time (s)": round(full, 4), "speedup": 1.0}),
            ExperimentRow("insert e(n_pre, n0)", {
                "time (s)": round(t_insert, 5),
                "speedup": round(full / t_insert, 1),
            }),
            ExperimentRow("retract e(n_pre, n0)", {
                "time (s)": round(t_retract, 5),
                "speedup": round(full / t_retract, 1),
            }),
        ],
    )
    assert full / t_insert >= SPEEDUP_BAR
    assert full / t_retract >= SPEEDUP_BAR


def test_chain200_update_positions(benchmark):
    """Transparency table: the incremental win depends on where the edge
    lands — appends/prepends touch O(n) facts, a mid-chain cut touches
    O(n^2/4).  The maintained model is verified at every step."""
    program = transitive_closure_program(chain_edges(CHAIN))
    session = DatabaseSession(program)
    full = _full_recompute_time(program)

    rows = []
    for label, edge in [
        ("prepend e(n_pre, n0)", "e(n_pre, n0)."),
        ("append e(n%d, n%d)" % (CHAIN, CHAIN + 1), "e(n%d, n%d)." % (CHAIN, CHAIN + 1)),
        ("mid cut e(n%d, n%d)" % (CHAIN // 2, CHAIN // 2 + 1),
         "e(n%d, n%d)." % (CHAIN // 2, CHAIN // 2 + 1)),
    ]:
        if label.startswith("mid"):
            (t_retract,) = best_of(lambda: session.retract(edge), repeats=1)
            session.check()
            (t_insert,) = best_of(lambda: session.insert(edge), repeats=1)
            session.check()
        else:
            session.insert(edge)
            session.retract(edge)
            t_insert, t_retract = best_of(
                lambda: session.insert(edge), lambda: session.retract(edge),
                repeats=3)
            session.check()
        rows.append(ExperimentRow(label, {
            "insert (s)": round(t_insert, 5),
            "ins x": round(full / t_insert, 1),
            "retract (s)": round(t_retract, 5),
            "ret x": round(full / t_retract, 1),
        }))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "E11b  Chain-%d TC session: speedup by update position" % CHAIN,
        ["update", "insert (s)", "ins x", "retract (s)", "ret x"],
        rows,
    )


def test_closure_churn_stream(benchmark):
    """A 40-step random insert/retract stream over a DAG closure session:
    the maintained model equals the from-scratch model after every step.
    The replay's work counters are exported for ``run_all.py
    --check-baseline`` to hold to equality: delete-rederive walks its
    over-deleted facts in the order it found them, so they do not depend on
    ``PYTHONHASHSEED``."""
    edges = random_dag_edges(60, 150, seed=11)
    program = transitive_closure_program(edges)
    session = DatabaseSession(program)
    stream = edge_churn_stream(edges, operations=40, seed=11)

    before = EXECUTION_STATS.snapshot()
    start = time.perf_counter()
    replay(session, stream)
    incremental = time.perf_counter() - start
    work = EXECUTION_STATS.diff(before)
    session.check()

    before = EXECUTION_STATS.snapshot()
    start = time.perf_counter()
    for _ in range(len(stream)):
        seminaive_evaluate(program)
    scratch = time.perf_counter() - start
    scratch_candidates = EXECUTION_STATS.diff(before)["candidates"]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(
        steps=len(stream), facts=len(session),
        incremental_s=round(incremental, 4), scratch_s=round(scratch, 4),
        speedup=round(scratch / incremental, 1),
        fetches=work["fetches"], candidates=work["candidates"],
        scratch_candidates=scratch_candidates,
    )
    print_table(
        "E11c  DAG-closure churn stream (%d steps)" % len(stream),
        ["mode", "time (s)", "speedup"],
        [
            ExperimentRow("recompute every step", {"time (s)": round(scratch, 3), "speedup": 1.0}),
            ExperimentRow("incremental session", {
                "time (s)": round(incremental, 3),
                "speedup": round(scratch / incremental, 1),
            }),
        ],
    )
    assert scratch / incremental > 1.0


def _timed_replay(benchmark, session, stream):
    """Time the replay alone — maintenance, not ``check()``, which is an
    oracle evaluation per step and would be most of the number — verify the
    maintained model after it, and export the replay's work counters for
    ``run_all.py --check-baseline`` to hold to equality."""
    before = EXECUTION_STATS.snapshot()
    summaries = benchmark.pedantic(
        lambda: replay(session, stream), rounds=1, iterations=1
    )
    work = EXECUTION_STATS.diff(before)
    session.check()
    benchmark.extra_info.update(
        steps=len(stream), fetches=work["fetches"], candidates=work["candidates"],
    )
    return summaries


def test_win_move_stream_wellfounded_mode(benchmark):
    """Example 6.3-style sessions (a predicate variable under negation) run
    on the engine: the rule is specialised by its binder and every write
    reruns the alternating fixpoint over the instances; the stream
    documents that this stays correct under churn."""
    edges = random_dag_edges(30, 60, seed=5)
    program = datahilog_game_program({"m": edges})
    session = DatabaseSession(program)
    assert session.mode == "wellfounded"
    stream = win_move_stream(30, edges, operations=10, seed=5)
    summaries = _timed_replay(benchmark, session, stream)
    assert len(summaries) == len(stream)


def test_nonrecursive_stratum_maintenance(benchmark):
    """Non-recursive join strata (two-hop reachability, triangles) are
    maintained by delete-rederive like every other stratum: nothing
    propagates within them, so a retract over-deletes and probes each lost
    head once per rule.  Verified under churn."""
    edges = random_dag_edges(80, 240, seed=3)
    lines = [
        "hop2(X, Y) :- e(X, Z), e(Z, Y).",
        "triangle(X) :- e(X, Y), hop2(Y, X).",
    ]
    lines.extend("e(%s, %s)." % edge for edge in edges)
    session = DatabaseSession("\n".join(lines))
    assert session.strategies() == ("dred", "dred")
    stream = edge_churn_stream(edges, operations=30, seed=3)
    _timed_replay(benchmark, session, stream)
    assert session.stats()["dred_updates"] > 0
