"""E14 — Concurrent serving: snapshot-isolated readers over a churning model.

The serving subsystem (:mod:`repro.serve`) must deliver the paper's
"efficient query answering" to *concurrent* callers: readers pin immutable
epochs while one writer thread coalesces queued updates into batched
maintenance passes.  Three rows:

* **E14a — consistency under churn.**  Four reader threads hammer
  ``tc(n0, X)`` over a chain-200 transitive-closure session while the
  writer streams edge rewires (each batch detours one chain edge through a
  fresh node, or restores it — every *consistent* snapshot therefore keeps
  all 200 chain nodes reachable from ``n0``).  Every answer set is checked
  three ways: the reachability invariant (a torn half-batch view breaks
  the chain), agreement with the per-epoch oracle captured at publication,
  and epoch stability (re-querying the same pinned epoch after further
  writer batches must answer identically).  The acceptance gate is **zero
  violations**; queries/sec and p50/p99 latency are recorded (``*_ms``
  keys — latency tails are too noisy for the ``*_s`` baseline gate).
* **E14b — writer batching (the ≥``E14_BATCH_BAR``x gate, default 2x).**
  The same rewire workload is driven through the write queue twice: with
  ``max_batch=1`` (one maintenance pass per op — the no-coalescing
  baseline) and ``max_batch=64`` (the queue drains into one merged pass).
  The rewires touch distinct edges, so coalescing cannot cheat by netting
  ops away; the win is one DRed delta propagation over 24 edge changes
  instead of 24 propagations of one change each.
* **E14c — read-path work counts.**  What one ``tc(n150, X)`` read (query
  plus rendering every answer, as ``POST /query`` does) costs in
  machine-independent units: runs of the uncached term printer on the
  first query (one per answer — every interned term is rendered once, its
  text kept in the term's slot) and on a repeated one (none), and calls of
  the general matcher (none: the pattern is linear, so
  ``matching_facts`` tests identity at the ground position).
  ``run_all.py --check-baseline`` holds the counts to the baseline exactly,
  like ``fetches`` / ``candidates``.

Run with::

    pytest benchmarks/bench_e14_serving.py --benchmark-only -s
"""

import os
import threading
import time

from unittest import mock

from repro.analysis.report import ExperimentRow, print_table
from repro.engine.seminaive import relation
from repro.hilog import pretty
from repro.hilog.terms import App
from repro.serve import ServingSession
from repro.workloads.closure import transitive_closure_program
from repro.workloads.graphs import chain_edges

#: Machine-independent acceptance bar for E14b (both sides are measured in
#: the same process on the same workload, so the ratio is robust to the
#: machine; CI relaxes it for shared-runner noise like E11's/E13's).
BATCH_BAR = float(os.environ.get("E14_BATCH_BAR", "2"))

CHAIN = 200
READERS = 4


def _rewire(position, detour):
    """Insert a 2-edge detour for chain edge ``position`` and retract the
    direct edge — reachability-preserving when applied atomically."""
    return (
        ["e(n%d, %s). e(%s, n%d)." % (position, detour, detour, position + 1)],
        ["e(n%d, n%d)." % (position, position + 1)],
    )


def _restore(position, detour):
    inserts, retracts = _rewire(position, detour)
    return retracts, inserts


def _percentile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


class _Reader(threading.Thread):
    """Queries the serving session in a loop, verifying every answer set."""

    def __init__(self, serving, oracle, chain_nodes, stop):
        super().__init__(daemon=True)
        self.serving = serving
        self.oracle = oracle
        self.chain_nodes = chain_nodes
        self.stop = stop
        self.latencies = []
        self.violations = []
        self.stability_checks = 0

    def run(self):
        while not self.stop.is_set():
            start = time.perf_counter()
            with self.serving.reader() as reader:
                eid = reader.eid
                answers = frozenset(map(str, reader.query("tc(n0, X)")))
                self.latencies.append(time.perf_counter() - start)
                # 1. reachability invariant: every consistent snapshot keeps
                #    the whole chain reachable — a torn view loses a suffix
                reached = {text[len("tc(n0, "):-1] for text in answers}
                if not self.chain_nodes <= reached:
                    self.violations.append(
                        ("invariant", eid, sorted(self.chain_nodes - reached)[:3]))
                # 2. per-epoch oracle agreement
                expected = self.oracle.get(eid)
                if expected is not None and answers != expected:
                    self.violations.append(("oracle", eid))
                # 3. epoch stability: the pinned epoch must answer
                #    identically however much the writer publishes meanwhile
                again = frozenset(map(str, reader.query("tc(n0, X)")))
                if again != answers:
                    self.violations.append(("torn", eid))
                self.stability_checks += 1


def test_consistency_under_churn(benchmark):
    """E14a: four readers, zero consistency violations, latency recorded."""
    serving = ServingSession(transitive_closure_program(chain_edges(CHAIN)),
                             max_batch=16, max_pending=4096)
    chain_nodes = {"n%d" % i for i in range(1, CHAIN + 1)}
    oracle = {}

    def record(epoch, _summary):
        from repro.core.magic.evaluate import answer_from_store
        from repro.hilog.parser import parse_query
        from repro.hilog.program import Literal
        from repro.hilog.terms import Term

        query = parse_query("tc(n0, X)")
        if isinstance(query, Term):
            query = (Literal(query),)
        else:
            query = tuple(query)
        oracle[epoch.eid] = frozenset(
            map(str, answer_from_store(epoch.store, query).answers))

    try:
        with serving.reader() as reader:  # seed the oracle with epoch 0
            oracle[reader.eid] = frozenset(
                map(str, reader.query("tc(n0, X)")))
        serving.add_publish_hook(record)

        stop = threading.Event()
        readers = [_Reader(serving, oracle, chain_nodes, stop)
                   for _ in range(READERS)]
        churn_start = time.perf_counter()
        for worker in readers:
            worker.start()
        for k in range(20):
            position, detour = (k * 9) % (CHAIN - 1), "d%d" % k
            inserts, retracts = _rewire(position, detour)
            serving.submit(inserts=inserts, retracts=retracts)
            inserts, retracts = _restore(position, detour)
            serving.submit(inserts=inserts, retracts=retracts)
        serving.flush(120)
        churn_s = time.perf_counter() - churn_start
        time.sleep(0.02)
        stop.set()
        for worker in readers:
            worker.join(30)
            assert not worker.is_alive()

        violations = [v for worker in readers for v in worker.violations]
        latencies = [s for worker in readers for s in worker.latencies]
        queries = len(latencies)
        stats = serving.stats()
        assert serving.session.check()  # served model == from-scratch model
    finally:
        serving.close()

    assert violations == [], violations[:5]
    assert queries > 0 and all(w.stability_checks > 0 for w in readers)
    qps = queries / churn_s
    p50_ms = _percentile(latencies, 0.50) * 1000.0
    p99_ms = _percentile(latencies, 0.99) * 1000.0
    benchmark.extra_info.update({
        "readers": READERS,
        "queries": queries,
        "qps": round(qps, 1),
        "query_p50_ms": round(p50_ms, 3),
        "query_p99_ms": round(p99_ms, 3),
        "violations": len(violations),
        "epochs_published": stats["epochs"]["published"],
        "rebases": stats["epochs"]["rebases"],
        "batches": stats["batches"],
        "churn_s": round(churn_s, 4),
    })
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "E14a  Snapshot-isolated serving under churn (chain-%d, %d readers)"
        % (CHAIN, READERS),
        ["workload", "queries", "qps", "p50 (ms)", "p99 (ms)", "epochs",
         "batches", "violations"],
        [ExperimentRow("rewire churn x40", {
            "queries": queries,
            "qps": round(qps, 1),
            "p50 (ms)": round(p50_ms, 2),
            "p99 (ms)": round(p99_ms, 2),
            "epochs": stats["epochs"]["published"],
            "batches": stats["batches"],
            "violations": len(violations),
        })],
    )


def _drive_batched(operations, max_batch):
    """Queue every op while paused, then time resume → drain."""
    serving = ServingSession(transitive_closure_program(chain_edges(CHAIN)),
                             max_batch=max_batch, max_pending=4096)
    try:
        serving.pause()
        futures = [serving.submit(inserts=ins, retracts=rem)
                   for ins, rem in operations]
        start = time.perf_counter()
        serving.resume()
        serving.flush(300)
        elapsed = time.perf_counter() - start
        assert all(future.done() for future in futures)
        # every chain node still reachable (now through its detour)
        answers = serving.query("tc(n0, X)")
        assert len(answers) >= CHAIN
        assert serving.session.check()
        return elapsed, serving.stats()["batches"]
    finally:
        serving.close()


def test_writer_batching_speedup(benchmark):
    """E14b: coalesced maintenance beats per-op maintenance ≥BATCH_BAR x."""
    operations = [_rewire((k * 8) % (CHAIN - 1), "d%d" % k)
                  for k in range(24)]
    unbatched_s, unbatched_batches = _drive_batched(operations, max_batch=1)
    batched_s, batched_batches = _drive_batched(operations, max_batch=64)
    assert unbatched_batches == len(operations)
    assert batched_batches < unbatched_batches

    speedup = unbatched_s / batched_s
    benchmark.extra_info.update({
        "operations": len(operations),
        "unbatched_s": round(unbatched_s, 4),
        "batched_s": round(batched_s, 4),
        "unbatched_batches": unbatched_batches,
        "batched_batches": batched_batches,
        "batch_speedup": round(speedup, 1),
    })
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "E14b  Writer batching: per-op vs coalesced maintenance "
        "(chain-%d, %d rewires)" % (CHAIN, len(operations)),
        ["max_batch", "passes", "wall (s)", "speedup"],
        [
            ExperimentRow("1 (per-op)", {
                "passes": unbatched_batches,
                "wall (s)": round(unbatched_s, 3),
                "speedup": 1.0,
            }),
            ExperimentRow("64 (coalesced)", {
                "passes": batched_batches,
                "wall (s)": round(batched_s, 3),
                "speedup": round(speedup, 1),
            }),
        ],
    )
    assert speedup >= BATCH_BAR, (
        "coalesced writer batching is only %.1fx faster than per-op "
        "maintenance (bar: %.1fx)" % (speedup, BATCH_BAR)
    )


def test_read_path_work_counts(benchmark):
    """E14c: renders and ``match`` calls per read, as exact counts."""
    serving = ServingSession(transitive_closure_program(chain_edges(CHAIN)))
    uncached = pretty._render_term
    rendered = []

    def render(term):
        # Only answers are counted: symbol texts are shared process-wide,
        # so whether ``n151`` is rendered here depends on what ran before.
        if isinstance(term, App):
            rendered.append(term)
        return uncached(term)

    try:
        with mock.patch.object(pretty, "_render_term", render), \
                mock.patch.object(relation, "match",
                                  wraps=relation.match) as matcher:

            def read():
                """One read: (answers, answer renders, match calls)."""
                rendered.clear()
                matcher.reset_mock()
                with serving.reader() as reader:
                    answers = [str(answer)
                               for answer in reader.query("tc(n150, X)")]
                return answers, len(rendered), matcher.call_count

            cold, renders_cold, match_cold = read()
            repeat, renders_repeat, match_repeat = read()
    finally:
        serving.close()

    assert cold == repeat == sorted(
        "tc(n150, n%d)" % k for k in range(151, CHAIN + 1))
    assert renders_cold == len(cold)
    assert renders_repeat == 0
    assert match_cold == match_repeat == 0
    benchmark.extra_info.update({
        "answers": len(cold),
        "renders_cold": renders_cold,
        "renders_repeat": renders_repeat,
        "match_calls": match_repeat,
    })
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "E14c  Read-path work per tc(n150, X) query (chain-%d)" % CHAIN,
        ["query", "answers", "renders", "match calls"],
        [
            ExperimentRow("first", {
                "answers": len(cold), "renders": renders_cold,
                "match calls": match_cold,
            }),
            ExperimentRow("repeated", {
                "answers": len(repeat), "renders": renders_repeat,
                "match calls": match_repeat,
            }),
        ],
    )
