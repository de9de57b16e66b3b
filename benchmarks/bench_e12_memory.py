"""E12 — bounded intern-table memory under long-lived session churn.

PR 3's hash-consing made term equality pointer equality, but the intern
tables originally held strong references forever: a long-lived
:class:`~repro.db.DatabaseSession` churning ever-fresh constants
(timestamps, ids) accreted interned terms even after the facts were
retracted.  This benchmark is the regression gate for the eviction that
fixes it (``terms.collect_terms``, a reference-count sweep driven by
``DatabaseSession.collect``):

* **E12a** — a chain-200 TC session runs ``E12_CYCLES`` (default 10 000)
  insert/retract cycles of facts carrying ten entirely fresh constants
  each, collecting every 100 cycles.  The intern-table sizes sampled at
  each collection must be non-increasing (bounded, not monotone), and the
  tracemalloc peak of the full run must stay within 2x of the peak after
  the first 100-cycle window.  Both peaks are measured from *before*
  session construction, so the comparison is against the session's real
  steady-state footprint (~12 MB for the chain-200 store): CPython's
  periodic hash-table rebuilds of the steady 20k-fact store (old and new
  tables briefly coexist, ~2.5 MB) stay well inside the bound, while the
  strong-reference leak this gate guards against — ~250 B per fresh
  constant, ~25 MB over the run — blows straight through it.
* **E12b** — derived-fact churn: fresh chain extensions each derive ~200
  transitive-closure facts through DRed maintenance; after retraction and
  collection the interned population returns to its baseline.

Timings (``churn_s``, ``collect_s``, ``cycle_s``) are recorded in
``extra_info`` for comparison across runs; ``run_all.py --check-baseline``
gates only work counters, so it does not hold them to the baseline.

Run with::

    pytest benchmarks/bench_e12_memory.py --benchmark-only -s
"""

import os
import time
import tracemalloc

from repro.analysis.report import ExperimentRow, print_table
from repro.db import DatabaseSession
from repro.hilog.terms import intern_table_sizes
from repro.workloads.closure import transitive_closure_program
from repro.workloads.graphs import chain_edges

CHAIN = 200
CYCLES = int(os.environ.get("E12_CYCLES", "10000"))
COLLECT_EVERY = 100


def _total_interned():
    return sum(intern_table_sizes().values())


def _churn_fresh(session, start, count):
    """``count`` insert/retract cycles, ten fresh constants per cycle."""
    for index in range(start, start + count):
        fact = "obs(%s)." % ", ".join(
            "t%d_%d" % (index, part) for part in range(10)
        )
        session.insert(fact)
        session.retract(fact)


def test_chain200_fresh_constant_churn(benchmark):
    """E12a: 10k fresh-constant cycles; intern sizes bounded, peak flat."""
    program = transitive_closure_program(chain_edges(CHAIN))

    # Both peaks below include the session's construction and steady-state
    # footprint — see the module docstring for why.
    tracemalloc.start()
    session = DatabaseSession(program)
    session.collect()  # sweep construction transients out of the baseline

    # First window: 100 cycles + 1 collection, tracemalloc peak recorded.
    _churn_fresh(session, 0, COLLECT_EVERY)
    session.collect()
    _current, peak_window = tracemalloc.get_traced_memory()
    sizes_start = _total_interned()

    # Full run: CYCLES more cycles, collecting every COLLECT_EVERY, with
    # the intern-table size sampled at every collection point.
    sizes_at_collect = []
    collect_times = []
    start = time.perf_counter()
    for block in range(CYCLES // COLLECT_EVERY):
        _churn_fresh(
            session, COLLECT_EVERY * (block + 1), COLLECT_EVERY
        )
        collect_start = time.perf_counter()
        session.collect()
        collect_times.append(time.perf_counter() - collect_start)
        sizes_at_collect.append(_total_interned())
    churn = time.perf_counter() - start
    _current, peak_full = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    session.check()
    session.collect()
    interned_after_collect = _total_interned()

    slope = (
        (sizes_at_collect[-1] - sizes_at_collect[0]) / (len(sizes_at_collect) - 1)
        if len(sizes_at_collect) > 1 else 0.0
    )
    collect_mean = sum(collect_times) / len(collect_times)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(
        chain=CHAIN, cycles=CYCLES, collect_every=COLLECT_EVERY,
        churn_s=round(churn, 4),
        collect_s=round(collect_mean, 6),
        cycle_s=round(churn / CYCLES, 6),
        interned_start=sizes_start,
        interned_end=sizes_at_collect[-1],
        interned_slope_per_collect=round(slope, 3),
        interned_after_collect=interned_after_collect,
        alloc_peak_window_kb=peak_window // 1024,
        alloc_peak_full_kb=peak_full // 1024,
    )
    print_table(
        "E12a  Chain-%d session: %d fresh-constant insert/retract cycles"
        % (CHAIN, CYCLES),
        ["measure", "value"],
        [
            ExperimentRow("churn total (s)", {"value": round(churn, 3)}),
            ExperimentRow("per cycle (us)", {"value": round(1e6 * churn / CYCLES, 1)}),
            ExperimentRow("collect mean (ms)", {"value": round(1e3 * collect_mean, 3)}),
            ExperimentRow("interned @first/@last collect", {
                "value": "%d / %d" % (sizes_at_collect[0], sizes_at_collect[-1]),
            }),
            ExperimentRow("tracemalloc peak @100 cycles / full run (KB)", {
                "value": "%d / %d" % (peak_window // 1024, peak_full // 1024),
            }),
        ],
    )

    # The bounded-memory guarantee: sizes at collection points never grow
    # past the first sample (the leak showed a strictly increasing series).
    assert all(size <= sizes_at_collect[0] for size in sizes_at_collect[1:]), \
        "intern tables grew between collections: %r" % (sizes_at_collect,)
    assert slope <= 0, "positive intern-size slope %r" % (slope,)
    # The full run's peak stays within 2x of the 100-cycle peak — the
    # strong-reference leak added ~250 B per fresh constant and would land
    # around 3x here (~25 MB over ~12 MB of steady-state footprint).
    assert peak_full <= 2 * peak_window, (
        "tracemalloc peak %d exceeds 2x the 100-cycle peak %d"
        % (peak_full, peak_window)
    )


def test_chain200_derived_churn_evicts_closure(benchmark):
    """E12b: fresh chain extensions derive ~200 TC facts each (DRed);
    retraction plus collection returns the interned population to baseline."""
    program = transitive_closure_program(chain_edges(CHAIN))
    session = DatabaseSession(program)
    session.collect()
    interned_baseline = _total_interned()

    cycles = 200
    sizes_at_collect = []
    start = time.perf_counter()
    for index in range(cycles):
        fact = "e(n%d, x%d)." % (CHAIN, index)
        # The fresh tail closes the chain.  The summary is not kept: it
        # would hold its atoms through the next collection.
        assert len(session.insert(fact).added) > CHAIN
        session.retract(fact)
        if (index + 1) % 20 == 0:
            session.collect()
            sizes_at_collect.append(_total_interned())
    elapsed = time.perf_counter() - start
    session.check()
    session.collect()
    interned_after_collect = _total_interned()

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(
        chain=CHAIN, cycles=cycles,
        derived_churn_s=round(elapsed, 4),
        cycle_s=round(elapsed / cycles, 6),
        interned_baseline=interned_baseline,
        interned_end=sizes_at_collect[-1],
        interned_after_collect=interned_after_collect,
    )
    print_table(
        "E12b  Chain-%d session: derived-closure churn over fresh endpoints"
        % CHAIN,
        ["measure", "value"],
        [
            ExperimentRow("cycles", {"value": cycles}),
            ExperimentRow("total (s)", {"value": round(elapsed, 3)}),
            ExperimentRow("per cycle (ms)", {"value": round(1e3 * elapsed / cycles, 2)}),
            ExperimentRow("interned baseline/end", {
                "value": "%d / %d" % (interned_baseline, sizes_at_collect[-1]),
            }),
        ],
    )
    assert all(size <= sizes_at_collect[0] for size in sizes_at_collect[1:])
    # Fresh endpoints and their derived closure are fully reclaimed: the
    # interned population does not grow with the cycle count.
    assert interned_after_collect <= interned_baseline + 8
