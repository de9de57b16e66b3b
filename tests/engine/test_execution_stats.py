"""Concurrency tests for ``EXECUTION_STATS``: the counters are
context-local, so parallel reader threads (the serving subsystem) never
corrupt or even observe each other's tallies."""

import threading

from repro.db import DatabaseSession
from repro.engine.seminaive.engine import EXECUTION_STATS

TC = """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    e(a, b). e(b, c). e(c, d).
"""


class TestExecutionStats:
    def test_facade_preserves_single_threaded_api(self):
        EXECUTION_STATS.reset()
        assert EXECUTION_STATS.snapshot() == {
            "fetches": 0, "candidates": 0, "alternations": 0}
        EXECUTION_STATS.fetches += 2
        EXECUTION_STATS.candidates += 1
        EXECUTION_STATS.alternations += 1
        assert EXECUTION_STATS.fetches == 2
        assert EXECUTION_STATS.snapshot() == {
            "fetches": 2, "candidates": 1, "alternations": 1}
        EXECUTION_STATS.reset()
        assert EXECUTION_STATS.fetches == 0

    def test_counters_cell_is_shared_within_a_context(self):
        EXECUTION_STATS.reset()
        cell = EXECUTION_STATS.counters()
        EXECUTION_STATS.fetches += 3
        assert cell.fetches == 3  # the facade writes through to the cell

    def test_evaluation_records_fetches(self):
        EXECUTION_STATS.reset()
        DatabaseSession(TC)
        assert EXECUTION_STATS.fetches > 0

    def test_threads_get_isolated_counters(self):
        EXECUTION_STATS.reset()
        EXECUTION_STATS.fetches += 7  # main-thread tally
        seen = {}
        barrier = threading.Barrier(4, timeout=10)

        def worker(name, bump):
            # A fresh thread starts from a zeroed context-local cell.
            start = EXECUTION_STATS.fetches
            barrier.wait()
            for _ in range(bump):
                EXECUTION_STATS.fetches += 1
            barrier.wait()
            seen[name] = (start, EXECUTION_STATS.fetches)

        threads = [threading.Thread(target=worker, args=("t%d" % i, i + 1))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen == {"t0": (0, 1), "t1": (0, 2),
                        "t2": (0, 3), "t3": (0, 4)}
        # the main thread's tally was never touched by the workers
        assert EXECUTION_STATS.fetches == 7
        EXECUTION_STATS.reset()

    def test_parallel_sessions_do_not_interleave_counts(self):
        results = {}

        def evaluate(name):
            EXECUTION_STATS.reset()
            DatabaseSession(TC)
            results[name] = EXECUTION_STATS.snapshot()["fetches"]

        threads = [threading.Thread(target=evaluate, args=("s%d" % i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        # identical programs, isolated counters: identical deterministic tallies
        assert len(set(results.values())) == 1
        assert all(count > 0 for count in results.values())

    def test_measurement_window_survives_an_intern_sweep(self):
        """A ``snapshot()`` / ``diff()`` window containing a collection
        counts what ran inside it: the counters are not a cache, so an
        intern sweep leaves them alone."""
        chain = " ".join("e(n%d, n%d)." % (i, i + 1) for i in range(30))
        rules = "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y)."
        spent = {}
        for intern_gc in (None, 1):
            session = DatabaseSession(chain + rules, intern_gc=intern_gc)
            before = EXECUTION_STATS.snapshot()
            session.retract("e(n10, n11).")
            spent[intern_gc] = EXECUTION_STATS.diff(before)
        assert spent[1] == spent[None]
        assert spent[1]["fetches"] > 0 and spent[1]["candidates"] > 0
