"""Serving-session tests: writer batching, snapshot isolation under
concurrent reader threads, intern-GC safety for pinned epochs."""

import threading
import time

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import DatabaseSession
from repro.durable.snapshot import load_snapshot
from repro.hilog.errors import GroundingError
from repro.hilog.parser import parse_term
from repro.hilog.terms import App, Sym, intern_table_sizes
from repro.serve import epochs as epochs_module
from repro.serve import (
    ServeError,
    ServingClosed,
    ServingSession,
    WriteQueueFull,
)

TC_RULES = """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
"""

WIN_RULES = """
    win(X) :- move(X, Y), not win(Y).
"""


def answers(reader_or_serving, query):
    return frozenset(map(str, reader_or_serving.query(query)))


class TestBasics:
    def test_submit_and_query(self):
        with ServingSession(TC_RULES + "e(a, b).") as serving:
            assert answers(serving, "tc(a, X)") == {"tc(a, b)"}
            summary = serving.submit(inserts=["e(b, c)."]).result(5)
            assert summary.inserted == 1
            assert answers(serving, "tc(a, X)") == {"tc(a, b)", "tc(a, c)"}
            serving.retract("e(a, b).", timeout=5)
            assert answers(serving, "tc(a, X)") == frozenset()

    def test_wraps_existing_session(self):
        session = DatabaseSession(TC_RULES + "e(a, b).")
        with ServingSession(session) as serving:
            assert serving.session is session
            assert serving.ask("tc(a, b)")
        with pytest.raises(ValueError):
            ServingSession(DatabaseSession("p(a)."), strategy="auto")

    @pytest.mark.parametrize("knob", [
        {"max_batch": 0}, {"max_pending": 0},
    ])
    def test_rejected_knob_leaves_data_directory_fresh(self, tmp_path, knob):
        # Regression: the durable session was built (program file, WAL,
        # first checkpoint) before the serving knobs were validated, so
        # the corrected retry found the directory taken.
        path = tmp_path / "data"
        with pytest.raises(ValueError):
            ServingSession(TC_RULES + "e(a, b).", path=str(path), **knob)
        assert not path.exists() or not any(path.iterdir())
        with ServingSession(TC_RULES + "e(a, b).", path=str(path),
                            max_batch=16) as serving:
            assert serving.ask("tc(a, b)")

    def test_reader_rejects_non_ground_like_the_session(self):
        with ServingSession(TC_RULES + "e(a, b).") as serving:
            for read in (serving.ask, serving.value,
                         serving.session.ask, serving.session.value):
                with pytest.raises(GroundingError):
                    read("tc(a, X)")

    def test_reader_pins_one_epoch(self):
        with ServingSession(TC_RULES + "e(a, b).") as serving:
            with serving.reader() as reader:
                eid = reader.epoch.eid
                before = answers(reader, "tc(a, X)")
                serving.insert("e(b, c).", timeout=5)
                serving.insert("e(c, d).", timeout=5)
                # the pinned reader still answers from its epoch...
                assert answers(reader, "tc(a, X)") == before
                assert reader.epoch.eid == eid
            # ...while a fresh reader sees the new model
            assert answers(serving, "tc(a, X)") == {
                "tc(a, b)", "tc(a, c)", "tc(a, d)"}

    def test_reader_use_after_close_raises(self):
        with ServingSession("p(a).") as serving:
            reader = serving.reader()
            reader.close()
            reader.close()  # idempotent
            with pytest.raises(ServeError):
                reader.query("p(X)")

    def test_coalescing_merges_queued_ops(self):
        with ServingSession(TC_RULES + "e(a, b).") as serving:
            serving.pause()
            futures = [serving.submit(inserts=["e(n%d, n%d)." % (i, i + 1)])
                       for i in range(8)]
            # last-op-wins netting across ops in one batch
            futures.append(serving.submit(inserts=["e(z1, z2)."]))
            futures.append(serving.submit(retracts=["e(z1, z2)."]))
            batches_before = serving.stats()["batches"]
            serving.resume()
            summaries = {id(f.result(5)) for f in futures}
            assert len(summaries) == 1  # one maintenance pass for all ten
            assert serving.stats()["batches"] == batches_before + 1
            assert not serving.ask("e(z1, z2)")
            assert serving.ask("tc(n0, n8)")

    def test_malformed_op_fails_alone(self):
        with ServingSession(TC_RULES + "e(a, b).") as serving:
            serving.pause()
            bad = serving.submit(inserts=["tc(X) :- e(X)."])  # a rule, not facts
            good = serving.submit(inserts=["e(b, c)."])
            serving.resume()
            with pytest.raises(ValueError):
                bad.result(5)
            assert good.result(5).inserted == 1
            assert serving.ask("tc(a, c)")

    def test_backpressure(self):
        with ServingSession("p(a).", max_pending=2) as serving:
            serving.pause()
            serving.submit(inserts=["p(b)."])
            serving.submit(inserts=["p(c)."])
            with pytest.raises(WriteQueueFull) as excinfo:
                serving.submit(inserts=["p(d)."])
            assert excinfo.value.retry_after > 0
            assert serving.stats()["rejected"] == 1
            serving.resume()
            serving.flush(5)
            assert serving.ask("p(c)")

    def test_flush_is_a_barrier(self):
        with ServingSession("p(a).") as serving:
            futures = [serving.submit(inserts=["p(q%d)." % i])
                       for i in range(20)]
            serving.flush(5)
            assert all(future.done() for future in futures)

    def test_closed_session_rejects_ops(self):
        serving = ServingSession("p(a).")
        serving.close()
        serving.close()  # idempotent
        assert serving.closed
        with pytest.raises(ServingClosed):
            serving.submit(inserts=["p(b)."])

    def test_session_stats_and_serving_stats(self):
        with ServingSession(TC_RULES + "e(a, b).") as serving:
            serving.insert("e(b, c).", timeout=5)
            stats = serving.stats()
            assert stats["batches"] == 1
            assert stats["epochs"]["published"] == 2
            assert stats["facts"] == len(serving.session.store)
            inner = serving.session_stats(timeout=5)
            assert inner["updates"] == 1 and inner["mode"] == "incremental"

    def test_wellfounded_epochs_carry_undefined(self):
        program = WIN_RULES + "move(a, b). move(b, a)."
        with ServingSession(program) as serving:
            assert serving.value("win(a)") == "undefined"
            assert serving.value("win(c)") == "false"
            with serving.reader() as reader:
                assert reader.value("win(a)") == "undefined"
                # give a an escape to a dead node: the game settles...
                serving.insert("move(a, c).", timeout=5)
                # ...but the pinned epoch keeps its three-valued verdict
                assert reader.value("win(a)") == "undefined"
            assert serving.value("win(a)") == "true"
            assert serving.value("win(b)") == "false"

    def test_rebase_snapshots_the_store_a_recomputing_session_has_now(
            self, monkeypatch):
        # A well-founded session builds a new store per write; a rebase
        # used to snapshot the one the serving session was opened over.
        monkeypatch.setattr(epochs_module, "REBASE_RATIO", 0.1)
        monkeypatch.setattr(epochs_module, "REBASE_MIN", 1)
        program = WIN_RULES + "move(a, b)."
        with ServingSession(program) as serving:
            serving.insert("move(b, c).", timeout=5)
            serving.insert("move(c, d).", timeout=5)
            assert serving.stats()["epochs"]["rebases"] >= 1
            assert answers(serving, "win(X)") == {"win(a)", "win(c)"}
            assert answers(serving, "move(X, Y)") == {
                "move(a, b)", "move(b, c)", "move(c, d)"}


class TestCheckpoint:
    def test_checkpoint_of_a_delta_epoch_beside_a_pinned_older_one(self, tmp_path):
        """The writer serializes the current epoch — a delta over its base
        — while a reader holds the base: the snapshot is the session's
        model and EDB, the reader keeps reading its own epoch, and a crash
        right after recovers from the snapshot alone."""
        path = str(tmp_path / "data")
        serving = ServingSession(TC_RULES + "e(a, b).", path=path, fsync="always")
        try:
            pinned = serving.reader()
            pinned_eid = pinned.epoch.eid
            pinned_answers = answers(pinned, "tc(X, Y)")
            serving.insert("e(b, c).", timeout=5)
            serving.insert("e(c, d).", timeout=5)
            assert not serving.epochs.current.is_base()

            state = load_snapshot(serving.checkpoint(timeout=5))
            session = serving.session
            assert set(state.store) == set(session.store)
            assert state.edb == set(session.edb())
            assert not len(state.undefined)
            assert pinned.epoch.eid == pinned_eid
            assert answers(pinned, "tc(X, Y)") == pinned_answers
            assert pinned_answers == {"tc(a, b)"}
            pinned.close()
            expected = set(map(str, session.true))
            session._durable.abandon()  # a kill: no final checkpoint
        finally:
            serving.close(timeout=5)

        recovered = DatabaseSession.open(path, verify=True)
        try:
            assert recovered.stats()["durability"]["replayed_txns"] == 0
            assert set(map(str, recovered.true)) == expected
            assert "tc(a, d)" in expected
        finally:
            recovered.close()


class TestInternSafety:
    def test_collect_keeps_pinned_epoch_atoms_canonical(self, monkeypatch):
        # Force every publication to rebase to a fresh frozen snapshot, so
        # the post-retract epoch carries no tombstones (an overlay's
        # tombstones deliberately pin the retracted atoms for the overlay's
        # lifetime; a base epoch pins exactly its contents).
        monkeypatch.setattr(epochs_module, "REBASE_RATIO", 1e-9)
        monkeypatch.setattr(epochs_module, "REBASE_MIN", 0)
        with ServingSession(TC_RULES) as serving:
            # After retraction, the pinned epoch is the facts' only owner.
            serving.insert("e(x0, y0). e(y0, z0).", timeout=5)
            with serving.reader() as reader:
                held = sorted(reader.facts("e", 2), key=repr)
                assert len(held) == 2
                serving.retract("e(x0, y0). e(y0, z0).", timeout=5)
                serving.collect().result(5)
                # identity preserved: a structural rebuild is the same object
                rebuilt = App(Sym("e"), (Sym("x0"), Sym("y0")))
                assert rebuilt is held[0]
                assert held[0] in reader.epoch.store
                assert answers(reader, "tc(x0, X)") == {
                    "tc(x0, y0)", "tc(x0, z0)"}
            # With the reader released and the atoms dropped they are
            # collectable: the next sweep evicts them, so a rebuild is a
            # fresh object (it has no rendered text yet).
            del held, rebuilt, reader
            serving.collect().result(5)
            assert not hasattr(App(Sym("e"), (Sym("y0"), Sym("z0"))), "_text")

    def test_reads_leave_nothing_interned_after_collect(self):
        # Regression: readers used to intern the terms of their queries
        # permanently, so a server's tables grew with the reads it served.
        with ServingSession(TC_RULES) as serving:
            serving.insert("e(a, b).", timeout=5)
            serving.collect().result(5)
            before = intern_table_sizes()
            with serving.reader() as reader:
                for index in range(500):
                    assert not reader.ask("tc(p%d, q%d)" % (index, index))
            serving.collect().result(5)
            assert intern_table_sizes() == before

    def test_answers_held_after_the_reader_closes_stay_canonical(self):
        # Holding an answer is what keeps it: once the reader is released
        # and the fact retracted, a sweep leaves the held atom canonical.
        with ServingSession(TC_RULES) as serving:
            serving.insert("e(h0, h1).", timeout=5)
            with serving.reader() as reader:
                (held,) = reader.query("tc(h0, X)")
            serving.retract("e(h0, h1).", timeout=5)
            serving.collect().result(5)
            assert App(Sym("tc"), (Sym("h0"), Sym("h1"))) is held
            serving.insert("e(h0, h1).", timeout=5)
            with serving.reader() as reader:
                assert reader.query("tc(h0, X)") == (held,)

    def test_collect_runs_on_writer_thread_under_churn(self):
        with ServingSession(TC_RULES) as serving:
            for i in range(10):
                serving.submit(inserts=["e(c%d, c%d)." % (i, i + 1)])
                if i % 3 == 0:
                    serving.collect()
            serving.flush(10)
            assert serving.ask("tc(c0, c10)")
            assert serving.session.check()


class _ReaderWorker(threading.Thread):
    """Queries the serving session in a loop, checking every answer set
    against the per-epoch oracle and re-checking epoch stability."""

    def __init__(self, serving, oracle, query, stop):
        super().__init__(daemon=True)
        self.serving = serving
        self.oracle = oracle
        self.query = query
        self.stop = stop
        self.checked = 0
        self.violations = []

    def run(self):
        while not self.stop.is_set():
            with self.serving.reader() as reader:
                eid = reader.epoch.eid
                first = answers(reader, self.query)
                expected = self.oracle.get(eid)
                if expected is not None and first != expected:
                    self.violations.append(
                        ("oracle", eid, first, expected))
                # torn-view check: the same pinned epoch must answer
                # identically however much the writer publishes meanwhile
                second = answers(reader, self.query)
                if second != first:
                    self.violations.append(("torn", eid, first, second))
                if reader.epoch.eid != eid:
                    self.violations.append(("moved", eid, reader.epoch.eid))
            self.checked += 1


@st.composite
def churn_batches(draw):
    """A list of update batches over a small edge universe."""
    nodes = ["n%d" % i for i in range(5)]
    edges = ["e(%s, %s)." % (x, y) for x in nodes for y in nodes if x != y]
    return draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(edges), max_size=4),   # inserts
            st.lists(st.sampled_from(edges), max_size=4),   # retracts
        ),
        min_size=1, max_size=12,
    ))


class TestSnapshotIsolationProperty:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(batches=churn_batches())
    def test_readers_always_see_a_published_epoch(self, batches):
        query = "tc(n0, X)"
        serving = ServingSession(
            TC_RULES + "e(n0, n1). e(n1, n2).", max_batch=4)
        try:
            oracle = {}

            def record(epoch, _summary):
                oracle[epoch.eid] = frozenset(
                    map(str, _query_epoch(epoch, query)))

            # seed the oracle with the initial epoch
            with serving.reader() as reader:
                oracle[reader.epoch.eid] = answers(reader, query)
            serving.add_publish_hook(record)

            stop = threading.Event()
            workers = [_ReaderWorker(serving, oracle, query, stop)
                       for _ in range(4)]
            for worker in workers:
                worker.start()
            for inserts, retracts in batches:
                ins = [fact for fact in inserts if fact not in retracts]
                serving.submit(inserts=ins, retracts=retracts)
            serving.flush(20)
            time.sleep(0.01)
            stop.set()
            for worker in workers:
                worker.join(10)
                assert not worker.is_alive()
                assert worker.violations == [], worker.violations
            # the final epoch agrees with the maintained session
            final = answers(serving, query)
            assert final == frozenset(map(str, serving.session.query(query)))
            assert serving.session.check()
        finally:
            serving.close()


def _query_epoch(epoch, text):
    """Answer a query against a given epoch's store (the publish hook runs
    on the writer thread, where the just-published epoch is current)."""
    from repro.core.magic.evaluate import answer_from_store
    from repro.hilog.parser import parse_query
    from repro.hilog.program import Literal
    from repro.hilog.terms import Term

    query = parse_query(text)
    if isinstance(query, Term):
        query = (Literal(query),)
    else:
        query = tuple(query)
    return answer_from_store(epoch.store, query).answers
