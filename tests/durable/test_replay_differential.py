"""Replay differential: a recovered session equals the live one.

Recovery folds the committed WAL tail into one last-operation-wins batch
(:func:`repro.durable.recovery.replay`).  For four programs — stratified
``tc``, win/move (well-founded, with undefined atoms), Example 6.3 (a
predicate variable under negation: name-open, so its session re-walks)
and a sum aggregate — hypothesis draws a stream of multi-fact batches over
a small pool of facts, so the streams insert and retract one atom in
different transactions, re-insert present atoms and retract absent ones.
One batch in each stream is refused by ``max_facts`` (aborted in the
WAL).  The live session is then abandoned as a crash would leave it, and
``DatabaseSession.open(verify=True)`` must give back its ``true``,
``undefined`` and ``edb()`` — once with a checkpoint mid-stream, once
with every snapshot deleted, so the whole WAL replays.

The fold must have something to fold: each test counts the operations a
later one on the same atom cancelled, and fails when no example had any.
"""

import os

import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.db import DatabaseSession
from repro.hilog.errors import GroundingError

NODES = ("a", "b", "c")

#: ``name -> (program text, fact pool)``.  Every model over the pool stays
#: under ``MAX_FACTS``; the refused batch's padding goes over it.
PROGRAMS = {
    "tc": ("""
        e(a, b).
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
    """, ["e(%s, %s)" % (x, y) for x in NODES for y in NODES]),
    "win": ("""
        move(a, b). move(b, a).
        win(X) :- move(X, Y), not win(Y).
    """, ["move(%s, %s)" % (x, y) for x in NODES for y in NODES]),
    "example-6.3": ("""
        game(m). m(a, b).
        winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
    """, ["m(%s, %s)" % (x, y) for x in NODES for y in NODES]
         + ["game(m)", "game(n)", "n(a, b)", "n(b, a)"]),
    "aggregate": ("""
        node(a). node(b). weight(a, u, 3).
        total(X, N) :- node(X), N = sum(P : weight(X, Y, P)).
    """, ["node(%s)" % x for x in NODES]
         + ["weight(%s, %s, %d)" % (x, y, p)
            for x in NODES for y in ("u", "v") for p in (1, 2)]),
}

MAX_FACTS = 60
#: Enough fresh facts to refuse any batch that carries them, and a rule
#: deriving from them: the cap is checked on the rounds that derive.
PADDING = ["pad(%d)" % index for index in range(MAX_FACTS + 1)]
PADDED = "padded(X) :- pad(X)."


def _streams(pool):
    batch = st.lists(st.tuples(st.sampled_from(("insert", "retract")),
                               st.sampled_from(pool)),
                     min_size=1, max_size=4)
    return st.lists(batch, min_size=2, max_size=8)


def _apply(session, batch):
    """One transaction: the batch's ops, the last on each atom winning."""
    with session.transaction() as txn:
        for action, fact in batch:
            getattr(txn, action)(fact)


def _cancelled(batches):
    """The operations of ``batches`` that a later one on the same atom
    overrides: what the fold drops."""
    ops = [fact for batch in batches for fact in dict(
        (fact, action) for action, fact in batch)]
    return len(ops) - len(set(ops))


def _live_state(session):
    return session.true, session.undefined, session.edb()


def _run(directory, name, stream, refused_at, checkpoint_at):
    """Run ``stream`` on a fresh durable session, refusing one batch and
    checkpointing (when ``checkpoint_at`` is not ``None``) mid-stream;
    abandon it and return its state and the batches recovery replays."""
    program, _pool = PROGRAMS[name]
    session = DatabaseSession(program + PADDED, path=directory, fsync="off",
                              max_facts=MAX_FACTS)
    tail = []
    for index, batch in enumerate(stream):
        if index == refused_at:
            with pytest.raises(GroundingError, match="exceeded"):
                session.insert(PADDING)
        if index == checkpoint_at:
            session.checkpoint()
            tail = []
        _apply(session, batch)
        tail.append(batch)
    state = _live_state(session)
    session._durable.abandon()
    return state, tail


@pytest.mark.parametrize("snapshot", ["mid-stream", "none"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_recovery_equals_the_live_session(tmp_path_factory, name, snapshot):
    _program, pool = PROGRAMS[name]
    cancelled = []

    @settings(max_examples=25, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream=_streams(pool), refused_at=st.integers(0, 7),
           checkpoint_at=st.integers(0, 7))
    @example(stream=[[("insert", pool[1]), ("retract", pool[2])],
                     [("retract", pool[1]), ("insert", pool[2])],
                     [("insert", pool[1])]], refused_at=1, checkpoint_at=1)
    def check(stream, refused_at, checkpoint_at):
        refused_at %= len(stream)
        checkpoint_at = None if snapshot == "none" \
            else checkpoint_at % len(stream)
        directory = str(tmp_path_factory.mktemp("replay"))
        expected, tail = _run(directory, name, stream, refused_at,
                              checkpoint_at)
        if snapshot == "none":
            for entry in os.listdir(directory):
                if entry.endswith(".snap"):
                    os.unlink(os.path.join(directory, entry))
        recovered = DatabaseSession.open(directory, verify=True,
                                         max_facts=MAX_FACTS)
        try:
            assert _live_state(recovered) == expected
            replayed = recovered.stats()["durability"]["replayed_txns"]
            assert replayed == len(tail)
        finally:
            recovered.close(checkpoint=False)
        cancelled.append(_cancelled(tail))

    check()
    print("%s, snapshot %s: the fold cancelled %d operations over %d of %d "
          "streams" % (name, snapshot, sum(cancelled),
                       sum(1 for count in cancelled if count),
                       len(cancelled)))
    assert any(cancelled)


def test_a_net_batch_crossing_the_cap_recovers_to_the_live_model(tmp_path):
    """Each ``p(ai)`` is re-inserted and retracted, then ``p(bi)`` is
    inserted, one transaction each, so the live model never holds more
    than the 20 facts the cap allows.  The tail's net batch inserts every
    ``p(bi)`` and retracts every ``p(ai)``: its inserts cross the cap
    before its retracts apply, and the session's recompute path must
    evaluate the EDB the tail leaves, which fits."""
    directory = str(tmp_path / "data")
    program = " ".join("p(a%d)." % index for index in range(10))
    session = DatabaseSession(program + " q(X) :- p(X).", path=directory,
                              fsync="off", max_facts=20)
    for index in range(10):
        session.insert("p(a%d)." % index)
        session.retract("p(a%d)." % index)
        session.insert("p(b%d)." % index)
    expected = _live_state(session)
    session._durable.abandon()

    recovered = DatabaseSession.open(directory, verify=True, max_facts=20)
    try:
        assert _live_state(recovered) == expected
        info = recovered.stats()
        assert info["durability"]["replayed_txns"] == 30
        assert info["updates"] == 1 and info["rebuilds"] == 1
    finally:
        recovered.close(checkpoint=False)
