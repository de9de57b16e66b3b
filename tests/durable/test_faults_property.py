"""Kill-and-recover property tests.

For every registered crash point and a hypothesis-generated random op
stream — over both a stratified program (maintained by DRed) and a
non-stratified one (win/move, whose well-founded model has an undefined
partition) — the harness:

1. runs the stream against a durable session, with the crash point armed
   to fire after a random number of hits;
2. when the injected :class:`CrashPoint` tears through, abandons the
   session exactly as process death would (descriptors dropped without
   syncing, lock released);
3. recovers with ``DatabaseSession.open(..., verify=True)`` — which ends
   in a full :meth:`check` of the recovered model against a from-scratch
   recomputation (the partitions-vs-oracle comparison);
4. asserts the recovered EDB is one of the **observably consistent
   prefixes**: every batch whose insert/retract call returned must be
   present, every batch whose call never returned must be absent or
   present in full (a commit frame may or may not have reached the file
   before the crash — both are honest), and nothing in between.

Crash points that fire outside the update path (mid-snapshot-write,
mid-replay) are exercised by checkpointing mid-stream and by crashing a
recovery and recovering again.
"""

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import DatabaseSession
from repro.durable.faults import FAULT_POINTS, CrashPoint, arm, disarm

TC_RULES = """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
"""

WIN_RULES = """
    reach(X) :- start(X).
    reach(Y) :- reach(X), e(X, Y).
    win(X) :- e(X, Y), not win(Y).
"""

NODES = ("a", "b", "c", "d")

PROGRAMS = {"stratified": TC_RULES, "wellfounded": WIN_RULES}

_facts = ["e(%s, %s)." % (x, y) for x in NODES for y in NODES]
_facts += ["start(%s)." % x for x in NODES[:2]]


def _ops():
    return st.lists(st.sampled_from(_facts), min_size=1, max_size=10)


def _run_stream(session, ops, acknowledged, edb_texts):
    """Toggle each candidate fact; track acknowledged batches and the
    EDB-after-each-acknowledged-batch text sets."""
    for fact in ops:
        text = fact[:-1].strip()
        if fact in edb_texts[-1]:
            session.retract(fact)
            next_set = edb_texts[-1] - {fact}
        else:
            session.insert(fact)
            next_set = edb_texts[-1] | {fact}
        acknowledged.append(fact)
        edb_texts.append(next_set)


def _recovered_edb_texts(session):
    from repro.hilog.pretty import format_term

    return {format_term(atom) + "." for atom in session.edb()}


@pytest.mark.parametrize("point", [p for p in FAULT_POINTS
                                   if p.startswith("wal.")])
@pytest.mark.parametrize("rules_key", sorted(PROGRAMS))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(ops=_ops(), skip=st.integers(min_value=0, max_value=6))
def test_crash_in_wal_path_recovers_to_consistent_prefix(
        tmp_path_factory, point, rules_key, ops, skip):
    directory = str(tmp_path_factory.mktemp("crash"))
    session = DatabaseSession(PROGRAMS[rules_key], path=directory,
                              fsync="always", checkpoint_every=3)
    acknowledged = []
    edb_texts = [set()]
    arm(point, skip=skip)
    crashed = False
    try:
        _run_stream(session, ops, acknowledged, edb_texts)
    except CrashPoint:
        crashed = True
    finally:
        disarm()
        session._durable.abandon()

    recovered = DatabaseSession.open(directory, verify=True)
    try:
        got = _recovered_edb_texts(recovered)
        if crashed:
            # The interrupted batch is all-or-nothing; every acknowledged
            # batch is in.  Both the pre-crash and the crash-batch state
            # are consistent outcomes (the commit frame may have hit the
            # file before the crash point fired).
            assert got in (edb_texts[-1],
                           _next_state(edb_texts[-1], ops, acknowledged))
        else:
            assert got == edb_texts[-1]
    finally:
        recovered.close()


def _next_state(state, ops, acknowledged):
    """The EDB had the crashed batch (the first unacknowledged op)
    committed after all."""
    if len(acknowledged) >= len(ops):
        return state
    fact = ops[len(acknowledged)]
    return state - {fact} if fact in state else state | {fact}


@pytest.mark.parametrize("point", [p for p in FAULT_POINTS
                                   if p.startswith("snapshot.")])
@pytest.mark.parametrize("rules_key", sorted(PROGRAMS))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(ops=_ops())
def test_crash_during_checkpoint_recovers_to_stream_state(
        tmp_path_factory, point, rules_key, ops):
    directory = str(tmp_path_factory.mktemp("crash"))
    session = DatabaseSession(PROGRAMS[rules_key], path=directory,
                              fsync="always")
    acknowledged = []
    edb_texts = [set()]
    _run_stream(session, ops, acknowledged, edb_texts)
    arm(point)
    try:
        with pytest.raises(CrashPoint):
            session.checkpoint()
    finally:
        disarm()
        session._durable.abandon()

    # A crashed checkpoint loses no data: every acknowledged batch is in
    # the WAL, whichever snapshot generation survived.
    recovered = DatabaseSession.open(directory, verify=True)
    try:
        assert _recovered_edb_texts(recovered) == edb_texts[-1]
    finally:
        recovered.close()


@pytest.mark.parametrize("rules_key", sorted(PROGRAMS))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(ops=_ops(), skip=st.integers(min_value=0, max_value=3))
def test_crash_mid_replay_recovers_on_retry(tmp_path_factory, rules_key,
                                            ops, skip):
    directory = str(tmp_path_factory.mktemp("crash"))
    session = DatabaseSession(PROGRAMS[rules_key], path=directory,
                              fsync="always")
    acknowledged = []
    edb_texts = [set()]
    _run_stream(session, ops, acknowledged, edb_texts)
    # Abandon without a checkpoint: recovery has a real WAL tail.
    session._durable.abandon()

    arm("recovery.mid_replay", skip=skip)
    try:
        try:
            interrupted = DatabaseSession.open(directory)
        except CrashPoint:
            pass  # crashed mid-replay; the failed open released the lock
        else:
            interrupted.close()  # tail shorter than skip: no crash
    finally:
        disarm()

    recovered = DatabaseSession.open(directory, verify=True)
    try:
        assert _recovered_edb_texts(recovered) == edb_texts[-1]
    finally:
        recovered.close()
