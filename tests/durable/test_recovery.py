"""Recovery integration tests through the public session API: clean
reopen, crash reopen, corrupt-snapshot fallback, WAL-only degradation,
the single-writer lock and recovery provenance/metrics."""

import os

import pytest

from repro.db import DatabaseSession
from repro.db.session import SessionError
from repro.durable.snapshot import list_snapshots
from repro.hilog.errors import CorruptSnapshot, DurabilityError, LockHeld
from repro.obs.metrics import get_registry

TC = """
    e(a, b). e(b, c).
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
"""

WIN_MOVE = """
    move(a, b). move(b, a). move(c, d).
    win(X) :- move(X, Y), not win(Y).
"""


HILOG_GAME = """
    game(m). m(a, b). m(b, c).
    winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
"""


def _dir(tmp_path):
    return str(tmp_path / "data")


def test_fresh_directory_gets_initial_checkpoint(tmp_path):
    with DatabaseSession(TC, path=_dir(tmp_path)) as session:
        assert session.ask("tc(a, c)")
        assert list_snapshots(_dir(tmp_path))
        assert os.path.isfile(os.path.join(_dir(tmp_path), "program.hilog"))


def test_clean_close_and_reopen_round_trips(tmp_path):
    session = DatabaseSession(TC, path=_dir(tmp_path))
    session.insert("e(c, d).")
    session.retract("e(a, b).")
    expected_true = set(session.true)
    expected_edb = session.edb()
    session.close()

    recovered = DatabaseSession.open(_dir(tmp_path), verify=True)
    assert recovered.edb() == expected_edb
    assert set(recovered.true) == expected_true
    info = recovered.stats()["durability"]
    # Clean shutdown checkpointed: nothing left to replay.
    assert info["replayed_txns"] == 0
    recovered.close()


def test_crash_reopen_replays_wal_tail(tmp_path):
    session = DatabaseSession(TC, path=_dir(tmp_path), fsync="always")
    session.insert("e(c, d).")
    session.insert("e(d, e).")
    expected_true = set(session.true)
    expected_edb = session.edb()
    session._durable.abandon()  # simulate a kill: no final checkpoint

    recovered = DatabaseSession.open(_dir(tmp_path), verify=True)
    assert recovered.edb() == expected_edb
    assert set(recovered.true) == expected_true
    info = recovered.stats()["durability"]
    assert info["replayed_txns"] == 2
    assert info["snapshot_txn"] == 0
    recovered.close()


def test_recovery_falls_back_past_corrupt_snapshot(tmp_path):
    session = DatabaseSession(TC, path=_dir(tmp_path), fsync="always")
    session.insert("e(c, d).")
    session.checkpoint()
    session.insert("e(d, e).")
    expected_edb = session.edb()
    session._durable.abandon()

    snapshots = list_snapshots(_dir(tmp_path))
    assert len(snapshots) == 2
    newest = snapshots[0][1]
    with open(newest, "r+b") as handle:
        handle.seek(20)
        handle.write(b"\xff" * 8)

    before = get_registry().counter(
        "repro_recovery_corrupt_snapshots",
        "Snapshots skipped as corrupt during recovery", family="durable",
    ).value
    recovered = DatabaseSession.open(_dir(tmp_path), verify=True)
    assert recovered.edb() == expected_edb
    info = recovered.stats()["durability"]
    assert len(info["corrupt_snapshots"]) == 1
    assert info["snapshot_txn"] == 0  # the older (initial) snapshot
    assert info["replayed_txns"] == 2
    after = get_registry().counter(
        "repro_recovery_corrupt_snapshots",
        "Snapshots skipped as corrupt during recovery", family="durable",
    ).value
    assert after == before + 1
    recovered.close()


def test_recovery_without_any_snapshot_replays_whole_wal(tmp_path):
    session = DatabaseSession(TC, path=_dir(tmp_path), fsync="always")
    session.insert("e(c, d).")
    expected_true = set(session.true)
    session._durable.abandon()
    for _txn, path in list_snapshots(_dir(tmp_path)):
        os.unlink(path)

    # Degraded path: rematerialize from program.hilog, replay everything.
    recovered = DatabaseSession.open(_dir(tmp_path), verify=True)
    assert set(recovered.true) == expected_true
    assert recovered.stats()["durability"]["snapshot_txn"] is None
    recovered.close()


def test_wellfounded_undefined_partition_survives_recovery(tmp_path):
    session = DatabaseSession(WIN_MOVE, path=_dir(tmp_path), fsync="always")
    session.insert("move(c, d).")
    expected_undef = set(session.undefined)
    expected_true = set(session.true)
    assert expected_undef
    session._durable.abandon()

    recovered = DatabaseSession.open(_dir(tmp_path), verify=True)
    assert set(recovered.undefined) == expected_undef
    assert set(recovered.true) == expected_true
    recovered.close()


def test_snapshot_of_another_mode_is_rematerialised(tmp_path, monkeypatch):
    """A directory checkpointed by a ``strategy="recompute"`` session
    (Figure 1) reopens under auto, which serves Example 6.3 on the engine:
    the snapshot's mode is not the session's, so its store is not adopted
    — the model is evaluated from the snapshot's EDB, the WAL tail replays
    as one batch through the new mode's write path (maintained along the
    walk that evaluation left), and the model is the same."""
    session = DatabaseSession(HILOG_GAME, strategy="recompute",
                              path=_dir(tmp_path), fsync="always")
    assert session.mode == "recompute"
    session.insert("m(c, d).")
    session.checkpoint()
    session.insert("m(d, e).")
    session.retract("m(a, b).")
    expected_true, expected_edb = set(session.true), session.edb()
    session._durable.abandon()

    import repro.db.session as session_module

    evaluated = []
    choose_mode = session_module.choose_mode

    def counting(*args):
        mode, plans, evaluator, reference = choose_mode(*args)

        def counted(edb):
            evaluated.append(len(edb))
            return evaluator(edb)

        return mode, plans, counted, reference

    monkeypatch.setattr(session_module, "choose_mode", counting)
    recovered = DatabaseSession.open(_dir(tmp_path), verify=True)
    assert recovered.mode == "wellfounded"
    info = recovered.stats()["durability"]
    assert info["snapshot_txn"] == 1 and info["replayed_txns"] == 2
    # one evaluation of the snapshot's EDB; the replayed tail, folded into
    # one batch, patches it
    assert len(evaluated) == 1
    assert recovered.stats()["alternating_updates"] == 1
    assert recovered.edb() == expected_edb
    assert set(recovered.true) == expected_true and recovered.is_total()
    recovered.close()

    # ... and the next open, snapshot and session agreeing, adopts the store.
    del evaluated[:]
    again = DatabaseSession.open(_dir(tmp_path), verify=True)
    assert again.mode == "wellfounded" and evaluated == []
    assert set(again.true) == expected_true
    again.close()


def test_open_uninitialized_directory_raises(tmp_path):
    with pytest.raises(DurabilityError):
        DatabaseSession.open(_dir(tmp_path))
    # The failed open released the lock.
    DatabaseSession(TC, path=_dir(tmp_path)).close()


def test_constructor_refuses_initialized_directory(tmp_path):
    DatabaseSession(TC, path=_dir(tmp_path)).close()
    with pytest.raises(SessionError, match="recover it"):
        DatabaseSession(TC, path=_dir(tmp_path))


def test_second_opener_fails_fast_with_lock_held(tmp_path):
    session = DatabaseSession(TC, path=_dir(tmp_path))
    with pytest.raises(LockHeld) as info:
        DatabaseSession.open(_dir(tmp_path))
    assert info.value.holder == os.getpid()
    # ... and the constructor path is equally locked out.
    with pytest.raises((LockHeld, SessionError)):
        DatabaseSession(TC, path=_dir(tmp_path))
    session.close()
    # Lock released on close: reopening now succeeds.
    DatabaseSession.open(_dir(tmp_path)).close()


def test_updates_after_close_raise(tmp_path):
    session = DatabaseSession(TC, path=_dir(tmp_path))
    session.close()
    # The in-memory side stays queryable...
    assert session.ask("tc(a, c)")
    # ...but updates raise rather than silently diverging from disk.
    with pytest.raises(SessionError, match="closed"):
        session.insert("e(c, d).")
    recovered = DatabaseSession.open(_dir(tmp_path))
    assert recovered.edb() == session.edb()
    recovered.close()


def test_checkpoint_every_triggers_automatic_snapshots(tmp_path):
    session = DatabaseSession(TC, path=_dir(tmp_path), checkpoint_every=2)
    session.insert("e(c, d).")
    assert session.stats()["durability"]["records_since_checkpoint"] == 1
    session.insert("e(d, e).")  # second record: snapshot fires
    assert session.stats()["durability"]["records_since_checkpoint"] == 0
    assert len(list_snapshots(_dir(tmp_path))) == 2
    session.close()


def test_checkpoint_requires_data_directory():
    session = DatabaseSession(TC)
    with pytest.raises(SessionError):
        session.checkpoint()


def test_failed_update_logs_abort_and_recovers_clean(tmp_path):
    session = DatabaseSession(TC, path=_dir(tmp_path), fsync="always",
                              max_facts=20)
    session.insert("e(c, d).")
    expected_edb = session.edb()
    from repro.hilog.errors import GroundingError

    with pytest.raises(GroundingError):
        session.insert(" ".join(
            "e(x%d, y%d)." % (i, i) for i in range(40)
        ))
    session._durable.abandon()

    recovered = DatabaseSession.open(_dir(tmp_path), verify=True)
    assert recovered.edb() == expected_edb
    recovered.close()


def test_failed_commit_closes_the_durable_side(tmp_path, monkeypatch):
    """A commit that fails once its batch applied (an fsync error, say)
    leaves the batch in memory but not in the log.  The session stops
    there: later writes and checkpoints raise, ``close()`` writes no
    snapshot holding the unlogged batch, and the directory reopens to
    exactly the acknowledged writes."""
    import errno

    from repro.durable.wal import WriteAheadLog

    rules = "tc(X, Y) :- e(X, Y).  tc(X, Y) :- e(X, Z), tc(Z, Y)."
    session = DatabaseSession("e(a, b). " + rules, path=_dir(tmp_path))
    commit = WriteAheadLog.commit

    def fail_once(wal, txn):
        monkeypatch.setattr(WriteAheadLog, "commit", commit)
        raise OSError(errno.EIO, "injected commit failure")

    monkeypatch.setattr(WriteAheadLog, "commit", fail_once)
    with pytest.raises(OSError):
        session.insert("e(b, c).")
    snapshots = list_snapshots(_dir(tmp_path))
    with pytest.raises(SessionError, match="reopen"):
        session.insert("e(c, d).")
    with pytest.raises(SessionError, match="closed"):
        session.checkpoint()
    session.close()
    assert list_snapshots(_dir(tmp_path)) == snapshots

    recovered = DatabaseSession.open(_dir(tmp_path), verify=True)
    assert {repr(atom) for atom in recovered.edb()} == {"e(a, b)"}
    recovered.close()


def test_checkpoint_after_close_raises(tmp_path):
    session = DatabaseSession(TC, path=_dir(tmp_path))
    session.close()
    successor = DatabaseSession.open(_dir(tmp_path))
    snapshots = list_snapshots(_dir(tmp_path))
    with pytest.raises(SessionError, match="closed"):
        session.checkpoint()
    assert list_snapshots(_dir(tmp_path)) == snapshots
    successor.close()
