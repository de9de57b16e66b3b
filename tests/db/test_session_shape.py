"""The session's shape: one store object for life, one write path whatever
the entry, and no other package reaching into a session's privates."""

import ast
from pathlib import Path

import pytest

import repro
from repro.core.magic.evaluate import answer_from_store
from repro.db import DatabaseSession
from repro.hilog.errors import GroundingError
from repro.hilog.parser import parse_query, parse_term
from repro.serve import ServingSession
from repro.workloads.parts import bicycle_parts_program

TC = """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    e(a, b). e(b, c).
"""
WIN = """
    win(X) :- move(X, Y), not win(Y).
    move(a, b). move(b, a). move(b, c).
"""

#: mode -> (program, ops); every op changes the EDB, the last undoes one.
CASES = {
    "incremental": (TC, [
        ("insert", "e(c, d)."), ("insert", "e(d, a). e(x, y)."),
        ("retract", "e(b, c)."), ("retract", "e(x, y)."),
    ]),
    "wellfounded": (WIN, [
        ("insert", "move(c, d)."), ("retract", "move(b, a)."),
        ("insert", "move(d, c). move(e, e)."), ("retract", "move(c, d)."),
    ]),
    # Recursion through aggregation: what the Figure-1 fallback still owns.
    "recompute": (bicycle_parts_program(), [
        ("insert", "part_bike(frame, bolt, 4)."),
        ("insert", "part_bike(wheel, hub, 1). part_bike(x, y, 2)."),
        ("retract", "part_bike(bicycle, frame, 1)."),
        ("retract", "part_bike(x, y, 2)."),
    ]),
}


# -- (a) the package boundary ------------------------------------------------

def _names_a_session(node):
    """Whether an expression reads as a session object: a name or attribute
    called ``session`` / ``_session`` / ``serving`` (``self`` never is)."""
    name = node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else ""
    return name.lower().endswith("session") or name == "serving"


def test_other_packages_read_no_session_private():
    root = Path(repro.__file__).parent
    offenders = []
    for package in ("serve", "durable", "obs"):
        for path in sorted((root / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) \
                        and node.attr.startswith("_") \
                        and not node.attr.startswith("__") \
                        and _names_a_session(node.value):
                    offenders.append("%s:%d %s" % (
                        path.relative_to(root), node.lineno, node.attr))
    assert offenders == []


# -- (b) one store object ----------------------------------------------------

def _sees_model(store, session):
    """``answer_from_store`` over ``store`` answers from the session's
    current model."""
    answers = answer_from_store(store, parse_query("P(X, Y)")).answers
    return set(answers) == {a for a in session.true if len(a.args) == 2}


@pytest.mark.parametrize("mode", sorted(CASES))
def test_store_is_one_object_across_writes(mode):
    program, ops = CASES[mode]
    session = DatabaseSession(program)
    assert session.mode == mode
    store0 = session.store
    snapshot = store0.snapshot  # what an EpochManager is handed
    for action, facts in ops:
        getattr(session, action)(facts)
        assert session.store is store0
        assert _sees_model(store0, session)
        assert frozenset(snapshot()) == session.true
    assert session.check()


def test_store_survives_a_rebuild_and_a_failed_one(monkeypatch):
    import repro.db.session as session_module

    session = DatabaseSession(TC, max_facts=9)
    store0 = session.store
    before = session.true
    with pytest.raises(GroundingError):  # blows the cap: rebuilt, rolled back
        session.insert("e(c, d). e(d, f). e(f, g).")
    assert session.store is store0 and session.true == before
    assert session.stats()["rebuilds"] == 1

    def explode(*_args, **_kwargs):
        raise GroundingError("synthetic maintenance failure")

    monkeypatch.setattr(session_module, "dred_update", explode)
    summary = session.insert("e(c, d).")
    monkeypatch.undo()
    assert summary.mode == "rebuild" and session.store is store0
    assert set(summary.added) == session.true - before
    assert _sees_model(store0, session)
    # the rebuilt support counts are the live store's: maintenance goes on
    session.retract("e(b, c).")
    assert not session.ask("tc(a, d)") and session.check()


# -- (c) one write path ------------------------------------------------------

def _plain(summary):
    return (summary.inserted, summary.retracted, frozenset(summary.added),
            frozenset(summary.removed), summary.strata_touched, summary.mode,
            frozenset(summary.undefined_added),
            frozenset(summary.undefined_removed))


def _state(session):
    return session.true, session.undefined, session.edb(), session.check()


def _via_insert_retract(session, action, facts):
    return getattr(session, action)(facts)


def _via_update(session, action, facts):
    return session.update(**{action + "s": facts})


def _via_transaction(session, action, facts):
    with session.transaction() as transaction:
        getattr(transaction, action)(facts)
    return transaction.result


@pytest.mark.parametrize("mode", sorted(CASES))
def test_every_write_entry_is_the_same_write(mode, tmp_path):
    program, ops = CASES[mode]
    reference = DatabaseSession(program)
    expected = [_plain(_via_insert_retract(reference, *op)) for op in ops]
    assert all(s[0] + s[1] for s in expected)  # every op did something
    model = _state(reference)

    for entry in (_via_update, _via_transaction):
        session = DatabaseSession(program)
        assert [_plain(entry(session, *op)) for op in ops] == expected
        assert _state(session) == model

    with ServingSession(program) as serving:
        got = [_plain(serving.submit(**{action + "s": facts}).result(10))
               for action, facts in ops]
        assert got == expected
        assert _state(serving.session) == model
        with serving.reader() as reader:
            assert frozenset(reader.store) == model[0]

    # kill-and-open: the WAL tail replays through the same path, its
    # transactions folded into one batch
    durable = DatabaseSession(program, path=str(tmp_path / "data"),
                              fsync="always")
    assert [_plain(_via_insert_retract(durable, *op)) for op in ops] == expected
    durable._durable.abandon()
    recovered = DatabaseSession.open(str(tmp_path / "data"))
    assert recovered.stats()["durability"]["replayed_txns"] == len(ops)
    assert recovered.stats()["updates"] == 1
    assert _state(recovered) == model
    recovered.close()


def test_replay_is_an_update_like_any_other(tmp_path):
    """The replayed tail's net batch runs the session's whole write path —
    including the ``intern_gc`` count that schedules the sweep."""
    durable = DatabaseSession(TC, path=str(tmp_path / "data"), fsync="always")
    for i in range(5):
        durable.insert("e(n%d, n%d)." % (i, i + 1))
    durable._durable.abandon()
    recovered = DatabaseSession.open(str(tmp_path / "data"), intern_gc=2)
    assert recovered.stats()["updates_since_collect"] == 1  # one net batch
    assert recovered.ask(parse_term("tc(n0, n5)")) and recovered.check()
    recovered.close()
