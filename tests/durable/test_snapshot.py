"""Snapshot checkpoint unit tests: round-trip fidelity, write atomicity
under injected crashes, corruption detection and pruning."""

import marshal
import os
import struct
import zlib

import pytest

from repro.db import DatabaseSession
from repro.durable.faults import crash_at, CrashPoint
from repro.durable.snapshot import (
    MAGIC,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    write_snapshot,
)
from repro.hilog.errors import CorruptSnapshot

TC = """
    e(a, b). e(b, c). e(c, a).
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
"""

WIN_MOVE = """
    move(a, b). move(b, a). move(c, d).
    win(X) :- move(X, Y), not win(Y).
"""


def _checkpoint(session, directory, txn=0):
    return write_snapshot(
        str(directory), rules_text="%% rules", mode=session.mode, txn=txn,
        edb=session.edb(), store=session.store,
        undefined=session.undefined,
    )


def test_round_trip_preserves_model(tmp_path):
    session = DatabaseSession(TC)
    path = _checkpoint(session, tmp_path, txn=7)

    state = load_snapshot(path)
    assert state.txn == 7
    assert state.mode == session.mode
    assert state.rules_text == "%% rules"
    assert state.edb == session.edb()
    assert set(state.store) == set(session.store)
    # Hash-consing: restored atoms are the canonical interned objects.
    for atom in session.store:
        assert atom in state.store
    assert state.undefined == session.undefined


def test_round_trip_preserves_undefined_partition(tmp_path):
    session = DatabaseSession(WIN_MOVE)
    assert session.undefined  # the a<->b loop is undefined
    state = load_snapshot(_checkpoint(session, tmp_path))
    assert state.undefined == session.undefined
    assert set(state.store) == set(session.store)


def test_crash_mid_write_leaves_old_snapshot_set(tmp_path):
    session = DatabaseSession(TC)
    _checkpoint(session, tmp_path, txn=1)
    for point in ("snapshot.mid_write", "snapshot.pre_rename"):
        with crash_at(point):
            with pytest.raises(CrashPoint):
                _checkpoint(session, tmp_path, txn=2)
        # The crashed attempt never became visible as a snapshot.
        assert [txn for txn, _path in list_snapshots(str(tmp_path))] == [1]
        state = load_snapshot(list_snapshots(str(tmp_path))[0][1])
        assert state.txn == 1
    # The interrupted attempts left *.tmp strays; pruning clears them.
    strays = [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")]
    assert strays
    prune_snapshots(str(tmp_path))
    assert not [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")]


def test_crash_post_rename_publishes_snapshot(tmp_path):
    session = DatabaseSession(TC)
    with crash_at("snapshot.post_rename"):
        with pytest.raises(CrashPoint):
            _checkpoint(session, tmp_path, txn=3)
    (txn, path), = list_snapshots(str(tmp_path))
    assert txn == 3
    assert load_snapshot(path).txn == 3


@pytest.mark.parametrize("mangle", ["magic", "crc", "truncate", "body"])
def test_corruption_raises_corrupt_snapshot(tmp_path, mangle):
    session = DatabaseSession(TC)
    path = _checkpoint(session, tmp_path)
    with open(path, "r+b") as handle:
        if mangle == "magic":
            handle.write(b"XXXXXXXX")
        elif mangle == "crc":
            handle.seek(8)
            handle.write(b"\xde\xad\xbe\xef")
        elif mangle == "truncate":
            handle.truncate(os.path.getsize(path) // 2)
        else:  # body byte flip
            handle.seek(40)
            byte = handle.read(1)
            handle.seek(40)
            handle.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(CorruptSnapshot) as info:
        load_snapshot(path)
    assert info.value.path == path


def test_prune_keeps_newest_two(tmp_path):
    session = DatabaseSession(TC)
    for txn in range(5):
        _checkpoint(session, tmp_path, txn=txn)
    removed = prune_snapshots(str(tmp_path), keep=2)
    assert len(removed) == 3
    assert [txn for txn, _p in list_snapshots(str(tmp_path))] == [4, 3]


def test_snapshot_restores_from_frozen_store(tmp_path):
    # A store's copy serializes as the store itself does.
    session = DatabaseSession(TC)
    frozen = session.store.snapshot()
    path = write_snapshot(
        str(tmp_path), rules_text="r", mode=session.mode, txn=0,
        edb=session.edb(), store=frozen, undefined=session.undefined,
    )
    assert set(load_snapshot(path).store) == set(session.store)


def _rewrite_body(path, edit):
    """Rewrite the snapshot at ``path`` with ``edit`` applied to its
    decoded body, re-framed with a valid length and CRC."""
    with open(path, "rb") as handle:
        data = handle.read()
    trailer = struct.Struct("<IQ")
    body = marshal.loads(data[len(MAGIC) + trailer.size:])
    edit(body)
    blob = marshal.dumps(body)
    with open(path, "wb") as handle:
        handle.write(MAGIC + trailer.pack(zlib.crc32(blob) & 0xFFFFFFFF,
                                          len(blob)) + blob)


def _add_support_section(path):
    """Rewrite the snapshot at ``path`` as the format that kept per-fact
    support counts wrote it: the same body plus a ``"sup"`` list of
    ``(pool id, count)`` pairs, here a count of two for every stored fact
    and of three for every EDB atom the body does not store and for pool
    id 0, which names no fact."""
    def add(body):
        assert "sup" not in body
        stored = [term_id for _name, _arity, ids in body["rels"]
                  for term_id in ids]
        unstored = [term_id for term_id in body["edb"]
                    if term_id not in stored]
        body["sup"] = ([(term_id, 2) for term_id in stored]
                       + [(term_id, 3) for term_id in unstored] + [(0, 3)])
    _rewrite_body(path, add)


def test_a_snapshot_with_support_counts_still_loads(tmp_path):
    directory = str(tmp_path / "db")
    DatabaseSession("""
        hop2(X, Y) :- e(X, Z), e(Z, Y).
        e(a, b1). e(b1, c). e(a, b2). e(b2, c).
    """, path=directory).close()
    path = list_snapshots(directory)[0][1]
    current = load_snapshot(path)
    _add_support_section(path)
    legacy = load_snapshot(path)
    assert list(legacy.store) == list(current.store)
    assert legacy.edb == current.edb
    assert legacy.undefined == current.undefined

    session = DatabaseSession.open(directory, verify=True)
    assert not session.stats()["durability"]["corrupt_snapshots"]
    summary = session.retract("e(a, b1).")
    assert [repr(atom) for atom in summary.removed] == ["e(a, b1)"]
    assert session.ask("hop2(a, c)")
    assert session.check()
    session.close()


def test_support_count_of_an_unstored_atom_adds_no_fact(tmp_path):
    # A checkpoint serialized a pinned epoch's facts with the live store's
    # counts, so an older file can count an atom the epoch lacks (here:
    # asserted, so in the term pool, but not stored).  Loading it must not
    # resurrect the atom.
    session = DatabaseSession(TC)
    stray = next(iter(session.edb()))
    epoch = session.store.snapshot()
    epoch.remove(stray)
    path = write_snapshot(
        str(tmp_path), rules_text="r", mode=session.mode, txn=0,
        edb=session.edb(), store=epoch, undefined=session.undefined,
    )
    _add_support_section(path)
    restored = load_snapshot(path)
    assert set(restored.store) == set(epoch)
    assert stray not in restored.store
    assert stray in restored.edb


# -- bodies whose CRC holds but whose ids do not ------------------------------

def _one_edge_snapshot(tmp_path):
    """A snapshot of the single fact ``e(a, b)``, its pool
    ``["e", "b", "a", [0, 2, 1]]``: the relation's name first, then the
    atom's children, then the atom."""
    path = _checkpoint(DatabaseSession("e(a, b)."), tmp_path)
    with open(path, "rb") as handle:
        body = marshal.loads(
            handle.read()[len(MAGIC) + struct.calcsize("<IQ"):])
    assert body["pool"] == ["e", "b", "a", [0, 2, 1]]
    assert body["rels"] == [(0, 2, [3])]
    return path


def test_a_negative_pool_id_is_corrupt_not_indexed_backwards(tmp_path):
    # ``-1`` would name the last term decoded so far, ``a``: the body
    # loaded as ``e(a, a)``.
    path = _one_edge_snapshot(tmp_path)
    _rewrite_body(path, lambda body: body["pool"].__setitem__(3, [0, -1, 2]))
    with pytest.raises(CorruptSnapshot, match="negative id") as info:
        load_snapshot(path)
    assert info.value.path == path


def test_a_relation_atom_under_another_arity_is_corrupt(tmp_path):
    # The ``e/2`` atom filed under ``(e, 5)`` loaded where no query for
    # ``e/2`` finds it.
    path = _one_edge_snapshot(tmp_path)
    _rewrite_body(path, lambda body: body.__setitem__("rels", [(0, 5, [3])]))
    with pytest.raises(CorruptSnapshot, match="another indicator"):
        load_snapshot(path)


@pytest.mark.parametrize("damage", [
    # An application referring to itself, then to a later entry.
    lambda body: body["pool"].__setitem__(3, [0, 3, 1]),
    lambda body: body["pool"].__setitem__(1, [0, 2]),
    # A relation's name, a relation atom, an EDB and an undefined id.
    lambda body: body.__setitem__("rels", [(-4, 2, [3])]),
    lambda body: body.__setitem__("rels", [(0, 2, [4])]),
    lambda body: body.__setitem__("edb", [-1]),
    lambda body: body.__setitem__("undef", [4]),
], ids=["self-reference", "forward-reference", "negative-relation-name",
        "relation-atom-past-the-pool", "negative-edb-id",
        "undefined-id-past-the-pool"])
def test_ids_naming_no_term_are_corrupt(tmp_path, damage):
    path = _one_edge_snapshot(tmp_path)
    _rewrite_body(path, damage)
    with pytest.raises(CorruptSnapshot):
        load_snapshot(path)
