"""Unit tests for the epoch layer: frozen snapshots, base ⊕ delta epochs
and the epoch manager's publication/rebase machinery, then the
published epochs against the session they follow.  (What a base ⊕ delta
view answers to each question of the fact-source protocol is in
``tests/engine/test_fact_sources.py``.)"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.magic.evaluate import answer_from_store
from repro.db import DatabaseSession
from repro.engine.seminaive.relation import RelationStore
from repro.hilog.errors import FrozenStoreError
from repro.hilog.parser import parse_term
from repro.hilog.program import Literal
from repro.hilog.terms import collect_terms
from repro.serve import epochs as epochs_module
from repro.serve.epochs import EpochManager


def atoms(*texts):
    return [parse_term(text) for text in texts]


def base_store(*texts):
    store = RelationStore()
    for atom in atoms(*texts):
        store.add(atom)
    return store


class TestFrozenStore:
    def test_freeze_blocks_every_mutator(self):
        store = base_store("e(a, b)")
        present, absent = atoms("e(a, b)", "e(b, c)")
        store.freeze()
        assert store.frozen
        with pytest.raises(FrozenStoreError):
            store.add(absent)
        with pytest.raises(FrozenStoreError):
            store.remove(present)

    def test_frozen_duplicate_add_still_short_circuits(self):
        # Set semantics win over the freeze guard: re-adding a present atom
        # was always a no-op and stays one (idempotent loaders rely on it).
        store = base_store("e(a, b)")
        store.freeze()
        assert store.add(atoms("e(a, b)")[0]) is False

    def test_frozen_store_still_reads_and_builds_indexes(self):
        store = base_store("e(a, b)", "e(a, c)", "e(b, c)")
        store.freeze()
        e_name, a = atoms("e", "a")
        facts = store.fetch(e_name, 2, (0,), a)
        assert len(facts) == 2  # lazy index built post-freeze

    def test_snapshot_is_independent(self):
        store = base_store("e(a, b)")
        clone = store.snapshot()
        extra = atoms("e(b, c)")[0]
        store.add(extra)
        assert extra not in clone
        clone.add(atoms("e(c, d)")[0])
        assert atoms("e(c, d)")[0] in clone
        assert atoms("e(c, d)")[0] not in store
        assert len(clone) == 2 and len(store) == 2


class TestEpochManager:
    def manager(self, store):
        return EpochManager(store.snapshot)

    def test_publish_base_then_delta(self):
        store = base_store("e(a, b)")
        manager = self.manager(store)
        first = manager.publish_base()
        assert first.is_base() and first.eid == 0
        added = atoms("e(b, c)")
        store.add(added[0])
        second = manager.publish_delta(added, [])
        assert not second.is_base()
        assert added[0] in second and added[0] not in first
        assert manager.current is second

    def test_a_held_epoch_keeps_its_model_after_the_next_publication(self):
        store = base_store("e(a, b)")
        manager = self.manager(store)
        first = manager.publish_base()
        held = manager.current
        assert held is first
        (added,) = atoms("e(b, c)")
        second = manager.publish_delta([added], [])
        assert manager.current is second
        assert added not in held and len(held) == 1
        assert held.query("e(X, Y)") == tuple(atoms("e(a, b)"))
        assert added in second and len(second) == 2

    def test_delta_is_read_over_the_untouched_base(self):
        store = base_store("e(a, b)", "e(b, c)")
        manager = self.manager(store)
        first = manager.publish_base()
        kept, gone, new = atoms("e(b, c)", "e(a, b)", "e(c, d)")
        second = manager.publish_delta([new], [gone])
        assert kept in second and new in second and gone not in second
        assert len(second) == 2
        assert sorted(map(str, second.store)) == ["e(b, c)", "e(c, d)"]
        assert second.base is first.base
        assert gone in first and new not in first and len(first) == 2

    def test_removing_a_published_addition_cancels_it(self):
        store = base_store("e(a, b)")
        manager = self.manager(store)
        manager.publish_base()
        (extra,) = atoms("e(b, c)")
        manager.publish_delta([extra], [])
        assert manager.stats()["current_overlay"] == 1
        epoch = manager.publish_delta([], [extra])
        assert extra not in epoch and len(epoch) == 1
        assert manager.stats()["current_overlay"] == 0
        assert not epoch.is_base()

    def test_re_adding_a_removed_base_fact_cancels_the_removal(self):
        store = base_store("e(a, b)")
        manager = self.manager(store)
        manager.publish_base()
        (old,) = atoms("e(a, b)")
        hidden = manager.publish_delta([], [old])
        assert old not in hidden and manager.stats()["current_overlay"] == 1
        shown = manager.publish_delta([old], [])
        assert old in shown and manager.stats()["current_overlay"] == 0
        assert old not in hidden  # the earlier epoch keeps its own delta

    def test_batches_collapse_into_one_delta_over_the_first_base(self):
        store = base_store("e(a, b)")
        manager = self.manager(store)
        first = manager.publish_base()
        epoch = manager.publish_delta(atoms("e(b, c)"), [])
        for step in range(3):
            epoch = manager.publish_delta(atoms("f(n%d)" % step), [])
        assert epoch.base is first.base  # one delta, however many batches
        assert len(epoch) == 5 and len(epoch.delta) == 4
        assert manager.stats()["current_overlay"] == 4

    def test_published_layers_are_frozen(self):
        store = base_store("e(a, b)")
        manager = self.manager(store)
        manager.publish_base()
        epoch = manager.publish_delta(atoms("e(b, c)"), atoms("e(a, b)"))
        assert epoch.base.frozen
        (fresh,) = atoms("e(c, d)")
        for mutate in (epoch.base.add, epoch.delta.added.add,
                       epoch.delta.removed.add, epoch.delta.record_add,
                       epoch.delta.record_remove, epoch.store.add):
            with pytest.raises(FrozenStoreError):
                mutate(fresh)

    def test_epoch_holds_base_additions_removals_and_undefined(self):
        # Only the epoch holds the addition and the undefined atom: a sweep
        # keeps them canonical, so a reparse finds the objects it stores.
        store = base_store("e(ep_a, ep_b)")
        manager = self.manager(store)
        manager.publish_base()
        epoch = manager.publish_delta(
            atoms("e(ep_b, ep_c)"), atoms("e(ep_a, ep_b)"),
            undefined=atoms("win(ep_a)"))
        collect_terms()
        assert atoms("e(ep_b, ep_c)")[0] in epoch.store
        assert atoms("e(ep_a, ep_b)")[0] in epoch.base
        assert atoms("e(ep_a, ep_b)")[0] not in epoch.store
        assert atoms("win(ep_a)")[0] in epoch.undefined

    def test_rebase_after_overlay_outgrows_base(self, monkeypatch):
        monkeypatch.setattr(epochs_module, "REBASE_MIN", 2)
        store = base_store("e(a, b)", "e(b, c)")
        manager = self.manager(store)
        manager.publish_base()
        epochs = []
        for step in range(4):
            atom = atoms("f(n%d)" % step)[0]
            store.add(atom)
            epochs.append(manager.publish_delta([atom], []))
        assert manager.stats()["rebases"] >= 1
        assert any(epoch.is_base() for epoch in epochs)
        assert len(epochs[-1]) == 6  # rebasing never changes the contents

    def test_no_current_epoch_before_publication_or_after_close(self):
        store = base_store("e(a, b)")
        manager = self.manager(store)
        assert manager.current is None
        epoch = manager.publish_base()
        manager.close()
        assert manager.current is None
        assert epoch.ask("e(a, b)") and len(epoch) == 1  # a held epoch reads


# ---------------------------------------------------------------------------
# Epoch ≡ session, batch by batch, across rebases
# ---------------------------------------------------------------------------

NODES = ["n%d" % i for i in range(5)]
PROGRAMS = {
    # a stratified session: delete-rederive over tc/2
    "tc": ("""
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
        e(n0, n1). e(n1, n2).
     """, "e", ["tc(n0, X)", "tc(X, n2)", "e(X, Y)", "tc(X, X)", "tc(n1, n2)",
                "M(n0, X)", "X"]),
    # a win/move session: every batch reruns the alternating fixpoint
    "win": ("""
        win(X) :- move(X, Y), not win(Y).
        move(n0, n1). move(n1, n2).
     """, "move", ["win(X)", "move(n0, X)", "move(X, Y)", "win(n1)", "M(n1)",
                   "M(X, n2)"]),
}


def _batches(relation):
    edges = ["%s(%s, %s)." % (relation, x, y)
             for x in NODES for y in NODES if x != y]
    batch = st.tuples(st.lists(st.sampled_from(edges), max_size=4),
                      st.lists(st.sampled_from(edges), max_size=4))
    return st.lists(batch, min_size=1, max_size=10)


def _state(store, undefined, patterns):
    """Everything a reader can ask of one model, in comparable form."""
    return (
        sorted(store, key=repr), len(store), sorted(undefined, key=repr),
        [answer_from_store(store, (Literal(pattern),)).answers
         for pattern in patterns],
    )


@mock.patch.object(epochs_module, "REBASE_MIN", 2)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_epochs_follow_the_session_across_rebases(name, data):
    text, relation, patterns = PROGRAMS[name]
    patterns = [parse_term(pattern) for pattern in patterns]
    batches = data.draw(_batches(relation))
    # the fixed tail grows a chain and tears it down: whatever was drawn,
    # the stream ends having crossed a rebase
    chain = ["%s(%s, %s)." % (relation, x, y) for x, y in zip(NODES, NODES[1:])]
    batches += [(chain, []), ([], chain)]

    session = DatabaseSession(text)
    # (a well-founded session replaces its store on every write)
    manager = EpochManager(lambda: session.store.snapshot())
    manager.publish_base(undefined=session.undefined)
    session.add_update_listener(lambda summary: manager.publish_delta(
        summary.added, summary.removed, undefined=session.undefined))
    try:
        for inserts, retracts in batches:
            pinned = manager.current
            before = _state(pinned.store, pinned.undefined, patterns)
            assert before == _state(session.store, session.undefined, patterns)

            session.update(
                inserts=[fact for fact in inserts if fact not in retracts],
                retracts=retracts)

            current = manager.current
            after = _state(session.store, session.undefined, patterns)
            assert _state(current.store, current.undefined, patterns) == after
            # the reader that pinned the old epoch still reads the old model
            assert _state(pinned.store, pinned.undefined, patterns) == before
            collect_terms()
            assert _state(current.store, current.undefined, patterns) == after
            assert _state(pinned.store, pinned.undefined, patterns) == before
            assert _state(session.store, session.undefined, patterns) == after
        assert manager.stats()["rebases"] >= 1
        assert session.check()
    finally:
        manager.close()
