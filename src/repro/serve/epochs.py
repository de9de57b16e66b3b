"""Immutable reader epochs over a maintained deductive database.

One **epoch** is one published, never-mutated view of the maintained
model: a frozen :class:`~repro.engine.seminaive.relation.RelationStore`
snapshot (the *base*), alone or under a frozen
:class:`~repro.engine.seminaive.relation.Delta` holding the net diff of
the update batches since that snapshot — read through the
:class:`~repro.engine.seminaive.relation.StoreView`
``(base ∪ delta.added) − delta.removed``.
The :class:`EpochManager` is the single point of coordination between the
writer (which publishes a new epoch after every maintained batch) and the
readers (which pin the current epoch for the duration of a query):

* **Atomic publication** — the current epoch swaps under the manager's
  lock, so a reader acquiring "the current epoch" always gets a complete
  model, never a half-applied batch.
* **Pinning** — :meth:`EpochManager.acquire` increments the epoch's
  refcount *under the same lock* that publication takes, so an epoch can
  never retire between a reader choosing it and pinning it.
* **Liveness** — an epoch is live while it is current or pinned by at
  least one reader; the manager's live table is the only liveness record.
  A base shared by several epochs stays reachable exactly as long as one
  of them is live.
* **Intern-GC safety** — an epoch's stores hold every atom it can
  answer, and term eviction (:func:`~repro.hilog.terms.collect_terms`)
  takes only terms that nothing holds — a term's reference count alone
  decides — so a reader's view stays valid for as long as the reader
  holds the epoch object, retired or not.  (Terms compare by identity:
  evicting an atom a reader can still fetch would silently turn its
  lookups into misses.)
* **Rebase policy** — each batch is netted into a *copy* of the previous
  epoch's delta, so a reader consults exactly one delta however many
  batches separate its epoch from the base; when the delta's volume
  exceeds :data:`REBASE_RATIO` of the base (and the absolute floor
  :data:`REBASE_MIN`), the manager publishes a fresh frozen snapshot
  instead, keeping per-read overhead bounded under unbounded churn.

Epochs deliberately know nothing about queries — reading an epoch is
:func:`repro.engine.seminaive.relation.matching_facts` over ``epoch.store``,
exactly the maintained-store query path, which both shapes serve.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.engine.seminaive.relation import Delta, FactSource, RelationStore, StoreView
from repro.obs.trace import current_tracer

#: The rebase policy: publish a fresh frozen snapshot instead of a further
#: delta once the delta's volume (additions + removals) exceeds this
#: fraction of the base's size ...
REBASE_RATIO = 0.5
#: ... and this absolute volume, below which no rebase happens whatever the
#: ratio (keeps tiny models from rebasing on every batch).
REBASE_MIN = 256


class Epoch:
    """One published snapshot of the maintained model.

    Immutable after construction (the serving invariant readers rely on,
    enforced by freezing: the base and both sides of the delta raise from
    every mutator); the mutable ``refs`` counter is owned by the
    :class:`EpochManager` and only ever touched under its lock.
    """

    __slots__ = ("eid", "base", "delta", "store", "undefined", "version",
                 "refs", "_live")

    def __init__(self, eid, base: RelationStore, delta: Optional[Delta],
                 undefined, version) -> None:
        #: Monotone epoch number (0 is the initial model).
        self.eid = eid
        #: The frozen full snapshot this epoch reads through.
        self.base = base
        #: The frozen net diff from ``base`` to this epoch's model;
        #: ``None`` when the epoch *is* its base.
        self.delta = delta
        #: The epoch's fact view: the base, or base ⊕ delta.
        if delta is None:
            self.store: FactSource = base
        else:
            self.store = StoreView((base, delta.added), minus=delta.removed)
        #: Undefined atoms of the model at this epoch (well-founded mode).
        self.undefined = undefined
        #: The session version this epoch reflects.
        self.version = version
        #: Reader pins (managed by the EpochManager, under its lock).
        self.refs = 0
        self._live = True

    def __len__(self):
        return len(self.store)

    def __contains__(self, atom):
        return atom in self.store

    @property
    def live(self):
        """Whether the epoch is still current or read-pinned."""
        return self._live

    def is_base(self):
        """True when this epoch is a frozen full snapshot with no delta."""
        return self.delta is None


class EpochManager:
    """Publishes epochs for one writer and pins them for many readers.

    Args:
        snapshot: zero-argument callable returning a fresh
            :class:`RelationStore` copy of the maintained store as it is
            when called, on the writer thread — ``session.store.snapshot``:
            a session keeps one store object for life, in every mode, so
            the bound method stays current.  Used for the initial epoch
            and for rebases.
    """

    def __init__(self, snapshot):
        self._snapshot = snapshot
        self._lock = threading.Lock()
        self._current = None
        self._next_eid = 0
        #: eid -> Epoch, every epoch that is current or read-pinned.
        self._live = {}
        self._rebases = 0
        self._published = 0

    # -- publication (writer side) ------------------------------------------

    def publish_base(self, undefined=frozenset(), version=0):
        """Publish a fresh frozen full snapshot as the new current epoch
        (the initial publication, and the rebase path).  Runs ``snapshot()``
        on the calling (writer) thread; only the swap takes the lock."""
        return self._install(self._snapshot().freeze(), None, undefined, version)

    def publish_delta(self, added, removed, undefined=frozenset(), version=0):
        """Publish the net effect of one maintained batch as the new
        current epoch: the current epoch's base under a copy of its delta
        with the batch netted in, or — once that delta outgrows the rebase
        policy — a fresh frozen snapshot.

        ``added`` / ``removed`` are exact model diffs (the maintained
        store already reflects them — :class:`~repro.db.session.UpdateSummary`
        semantics).  Construction happens outside the lock and on a copy:
        the published layers are frozen and readers of the current epoch
        never see the new batch, so only the final swap synchronizes."""
        with self._lock:
            current = self._current
        if current is None:
            return self.publish_base(undefined, version)
        delta = Delta() if current.delta is None else current.delta.copy()
        for atom in removed:
            delta.record_remove(atom)
        for atom in added:
            delta.record_add(atom)
        base = current.base
        volume = len(delta)
        if volume > REBASE_MIN and volume > REBASE_RATIO * max(len(base), 1):
            self._rebases += 1
            tracer = current_tracer()
            if tracer is not None:
                tracer.emit("rebase", overlay=volume, base=len(base),
                            version=version)
            return self.publish_base(undefined, version)
        return self._install(base, delta.freeze(), undefined, version)

    def _install(self, base, delta, undefined, version):
        """Swap ``base`` ⊕ ``delta`` in as the current epoch, retiring the
        old current epoch's *current* pin (readers still holding it keep it
        live)."""
        with self._lock:
            epoch = Epoch(self._next_eid, base, delta, frozenset(undefined),
                          version)
            self._next_eid += 1
            self._published += 1
            self._live[epoch.eid] = epoch
            previous, self._current = self._current, epoch
            if previous is not None and previous.refs == 0:
                self._retire_locked(previous)
        return epoch

    # -- pinning (reader side) ----------------------------------------------

    def acquire(self):
        """Pin and return the current epoch.  The pin is taken under the
        publication lock, so the returned epoch is guaranteed live until
        the matching :meth:`release`."""
        with self._lock:
            epoch = self._current
            if epoch is None:
                raise RuntimeError("no epoch has been published yet")
            epoch.refs += 1
            return epoch

    def release(self, epoch):
        """Drop one reader pin; retires the epoch when it is no longer
        current and unpinned."""
        with self._lock:
            if epoch.refs > 0:
                epoch.refs -= 1
            if epoch.refs == 0 and epoch is not self._current \
                    and epoch._live:
                self._retire_locked(epoch)

    def _retire_locked(self, epoch):
        """Remove the epoch from the live table (caller holds the lock).
        Its atoms stay interned for as long as something still holds the
        epoch's stores."""
        epoch._live = False
        self._live.pop(epoch.eid, None)

    # -- introspection -------------------------------------------------------

    @property
    def current(self):
        """The current epoch (unpinned — use :meth:`acquire` to read)."""
        with self._lock:
            return self._current

    def live_epochs(self):
        """Snapshot of the live epoch table (current + reader-pinned)."""
        with self._lock:
            return list(self._live.values())

    def stats(self):
        """Publication / pinning counters for diagnostics."""
        with self._lock:
            current = self._current
            return {
                "published": self._published,
                "rebases": self._rebases,
                "live_epochs": len(self._live),
                "current_eid": current.eid if current is not None else None,
                "current_refs": current.refs if current is not None else 0,
                "current_is_base": current.is_base() if current is not None
                else None,
                "current_overlay": 0 if current is None or current.is_base()
                else len(current.delta),
            }

    def close(self):
        """Retire every epoch (the serving session is shutting down);
        readers still pinned keep their store objects, and with them the
        interned terms those hold."""
        with self._lock:
            for epoch in list(self._live.values()):
                self._retire_locked(epoch)
            self._current = None
