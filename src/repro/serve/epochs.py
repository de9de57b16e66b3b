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
readers (which take the current epoch and read it):

* **Atomic publication** — the current epoch swaps under the manager's
  lock, so a reader taking "the current epoch" always gets a complete
  model, never a half-applied batch.
* **An epoch is a value** — it is the reader: it answers every read of
  :class:`~repro.db.reads.ModelReads` from its own frozen layers.  The
  manager keeps only the current epoch and forgets it at the next
  publication; a reader that holds an older one keeps reading that model
  for as long as it holds it.  Nothing pins, releases or retires an
  epoch — a base shared by several epochs lives exactly as long as
  something holds one of them.
* **Intern-GC safety** — an epoch's stores hold every atom it can
  answer, and term eviction (:func:`~repro.hilog.terms.collect_terms`)
  takes only terms that nothing holds — a term's reference count alone
  decides — so a reader's view stays valid for as long as the reader
  holds the epoch object.  (Terms compare by identity: evicting an atom a
  reader can still fetch would silently turn its lookups into misses.)
* **Rebase policy** — each batch is netted into a *copy* of the previous
  epoch's delta, so a reader consults exactly one delta however many
  batches separate its epoch from the base; when the delta's volume
  exceeds :data:`REBASE_RATIO` of the base (and the absolute floor
  :data:`REBASE_MIN`), the manager publishes a fresh frozen snapshot
  instead, keeping per-read overhead bounded under unbounded churn.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.db.reads import ModelReads
from repro.engine.seminaive.relation import Delta, FactSource, RelationStore, StoreView
from repro.obs.trace import current_tracer

#: The rebase policy: publish a fresh frozen snapshot instead of a further
#: delta once the delta's volume (additions + removals) exceeds this
#: fraction of the base's size ...
REBASE_RATIO = 0.5
#: ... and this absolute volume, below which no rebase happens whatever the
#: ratio (keeps tiny models from rebasing on every batch).
REBASE_MIN = 256


class Epoch(ModelReads):
    """One published snapshot of the maintained model, and the reader over
    it.

    Immutable after construction (the serving invariant readers rely on,
    enforced by freezing: the base and both sides of the delta raise from
    every mutator).  Usable as a context manager, which does nothing: a
    ``with serving.reader() as reader:`` block reads one epoch throughout.
    """

    __slots__ = ("eid", "base", "delta", "store", "undefined")

    def __init__(self, eid, base: RelationStore, delta: Optional[Delta],
                 undefined) -> None:
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

    def _model(self):
        return self.store, self.undefined

    def is_base(self):
        """True when this epoch is a frozen full snapshot with no delta."""
        return self.delta is None

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


class EpochManager:
    """Publishes epochs for one writer; readers take :attr:`current`.

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
        self._rebases = 0

    def publish_base(self, undefined=frozenset()):
        """Publish a fresh frozen full snapshot as the new current epoch
        (the initial publication, and the rebase path).  Runs ``snapshot()``
        on the calling (writer) thread; only the swap takes the lock."""
        return self._install(self._snapshot().freeze(), None, undefined)

    def publish_delta(self, added, removed, undefined=frozenset()):
        """Publish the net effect of one maintained batch as the new
        current epoch: the current epoch's base under a copy of its delta
        with the batch netted in, or — once that delta outgrows the rebase
        policy — a fresh frozen snapshot.

        ``added`` / ``removed`` are exact model diffs (the maintained
        store already reflects them — :class:`~repro.db.session.UpdateSummary`
        semantics).  Construction happens outside the lock and on a copy:
        the published layers are frozen and readers of the current epoch
        never see the new batch, so only the final swap synchronizes."""
        current = self.current
        if current is None:
            return self.publish_base(undefined)
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
                tracer.emit("rebase", overlay=volume, base=len(base))
            return self.publish_base(undefined)
        return self._install(base, delta.freeze(), undefined)

    def _install(self, base, delta, undefined):
        """Swap ``base`` ⊕ ``delta`` in as the current epoch.  The previous
        one is forgotten; a reader still holding it keeps reading it."""
        with self._lock:
            epoch = Epoch(self._next_eid, base, delta, frozenset(undefined))
            self._next_eid += 1
            self._current = epoch
        return epoch

    @property
    def current(self):
        """The current epoch, or ``None`` before the first publication and
        after :meth:`close`."""
        with self._lock:
            return self._current

    def stats(self):
        """Publication counters for diagnostics."""
        with self._lock:
            current = self._current
            return {
                "published": self._next_eid,
                "rebases": self._rebases,
                "current_eid": current.eid if current is not None else None,
                "current_is_base": current.is_base() if current is not None
                else None,
                "current_overlay": 0 if current is None or current.is_base()
                else len(current.delta),
            }

    def close(self):
        """Forget the current epoch (the serving session is shutting down);
        readers still holding an epoch keep reading it."""
        with self._lock:
            self._current = None
