"""Indexed fact relations for the semi-naive engine.

A :class:`RelationStore` partitions ground atoms by *predicate indicator* —
the pair ``(predicate-name term, arity)`` — the HiLog analogue of the
``p/n`` indicators of a deductive database.  Because HiLog predicate names
may themselves be complex terms (``winning(m)``), the name component of the
indicator is an arbitrary ground term; atoms that are not applications
(propositional symbols) use arity ``-1`` so that ``p`` and the zero-ary
application ``p()`` stay distinct (footnote 1 of the paper).

Each :class:`Relation` keeps its facts in an insertion-ordered set together
with on-demand hash indexes keyed by subsets of argument positions: the
first lookup that binds positions ``(0, 2)`` builds a dictionary from the
values at those positions to the matching facts, and subsequent insertions
and removals keep every existing index current.  This is what makes
semi-naive joins run in time proportional to the number of matching facts
instead of the size of the relation.

The store additionally supports the operations an *incremental* deductive
database (:mod:`repro.db`) needs on top of monotone insertion:

* :meth:`RelationStore.remove` — delete a fact, maintaining every index
  (used by delete-rederive maintenance);
* *support counts* — :meth:`RelationStore.add_support` /
  :meth:`RelationStore.remove_support` track how many derivations support
  each fact, the bookkeeping of the counting algorithm for non-recursive
  views (Gupta, Mumick & Subrahmanian, SIGMOD'93).  A fact disappears from
  the store exactly when its last support is removed.  The plain
  :meth:`RelationStore.add` has set semantics (a duplicate insert does *not*
  accumulate support) and gives a fact a single support.

Lookups with a *non-ground* predicate name (the higher-order case, e.g. the
body literal ``M(X, Y)`` before ``M`` is bound) fall back to a spill scan
over every relation of the right arity, optionally narrowed by the
outermost symbol of the pattern's name.

For the concurrent serving subsystem (:mod:`repro.serve`) the store grows
*snapshot* machinery: :meth:`RelationStore.snapshot` produces an O(n)
structural copy, :meth:`RelationStore.freeze` turns a store immutable
(mutators raise :class:`FrozenStoreError`; lazy index building remains
legal — it is idempotent over frozen facts, so concurrent readers can
race it safely), and :class:`OverlayStore` is an immutable copy-on-write
view layering a batch's added/removed atoms over a frozen base.  Frozen
bases and overlays both carry **epoch refcounts**
(:meth:`~RelationStore.acquire` / :meth:`~RelationStore.release`): each
live reader epoch holds one reference, so the serving layer knows when a
layer is unreachable and may drop it from intern-GC pin sets.
"""

from __future__ import annotations

from repro.hilog.errors import FrozenStoreError, GroundingError
from repro.hilog.terms import App, Var, outermost_symbol


def predicate_indicator(atom):
    """The ``(name, arity)`` indicator of a ground atom.

    Non-application atoms (bare symbols used as propositions) get arity
    ``-1`` so they never collide with zero-ary applications.
    """
    if isinstance(atom, App):
        return (atom.name, len(atom.args))
    return (atom, -1)


class Relation:
    """The facts of one predicate indicator, with on-demand hash indexes.

    Facts are stored as the keys of an insertion-ordered dictionary (a
    constant-time ordered set), so removal is as cheap as insertion and
    iteration order stays deterministic.
    """

    __slots__ = ("indicator", "facts", "_indexes")

    def __init__(self, indicator):
        self.indicator = indicator
        # atom -> None: an insertion-ordered set supporting O(1) removal.
        self.facts = {}
        # positions tuple -> {argument-value tuple: {atom: None}}
        self._indexes = {}

    def __len__(self):
        return len(self.facts)

    def __iter__(self):
        return iter(self.facts)

    # Single-position indexes are keyed by the bare argument term (whose
    # hash is cached by interning); multi-position indexes by the argument
    # tuple.  Callers pass keys in the same shape (the join compiler and
    # ``RelationStore.candidates`` both do).

    def add(self, atom):
        """Insert a fact (assumed new — membership lives in the store)."""
        self.facts[atom] = None
        for positions, table in self._indexes.items():
            if len(positions) == 1:
                key = atom.args[positions[0]]
            else:
                key = tuple(atom.args[i] for i in positions)
            table.setdefault(key, {})[atom] = None

    def remove(self, atom):
        """Delete a fact (assumed present), maintaining every index."""
        del self.facts[atom]
        for positions, table in self._indexes.items():
            if len(positions) == 1:
                key = atom.args[positions[0]]
            else:
                key = tuple(atom.args[i] for i in positions)
            bucket = table.get(key)
            if bucket is not None:
                bucket.pop(atom, None)
                if not bucket:
                    del table[key]

    def lookup(self, positions, key):
        """Facts whose arguments at ``positions`` equal ``key`` (a bare term
        for single-position indexes, a term tuple otherwise).  Builds the
        index for ``positions`` on first use.

        Returns a fresh list so callers may mutate the relation while
        iterating over the result (the semi-naive loop adds facts mid-scan).
        """
        if not positions:
            return list(self.facts)
        table = self._indexes.get(positions)
        if table is None:
            table = {}
            if len(positions) == 1:
                position = positions[0]
                for atom in self.facts:
                    table.setdefault(atom.args[position], {})[atom] = None
            else:
                for atom in self.facts:
                    fact_key = tuple(atom.args[i] for i in positions)
                    table.setdefault(fact_key, {})[atom] = None
            self._indexes[positions] = table
        bucket = table.get(key)
        return list(bucket) if bucket is not None else ()

    def index_count(self):
        """Number of indexes materialized so far (for diagnostics)."""
        return len(self._indexes)


class DeltaStore:
    """A lightweight per-iteration delta: facts bucketed by indicator.

    The semi-naive loop rebuilds its delta source every iteration; a full
    :class:`RelationStore` (membership set, support counts, index
    maintenance) is wasted work for a collection that is only ever scanned
    whole per indicator.  Fetches ignore the index key — the register
    executor's match instructions verify every argument position anyway —
    but are *exact* per indicator, so variant plans anchored on predicates
    absent from the delta cost one empty dictionary probe.
    """

    __slots__ = ("_buckets", "_count")

    def __init__(self, facts=()):
        buckets = {}
        count = 0
        for atom in facts:
            buckets.setdefault(predicate_indicator(atom), []).append(atom)
            count += 1
        self._buckets = buckets
        self._count = count

    def __len__(self):
        return self._count

    def fetch(self, name, arity, positions, key):
        return self._buckets.get((name, arity), ()), True

    def spill(self, arity, symbol):
        result = []
        for (name, bucket_arity), facts in self._buckets.items():
            if bucket_arity != arity:
                continue
            if symbol is not None and outermost_symbol(name) is not symbol:
                continue
            result.extend(facts)
        return result, False

    def all_facts(self):
        result = []
        for facts in self._buckets.values():
            result.extend(facts)
        return result, False

    def __contains__(self, atom):
        bucket = self._buckets.get(predicate_indicator(atom))
        return bucket is not None and atom in bucket


class LayeredStore:
    """A union read view over a stack of fact stores, adds going to the top.

    The alternating-fixpoint well-founded evaluator
    (:mod:`repro.engine.seminaive.wellfounded`) reads each overestimate
    fixpoint from *proven-true atoms ∪ settled possibly-true atoms ∪ the
    layer being built*, while writing only into that topmost layer — so the
    (shrinking) overestimate of one alternation can be discarded wholesale
    by dropping its layer, with no per-fact deletion and no copying of the
    lower stores.  Layers are disjoint by construction: :meth:`add` refuses
    atoms already present in a lower layer.

    Serves the register executor's fetch protocol (``fetch`` / ``spill`` /
    ``all_facts`` / ``__contains__``) by concatenating the layers' answers,
    and enough of the :class:`RelationStore` surface (``add`` / ``__len__``
    / ``facts``) for :func:`repro.engine.seminaive.engine.evaluate_stratum`
    to run a fixpoint straight into the view.
    """

    __slots__ = ("layers", "top")

    def __init__(self, *layers):
        if not layers:
            raise ValueError("LayeredStore needs at least one layer")
        self.layers = layers
        self.top = layers[-1]

    # Plain loops: the fixpoint asks ``len`` once per derived head and
    # ``in`` once per negation candidate, and a generator per call costs
    # more than the layers' own answers.

    def __len__(self):
        total = 0
        for layer in self.layers:
            total += len(layer)
        return total

    def __contains__(self, atom):
        for layer in self.layers:
            if atom in layer:
                return True
        return False

    def __iter__(self):
        for layer in self.layers:
            yield from layer

    def add(self, atom):
        """Insert into the top layer; ``False`` when present in any layer."""
        for layer in self.layers:
            if layer is not self.top and atom in layer:
                return False
        return self.top.add(atom)

    def facts(self, name, arity):
        result = []
        for layer in self.layers:
            result.extend(layer.facts(name, arity))
        return result

    def fetch(self, name, arity, positions, key):
        result = None
        exact = True
        for layer in self.layers:
            part, part_exact = layer.fetch(name, arity, positions, key)
            exact = exact and part_exact
            if part:
                if result is None:
                    result = part if isinstance(part, list) else list(part)
                else:
                    result.extend(part)
        return (result if result is not None else ()), exact

    def spill(self, arity, symbol):
        result = []
        for layer in self.layers:
            part, _exact = layer.spill(arity, symbol)
            result.extend(part)
        return result, False

    def all_facts(self):
        result = []
        for layer in self.layers:
            part, _exact = layer.all_facts()
            result.extend(part)
        return result, False

    def pin_roots(self):
        """Every layer's atoms, for intern-generation pin sets."""
        for layer in self.layers:
            yield from layer


class OverlayStore:
    """An immutable read view layering net added/removed atoms over a frozen
    base store — the snapshot representation of one serving **epoch**
    (:mod:`repro.serve.epochs`).

    The serving writer maintains its model in place; concurrent readers
    must never observe a half-applied batch.  Rather than copying the whole
    store per batch, an epoch is published as ``base ⊕ overlay``: a frozen
    :class:`RelationStore` snapshot shared by many epochs, plus this view's
    private net diff — ``added`` atoms bucketed by indicator and a
    ``removed`` tombstone set (both relative to the *base*, with successive
    batches collapsed via ``previous`` at construction, so reads always
    consult exactly one overlay regardless of how many batches separate the
    epoch from its base).  The view is never mutated after construction,
    and the base is frozen, so reads need no locks; writes go to the next
    epoch's overlay instead (copy-on-write at the batch granularity).

    Serves the register executor's fetch protocol (``fetch`` / ``spill`` /
    ``all_facts`` / ``__contains__``) and the query-answering surface of
    :class:`RelationStore` (``facts`` / ``candidates``), in both cases by
    filtering the base's answer through the tombstones and appending the
    matching additions.  Like :class:`DeltaStore`, addition fetches ignore
    the index key (the executor re-verifies every argument position, and
    :func:`~repro.core.magic.evaluate.answer_from_store` re-matches), so
    they may over-return but never under-return.

    Carries the same epoch refcount surface as a frozen base
    (:meth:`acquire` / :meth:`release`).
    """

    __slots__ = ("base", "refs", "_added", "_added_members", "_removed",
                 "_count")

    def __init__(self, base, added=(), removed=(), previous=None):
        if previous is not None:
            if previous.base is not base:
                raise ValueError("previous overlay must share the same base")
            buckets = {key: dict(bucket)
                       for key, bucket in previous._added.items()}
            members = set(previous._added_members)
            tombstones = set(previous._removed)
        else:
            buckets = {}
            members = set()
            tombstones = set()
        # Net out the batch: a removal of an overlay-added atom cancels the
        # addition; a removal of a base atom becomes a tombstone; an
        # addition of a tombstoned base atom cancels the tombstone; anything
        # else is a genuinely new atom.  Batches report exact model diffs
        # (UpdateSummary.added/removed), so the four cases are exhaustive.
        for atom in removed:
            if atom in members:
                members.discard(atom)
                indicator = predicate_indicator(atom)
                bucket = buckets.get(indicator)
                if bucket is not None:
                    bucket.pop(atom, None)
                    if not bucket:
                        del buckets[indicator]
            else:
                tombstones.add(atom)
        for atom in added:
            if atom in tombstones:
                tombstones.discard(atom)
            elif atom not in members:
                members.add(atom)
                buckets.setdefault(predicate_indicator(atom), {})[atom] = None
        self.base = base
        self._added = buckets
        self._added_members = members
        self._removed = tombstones
        self._count = len(base) - len(tombstones) + len(members)
        self.refs = 0

    def __len__(self):
        return self._count

    def __contains__(self, atom):
        if atom in self._added_members:
            return True
        return atom in self.base and atom not in self._removed

    def __iter__(self):
        removed = self._removed
        if removed:
            for atom in self.base:
                if atom not in removed:
                    yield atom
        else:
            yield from self.base
        yield from self._added_members

    def overlay_size(self):
        """Total overlay volume (additions + tombstones) — the serving
        layer's rebase trigger: when this grows past a fraction of the base,
        publishing a fresh frozen snapshot is cheaper than filtering."""
        return len(self._added_members) + len(self._removed)

    def acquire(self):
        """Take one epoch reference (the base is *not* acquired here — the
        epoch manager tracks base and overlay references separately)."""
        self.refs += 1
        return self.refs

    def release(self):
        if self.refs > 0:
            self.refs -= 1
        return self.refs

    def facts(self, name, arity):
        result = [atom for atom in self.base.facts(name, arity)
                  if atom not in self._removed]
        bucket = self._added.get((name, arity))
        if bucket:
            result.extend(bucket)
        return result

    def fetch(self, name, arity, positions, key):
        facts, exact = self.base.fetch(name, arity, positions, key)
        removed = self._removed
        if removed:
            facts = [atom for atom in facts if atom not in removed]
        bucket = self._added.get((name, arity))
        if bucket:
            facts = list(facts)
            facts.extend(bucket)
        return facts, exact

    def spill(self, arity, symbol):
        facts, _exact = self.base.spill(arity, symbol)
        removed = self._removed
        if removed:
            facts = [atom for atom in facts if atom not in removed]
        extra = []
        for (name, bucket_arity), bucket in self._added.items():
            if bucket_arity != arity:
                continue
            if symbol is not None and outermost_symbol(name) is not symbol:
                continue
            extra.extend(bucket)
        if extra:
            facts = list(facts)
            facts.extend(extra)
        return facts, False

    def all_facts(self):
        facts, _exact = self.base.all_facts()
        removed = self._removed
        if removed:
            facts = [atom for atom in facts if atom not in removed]
        if self._added_members:
            facts = list(facts)
            facts.extend(self._added_members)
        return facts, False

    def candidates(self, pattern, subst, index_positions=()):
        """Facts that could match ``pattern`` under ``subst`` — the
        higher-order query path of
        :func:`~repro.core.magic.evaluate.answer_from_store`.  The base's
        candidate scan is filtered through the tombstones; the overlay side
        over-approximates by listing every added atom of a compatible shape
        (callers re-match every candidate)."""
        result = [atom for atom in
                  self.base.candidates(pattern, subst, index_positions)
                  if atom not in self._removed]
        if not self._added_members:
            return result
        if isinstance(pattern, App):
            name = subst.apply(pattern.name)
            arity = len(pattern.args)
            if name.is_ground():
                bucket = self._added.get((name, arity))
                if bucket:
                    result.extend(bucket)
            else:
                for (_name, bucket_arity), bucket in self._added.items():
                    if bucket_arity == arity:
                        result.extend(bucket)
        else:
            resolved = subst.apply(pattern) if isinstance(pattern, Var) else pattern
            if isinstance(resolved, Var):
                result.extend(self._added_members)
            else:
                bucket = self._added.get(predicate_indicator(resolved))
                if bucket:
                    result.extend(bucket)
        return result

    def pin_roots(self):
        """Every atom the view can reach, for intern-generation pin sets.
        The base is pinned in full (tombstoned atoms included — they are
        still keys of the view's own sets, and over-pinning a retiring
        layer is bounded by the layer's lifetime)."""
        yield from self.base.pin_roots()
        yield from self._added_members
        yield from self._removed

    def stats(self):
        """Diagnostic summary mirroring :meth:`RelationStore.stats`."""
        base = self.base.stats()
        base.update(
            facts=self._count,
            overlay_added=len(self._added_members),
            overlay_removed=len(self._removed),
        )
        return base


class SignedStore:
    """A mutable indicator-bucketed fact set for maintenance deltas.

    :class:`~repro.db.maintenance.Delta` records every fact that flips truth
    value during an update; with a full :class:`RelationStore` each record
    pays membership-set, support-count and index bookkeeping that a delta
    never uses.  This store keeps one ``{atom: None}`` dict per indicator —
    O(1) add/remove/membership — and serves the register executor's fetch
    protocol by listing the relevant bucket.
    """

    __slots__ = ("_buckets", "_count")

    def __init__(self):
        self._buckets = {}
        self._count = 0

    def __len__(self):
        return self._count

    def __iter__(self):
        for bucket in self._buckets.values():
            yield from bucket

    def __contains__(self, atom):
        indicator = (atom.name, len(atom.args)) if type(atom) is App else (atom, -1)
        bucket = self._buckets.get(indicator)
        return bucket is not None and atom in bucket

    def add(self, atom):
        indicator = (atom.name, len(atom.args)) if type(atom) is App else (atom, -1)
        bucket = self._buckets.setdefault(indicator, {})
        if atom in bucket:
            return False
        bucket[atom] = None
        self._count += 1
        return True

    def remove(self, atom):
        indicator = (atom.name, len(atom.args)) if type(atom) is App else (atom, -1)
        bucket = self._buckets.get(indicator)
        if bucket is None or atom not in bucket:
            return False
        del bucket[atom]
        if not bucket:
            del self._buckets[indicator]
        self._count -= 1
        return True

    def has_facts(self, name, arity):
        return (name, arity) in self._buckets

    def pin_roots(self):
        """Every recorded atom, for intern-generation pin sets (a caller
        holding a maintenance delta across a collection pins it so the
        flipped facts keep their canonical identity)."""
        for bucket in self._buckets.values():
            yield from bucket

    def fetch(self, name, arity, positions, key):
        bucket = self._buckets.get((name, arity))
        # Listed (not iterated live) because callers may record into the
        # delta while a plan over it is still running.
        return (list(bucket) if bucket else ()), True

    def spill(self, arity, symbol):
        result = []
        for (name, bucket_arity), bucket in self._buckets.items():
            if bucket_arity != arity:
                continue
            if symbol is not None and outermost_symbol(name) is not symbol:
                continue
            result.extend(bucket)
        return result, False

    def all_facts(self):
        result = []
        for bucket in self._buckets.values():
            result.extend(bucket)
        return result, False


class RelationStore:
    """A database of ground atoms partitioned into indexed relations."""

    __slots__ = ("_relations", "_by_arity", "_members", "_count", "_supports",
                 "_frozen", "refs")

    def __init__(self, facts=()):
        self._relations = {}
        self._by_arity = {}
        self._members = set()
        self._count = 0
        # atom -> number of supports (derivations / assertions); every stored
        # atom has an entry, plain add() gives exactly one support.
        self._supports = {}
        self._frozen = False
        #: Epoch refcount (see :meth:`acquire`); 0 outside the serving layer.
        self.refs = 0
        for atom in facts:
            self.add(atom)

    def __len__(self):
        return self._count

    def __contains__(self, atom):
        return atom in self._members

    def __iter__(self):
        return iter(self._members)

    # -- snapshot / epoch support -------------------------------------------

    def freeze(self):
        """Make the store immutable: every later mutator raises
        :class:`~repro.hilog.errors.FrozenStoreError`.  Reads — including
        first-use lazy index building, which is idempotent over the frozen
        fact set — stay legal, so frozen stores are safe to share across
        concurrent reader threads.  Returns ``self`` for chaining."""
        self._frozen = True
        return self

    @property
    def frozen(self):
        """Whether :meth:`freeze` has been called."""
        return self._frozen

    def snapshot(self):
        """An O(n) structural copy of the current facts (no indexes, no
        support counts — snapshots are read views, the serving layer freezes
        them immediately).  Indexes rebuild lazily on the copy's own first
        lookups, so a snapshot never shares mutable state with its source."""
        clone = RelationStore.__new__(RelationStore)
        clone._members = set(self._members)
        clone._count = self._count
        clone._supports = {}
        clone._relations = {}
        clone._by_arity = {}
        clone._frozen = False
        clone.refs = 0
        for indicator, relation in self._relations.items():
            copy = Relation(indicator)
            copy.facts = dict(relation.facts)
            clone._relations[indicator] = copy
            clone._by_arity.setdefault(indicator[1], []).append(copy)
        return clone

    def acquire(self):
        """Take one epoch reference (the serving layer's layer-liveness
        bookkeeping — see :mod:`repro.serve.epochs`); returns the new count."""
        self.refs += 1
        return self.refs

    def release(self):
        """Drop one epoch reference; returns the new count (never below 0)."""
        if self.refs > 0:
            self.refs -= 1
        return self.refs

    def add(self, atom):
        """Insert a ground atom; return ``True`` when it was new.

        Set semantics: inserting a present atom is a no-op (its support
        count is *not* incremented — use :meth:`add_support` for counting).
        """
        if atom in self._members:
            return False
        if self._frozen:
            raise FrozenStoreError("cannot add %r to a frozen store" % (atom,))
        if not atom.is_ground():
            raise GroundingError("cannot store non-ground atom %r" % (atom,))
        self._members.add(atom)
        self._count += 1
        self._supports[atom] = 1
        indicator = predicate_indicator(atom)
        relation = self._relations.get(indicator)
        if relation is None:
            relation = Relation(indicator)
            self._relations[indicator] = relation
            self._by_arity.setdefault(indicator[1], []).append(relation)
        relation.add(atom)
        return True

    def remove(self, atom):
        """Delete an atom (whatever its support count); return ``True`` when
        it was present.  Every materialized index is kept current."""
        if atom not in self._members:
            return False
        if self._frozen:
            raise FrozenStoreError("cannot remove %r from a frozen store" % (atom,))
        self._members.discard(atom)
        self._count -= 1
        del self._supports[atom]
        self._relations[predicate_indicator(atom)].remove(atom)
        return True

    def support(self, atom):
        """The support count of an atom (0 when absent)."""
        return self._supports.get(atom, 0)

    def add_support(self, atom, count=1):
        """Add ``count`` supports to an atom; return ``True`` when the atom
        became present (was previously unsupported)."""
        if count <= 0:
            raise ValueError("support increment must be positive")
        if self._frozen:
            raise FrozenStoreError("cannot add support on a frozen store")
        if atom in self._members:
            self._supports[atom] += count
            return False
        self.add(atom)
        self._supports[atom] = count
        return True

    def remove_support(self, atom, count=1):
        """Remove ``count`` supports from an atom; return ``True`` when the
        atom's last support disappeared (the atom was deleted).  Raises
        :class:`GroundingError` when the atom has fewer supports than
        ``count`` — the counting invariant was broken."""
        if count <= 0:
            raise ValueError("support decrement must be positive")
        if self._frozen:
            raise FrozenStoreError("cannot remove support on a frozen store")
        current = self._supports.get(atom, 0)
        if current < count:
            raise GroundingError(
                "removing %d supports from %r which has only %d (counting "
                "invariant violated)" % (count, atom, current)
            )
        if current == count:
            self.remove(atom)
            return True
        self._supports[atom] = current - count
        return False

    def relation(self, name, arity):
        """The :class:`Relation` for an indicator, or ``None``."""
        return self._relations.get((name, arity))

    def facts(self, name, arity):
        """All facts of one indicator (empty list when absent)."""
        relation = self._relations.get((name, arity))
        return list(relation.facts) if relation is not None else []

    def has_facts(self, name, arity):
        """``True`` when the indicator has at least one fact."""
        relation = self._relations.get((name, arity))
        return relation is not None and len(relation) > 0

    def relations(self):
        """All relations, in first-insertion order of their indicators."""
        return list(self._relations.values())

    def pin_roots(self):
        """The terms this store retains, for intern-generation pin sets
        (:func:`repro.hilog.terms.collect_generation`): every stored atom,
        plus the indicator name of every relation ever created — an emptied
        relation keeps its (possibly generational) name term alive so it can
        be reused with its indexes intact, and that reference must not
        dangle across a collection."""
        yield from self._members
        for name, _arity in self._relations:
            yield name

    def atoms(self):
        """Every stored atom (relation by relation, insertion order)."""
        for relation in self._relations.values():
            for atom in relation.facts:
                yield atom

    # -- register-executor fetch protocol -----------------------------------
    #
    # The generated plan functions (repro.engine.seminaive.plan) resolve
    # their own indicators and index keys from registers, so these entry
    # points skip the Substitution machinery entirely.  Each returns
    # ``(facts, exact)`` where ``exact`` promises every fact is an
    # application of the requested indicator (letting the executor skip the
    # name/arity checks).
    # Because terms are hash-consed, indicator and index keys compare by
    # identity — every probe is one hash lookup over interned pointers.

    def fetch(self, name, arity, positions, key):
        """Facts of the ``(name, arity)`` indicator whose arguments at
        ``positions`` equal ``key`` (both precomputed by the compiler)."""
        relation = self._relations.get((name, arity))
        if relation is None:
            return (), True
        if positions:
            return relation.lookup(positions, key), True
        return list(relation.facts), True

    def spill(self, arity, symbol):
        """Facts of every relation of ``arity``, narrowed to relations whose
        name has outermost symbol ``symbol`` when one is known (the
        higher-order non-ground-name path)."""
        result = []
        for relation in self._by_arity.get(arity, ()):
            if symbol is not None and outermost_symbol(relation.indicator[0]) is not symbol:
                continue
            result.extend(relation.facts)
        return result, False

    def all_facts(self):
        """Every stored atom (the unbound propositional-variable scan)."""
        return list(self._members), False

    def candidates(self, pattern, subst, index_positions=()):
        """Facts that could match ``pattern`` under ``subst``.

        ``index_positions`` names the argument positions of ``pattern`` that
        are ground once ``subst`` is applied (precomputed by the join
        planner); when the pattern's predicate name is also ground the lookup
        is a single hash probe.  Otherwise the spill path scans the relations
        of the pattern's arity, narrowed by the outermost symbol of the name
        when one exists.
        """
        if not isinstance(pattern, App):
            # Propositional pattern: a ground symbol, or a bare variable
            # (which can match any stored atom — full spill).
            resolved = subst.apply(pattern) if isinstance(pattern, Var) else pattern
            if isinstance(resolved, Var):
                return list(self._members)
            relation = self._relations.get(predicate_indicator(resolved))
            return list(relation.facts) if relation is not None else ()

        name = subst.apply(pattern.name)
        arity = len(pattern.args)
        if name.is_ground():
            relation = self._relations.get((name, arity))
            if relation is None:
                return ()
            if index_positions:
                key = tuple(subst.apply(pattern.args[i]) for i in index_positions)
                if all(part.is_ground() for part in key):
                    if len(index_positions) == 1:
                        return relation.lookup(index_positions, key[0])
                    return relation.lookup(index_positions, key)
            return list(relation.facts)

        # Spill: the predicate name is still non-ground.  Narrow by the
        # outermost symbol when the name has one (e.g. ``winning(M)``), else
        # scan every relation of the right arity.
        symbol = outermost_symbol(name)
        result = []
        for relation in self._by_arity.get(arity, ()):
            if symbol is not None and outermost_symbol(relation.indicator[0]) != symbol:
                continue
            result.extend(relation.facts)
        return result

    def stats(self):
        """Diagnostic summary: relation count, fact count, index count."""
        return {
            "relations": len(self._relations),
            "facts": self._count,
            "indexes": sum(r.index_count() for r in self._relations.values()),
        }
