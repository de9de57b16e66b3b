"""Fact sources for the semi-naive engine: one protocol, three shapes.

The paper's universal relation model makes a HiLog database *one* relation
``call`` whose first column is an arbitrary name term.  The engine
partitions it by *predicate indicator* — ``(predicate-name term, arity)``,
the HiLog analogue of ``p/n``.  Predicate names may be complex terms
(``winning(m)``), so the name component is an arbitrary ground term; atoms
that are not applications (propositional symbols) use arity ``-1`` so that
``p`` and the zero-ary application ``p()`` stay distinct (footnote 1).
Every term carries its indicator (``atom.indicator``, one tuple shared by
the interned applications of a name and arity), so partitioning a fact is
a slot read.

Every consumer — the generated plan functions, delete-rederive
maintenance, the alternating fixpoint, and :func:`matching_facts`, the read
that answers every session and reader-epoch query — asks a fact source the
same four questions (:class:`FactSource`): ``fetch(name, arity,
positions, key)``, the facts of one indicator whose arguments at
``positions`` equal ``key`` (a bare term for one position, a term tuple
otherwise); ``spill(arity, symbol)``, the facts of every indicator of
``arity`` under names with outermost symbol ``symbol`` (the higher-order
case: ``M(X, Y)`` before ``M`` is bound, ``winning(M)(X)``);
``all_facts()``; and ``atom in source``.  A fetch never returns a fact of
another indicator and never misses a matching one, but may *over-return
within the indicator*, so callers test the key positions themselves: the
plan functions match every argument, ``matching_facts`` compares the
ground positions by identity.  :func:`candidates` puts a ``(pattern,
substitution)`` question to the protocol.  Three classes implement it:

:class:`RelationStore`
    The indexed store: one :class:`Relation` per indicator with on-demand
    hash indexes per set of argument positions, so ``fetch`` honours the
    key exactly and a join costs the matching facts, not the relation.
    Mutable; :meth:`~RelationStore.freeze` makes every mutator raise
    :class:`~repro.hilog.errors.FrozenStoreError`, which is how an epoch's
    base is shared between reader threads (building an index on first use
    stays legal: it is idempotent).  A relation exists while it has facts.

:class:`FactBuckets`
    A plain fact set, ``{indicator: {atom: None}}``: no indexes.
    For what is scanned whole per indicator — both sides of a
    :class:`Delta`, the changes a well-founded write or alternation anchors
    on; :meth:`~FactBuckets.groups` hands a delta variant its indicator's
    bucket as is.  ``fetch`` ignores the key and lists the indicator's
    bucket: this is the source that over-returns.  Freezable like the
    store; a published epoch's delta is frozen before readers can see it.

:class:`StoreView`
    A read view, the union of disjoint layers minus a mask, adds going to
    the last layer.  One shape, three uses: the state *before* an update is
    ``StoreView((store, delta.removed), minus=delta.added)``
    (:func:`repro.db.maintenance.old_state`); a reader epoch is
    ``StoreView((base, delta.added), minus=delta.removed)`` over a frozen
    base (:mod:`repro.serve.epochs`); the well-founded overestimate is
    ``StoreView((under, over_extra, layer))``, written into its top layer
    (:mod:`repro.engine.seminaive.wellfounded`).  It owns no facts, is as
    frozen as its layers, and is read-only under a mask.

:class:`Delta`, the signed pair of two :class:`FactBuckets` with the one
cancellation rule, lives beside them.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.hilog.errors import FrozenStoreError, GroundingError
from repro.hilog.subst import Substitution
from repro.hilog.terms import App, Term, Var, outermost_symbol, predicate_name
from repro.hilog.unify import match


def literal_indicator(atom):
    """The indicator of a rule atom, or ``None`` when its predicate name is
    not ground (a higher-order position: the indicator is known only once
    the name is bound)."""
    if not predicate_name(atom).is_ground():
        return None
    return atom.indicator


class FactSource(Protocol):
    """The four questions of the module docstring.  Every method returns a
    sequence the caller owns."""

    def fetch(self, name: Term, arity: int, positions: Tuple[int, ...],
              key: object) -> Sequence[Term]: ...

    def spill(self, arity: int, symbol: Optional[Term]) -> Sequence[Term]: ...

    def all_facts(self) -> Sequence[Term]: ...

    def __contains__(self, atom: Term) -> bool: ...


def candidates(store: FactSource, pattern, subst,
               index_positions=()) -> Sequence[Term]:
    """Facts of ``store`` that could match ``pattern`` under ``subst``
    (callers match each one).

    ``index_positions`` names argument positions of ``pattern`` that are
    ground once ``subst`` is applied; with a ground predicate name the
    lookup is one ``fetch`` on them.  A name that is still open spills over
    the pattern's arity, narrowed by the name's outermost symbol when it
    has one (``winning(M)``); a bare unbound variable can be any fact.
    """
    if not isinstance(pattern, App):
        resolved = subst.apply(pattern) if isinstance(pattern, Var) else pattern
        if isinstance(resolved, Var):
            return store.all_facts()
        name, arity = resolved.indicator
        return store.fetch(name, arity, (), None)
    name = subst.apply(pattern.name)
    arity = len(pattern.args)
    if not name.is_ground():
        return store.spill(arity, outermost_symbol(name))
    if index_positions:
        key = tuple(subst.apply(pattern.args[i]) for i in index_positions)
        if all(part.is_ground() for part in key):
            return store.fetch(
                name, arity, index_positions, key[0] if len(key) == 1 else key
            )
    return store.fetch(name, arity, (), None)


def sorted_matches(pattern: Term, atoms: Iterable[Term]) -> List[Term]:
    """The atoms ``pattern`` matches, in ``repr`` order — the answer order
    of every query path.  ``repr`` of an interned term is a slot read once
    the term has been rendered (:func:`repro.hilog.pretty.format_term`)."""
    return sorted(
        (atom for atom in atoms if match(pattern, atom) is not None), key=repr
    )


def matching_facts(store: FactSource, pattern: Term) -> Tuple[Term, ...]:
    """The facts of ``store`` that ``pattern`` matches, in ``repr`` order.

    This is how a query is answered from a materialized model: the store
    holds exactly the model's true atoms, so the true ground instances of a
    query atom are a membership probe (ground pattern), one indexed fetch on
    the ground argument positions (ground name) or a candidate scan
    (higher-order and propositional-variable patterns) — no rewriting, no
    evaluation.
    """
    if pattern.is_ground():
        return (pattern,) if pattern in store else ()
    if not (isinstance(pattern, App) and pattern.name.is_ground()):
        # Higher-order / propositional-variable patterns: the general
        # candidate scan, then full matching.
        return tuple(sorted_matches(pattern, candidates(store, pattern, Substitution(), ())))
    # Bound-name query: a single indexed probe on the ground argument
    # positions (interned-identity key), then residual matching for the
    # open positions only.
    args = pattern.args
    positions = tuple(i for i, arg in enumerate(args) if arg.is_ground())
    if len(positions) == 1:
        key: object = args[positions[0]]  # bare-term single-position key
    else:
        key = tuple(args[i] for i in positions)
    fetched = store.fetch(pattern.name, len(args), positions, key)
    open_args = [arg for arg in args if not arg.is_ground()]
    if not (
        all(type(arg) is Var for arg in open_args)
        and len(set(open_args)) == len(open_args)
    ):
        return tuple(sorted_matches(pattern, fetched))
    # Linear pattern: the open arguments are distinct variables, which match
    # anything, and a fetch returns applications of the indicator only, so
    # ``match`` on interned terms reduces to identity at the ground
    # positions.  Those are still tested — a bucket layer returns its whole
    # indicator whatever the key.
    for i in positions:
        bound = args[i]
        fetched = [atom for atom in fetched if atom.args[i] is bound]
    return tuple(sorted(fetched, key=repr))


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

    # Single-position indexes are keyed by the bare argument term (an
    # interned term hashes by identity); multi-position indexes by the
    # argument tuple.  Callers pass keys in the same shape (the join
    # compiler and :func:`candidates` both do).  :class:`RelationStore`
    # writes ``facts`` and the indexes itself, one method call per fact.

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


def spill_groups(groups, arity, symbol):
    """The facts of ``groups`` (``(indicator, facts)`` pairs) whose
    indicator has ``arity`` and a name under ``symbol`` (``None``: any) —
    the one spill scan behind the store's, the bucket set's and an open
    delta variant's anchors."""
    result = []
    for (name, group_arity), facts in groups:
        if group_arity == arity and (
                symbol is None or outermost_symbol(name) is symbol):
            result.extend(facts)
    return result


class RelationStore:
    """A database of ground atoms partitioned into indexed relations."""

    __slots__ = ("_relations", "_by_arity", "_members", "_frozen")

    def __init__(self, facts=()):
        # indicator -> Relation; a relation exists while it has facts.
        self._relations = {}
        # arity -> {indicator: Relation}, the spill scan's partition.
        self._by_arity = {}
        # atom -> None: the membership, in insertion order.
        self._members = {}
        self._frozen = False
        for atom in facts:
            self.add(atom)

    @classmethod
    def from_groups(cls, groups):
        """Bulk constructor (behind :meth:`snapshot` and the durable snapshot
        decoder): the store holding ``groups``, ``(indicator, facts)`` pairs
        the caller vouches for — ground atoms, each once, under its own
        indicator.  Indexes build on first lookup."""
        store = cls()
        relations = store._relations
        by_arity = store._by_arity
        members = store._members
        for indicator, facts in groups:
            if not facts:
                continue
            relation = Relation(indicator)
            relation.facts = dict.fromkeys(facts)
            relations[indicator] = relation
            by_arity.setdefault(indicator[1], {})[indicator] = relation
            members.update(relation.facts)
        return store

    def __len__(self):
        return len(self._members)

    def __contains__(self, atom: Term) -> bool:
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
        """An O(n) structural copy of the current facts, unfrozen and
        without indexes (they rebuild lazily on the copy's own first
        lookups), so a snapshot never shares mutable state with its
        source."""
        return RelationStore.from_groups(
            (indicator, relation.facts)
            for indicator, relation in self._relations.items()
        )

    def adopt(self, other: "RelationStore") -> Tuple[List[Term], List[Term]]:
        """Become ``other`` in place — take over its relations and indexes,
        so every holder of this store sees the new contents — and return
        what that changed as ``(added, removed)`` fact lists.  ``other``
        must not be used afterwards: the two share everything."""
        if self._frozen:
            raise FrozenStoreError("cannot replace the contents of a frozen store")
        old, new = self._members, other._members
        added = [atom for atom in new if atom not in old]
        removed = [atom for atom in old if atom not in new]
        self._relations = other._relations
        self._by_arity = other._by_arity
        self._members = new
        return added, removed

    def add(self, atom):
        """Insert a ground atom; return ``True`` when it was new (inserting
        a present atom is a no-op).  Every materialized index of its
        relation is kept current."""
        members = self._members
        if atom in members:
            return False
        if self._frozen:
            raise FrozenStoreError("cannot add %r to a frozen store" % (atom,))
        if not atom._ground:
            raise GroundingError("cannot store non-ground atom %r" % (atom,))
        members[atom] = None
        indicator = atom.indicator
        relation = self._relations.get(indicator)
        if relation is None:
            relation = self._relations[indicator] = Relation(indicator)
            self._by_arity.setdefault(indicator[1], {})[indicator] = relation
        relation.facts[atom] = None
        for positions, table in relation._indexes.items():
            if len(positions) == 1:
                key = atom.args[positions[0]]
            else:
                key = tuple(atom.args[i] for i in positions)
            bucket = table.get(key)
            if bucket is None:
                table[key] = {atom: None}
            else:
                bucket[atom] = None
        return True

    def remove(self, atom):
        """Delete an atom; return ``True`` when it was present.  Every
        materialized index is kept current, and a relation whose last fact
        goes is dropped: predicate names are data in HiLog (``winning(m)``),
        so name churn must not pile up relations."""
        members = self._members
        if atom not in members:
            return False
        if self._frozen:
            raise FrozenStoreError("cannot remove %r from a frozen store" % (atom,))
        del members[atom]
        indicator = atom.indicator
        relation = self._relations[indicator]
        del relation.facts[atom]
        for positions, table in relation._indexes.items():
            if len(positions) == 1:
                key = atom.args[positions[0]]
            else:
                key = tuple(atom.args[i] for i in positions)
            bucket = table[key]
            del bucket[atom]
            if not bucket:
                del table[key]
        if not relation.facts:
            del self._relations[indicator]
            same_arity = self._by_arity[indicator[1]]
            del same_arity[indicator]
            if not same_arity:
                del self._by_arity[indicator[1]]
        return True

    def relation(self, name, arity):
        """The :class:`Relation` for an indicator, or ``None``."""
        return self._relations.get((name, arity))

    def facts(self, name, arity):
        """All facts of one indicator (empty list when absent)."""
        relation = self._relations.get((name, arity))
        return list(relation.facts) if relation is not None else []

    def relations(self):
        """All relations, in first-insertion order of their indicators."""
        return list(self._relations.values())

    # -- the FactSource protocol ---------------------------------------------
    #
    # The generated plan functions (repro.engine.seminaive.plan) resolve
    # their own indicators and index keys from registers, so these entry
    # points skip the Substitution machinery entirely.  Because terms are
    # hash-consed and hash by identity, every probe is one hash lookup over
    # interned pointers.

    def fetch(self, name: Term, arity: int, positions: Tuple[int, ...],
              key: object) -> Sequence[Term]:
        """Exactly the facts of ``(name, arity)`` whose arguments at
        ``positions`` equal ``key`` (both precomputed by the compiler)."""
        relation = self._relations.get((name, arity))
        if relation is None:
            return ()
        return relation.lookup(positions, key)

    def spill(self, arity: int, symbol: Optional[Term]) -> Sequence[Term]:
        """Facts of every relation of ``arity``, narrowed to relations whose
        name has outermost symbol ``symbol`` when one is known (the
        higher-order non-ground-name path)."""
        same_arity = self._by_arity.get(arity)
        if same_arity is None:
            return ()
        return spill_groups(
            ((indicator, relation.facts)
             for indicator, relation in same_arity.items()),
            arity, symbol,
        )

    def all_facts(self) -> Sequence[Term]:
        """Every stored atom (the unbound propositional-variable scan)."""
        return list(self._members)

    def stats(self):
        """Diagnostic summary: relation count, fact count, index count."""
        return {
            "relations": len(self._relations),
            "facts": len(self._members),
            "indexes": sum(r.index_count() for r in self._relations.values()),
        }


class FactBuckets:
    """A fact set bucketed by indicator: ``{indicator: {atom: None}}``.

    For collections that are only ever scanned whole per indicator, on
    which the index upkeep of a :class:`RelationStore` is wasted.
    ``fetch`` ignores the index key (callers test the key positions
    themselves) but never leaves the indicator, so a plan anchored on a
    predicate absent from the set costs one empty probe.
    """

    __slots__ = ("_buckets", "_count", "_frozen")

    def __init__(self, facts=()):
        buckets = self._buckets = {}
        self._frozen = False
        for atom in facts:
            bucket = buckets.get(atom.indicator)
            if bucket is None:
                buckets[atom.indicator] = {atom: None}
            else:
                bucket[atom] = None
        self._count = sum(map(len, buckets.values()))

    def __len__(self):
        return self._count

    def __iter__(self):
        for bucket in self._buckets.values():
            yield from bucket

    def __contains__(self, atom: Term) -> bool:
        bucket = self._buckets.get(atom.indicator)
        return bucket is not None and atom in bucket

    def freeze(self):
        """Make the set immutable, like :meth:`RelationStore.freeze`: an
        :meth:`add` or :meth:`remove` that would change it raises
        :class:`~repro.hilog.errors.FrozenStoreError` from now on.  Returns
        ``self`` for chaining."""
        self._frozen = True
        return self

    def copy(self):
        """An unfrozen copy sharing no bucket with this set."""
        clone = FactBuckets()
        clone._buckets = {
            indicator: dict(bucket) for indicator, bucket in self._buckets.items()
        }
        clone._count = self._count
        return clone

    def add(self, atom):
        """Insert an atom; ``True`` when it was new."""
        indicator = atom.indicator
        bucket = self._buckets.get(indicator)
        if bucket is not None and atom in bucket:
            return False
        if self._frozen:
            raise FrozenStoreError("cannot add %r to a frozen fact set" % (atom,))
        if bucket is None:
            self._buckets[indicator] = {atom: None}
        else:
            bucket[atom] = None
        self._count += 1
        return True

    def remove(self, atom):
        """Delete an atom; ``True`` when it was present."""
        indicator = atom.indicator
        bucket = self._buckets.get(indicator)
        if bucket is None or atom not in bucket:
            return False
        self._discard(indicator, bucket, atom)
        return True

    def _discard(self, indicator, bucket, atom):
        """Take ``atom`` out of ``bucket``, the set's bucket of
        ``indicator``, which holds it."""
        if self._frozen:
            raise FrozenStoreError(
                "cannot remove %r from a frozen fact set" % (atom,))
        del bucket[atom]
        if not bucket:
            del self._buckets[indicator]
        self._count -= 1

    def has_facts(self, name, arity):
        """``True`` when the indicator has at least one fact."""
        return (name, arity) in self._buckets

    def groups(self):
        """The set's live ``{indicator: {atom: None}}`` mapping, no bucket
        empty — what delta variants are anchored on, read without a copy
        (:func:`repro.engine.seminaive.engine.anchored_heads`).  Read it
        only, and not while the set changes."""
        return self._buckets

    def fetch(self, name: Term, arity: int, positions: Tuple[int, ...],
              key: object) -> Sequence[Term]:
        """The whole ``(name, arity)`` bucket, whatever the key."""
        bucket = self._buckets.get((name, arity))
        # Listed (not iterated live) because callers may record into a
        # delta while a plan over it is still running.
        return list(bucket) if bucket else ()

    def spill(self, arity: int, symbol: Optional[Term]) -> Sequence[Term]:
        return spill_groups(self._buckets.items(), arity, symbol)

    def all_facts(self) -> Sequence[Term]:
        return list(self)


class Delta:
    """A signed set of fact changes: atoms that became true (``added``) and
    atoms that became false (``removed``), with cancellation — re-adding a
    removed atom erases the removal instead of recording both.  The rule
    lives here only: maintenance accumulates a batch's changes through it,
    and a reader epoch's distance from its base is one."""

    __slots__ = ("added", "removed")

    added: FactBuckets
    removed: FactBuckets

    def __init__(self):
        self.added = FactBuckets()
        self.removed = FactBuckets()

    # The two recorders inline both sides' bucket updates: they run once
    # per changed fact of every write.

    def record_add(self, atom):
        """``atom`` became true: cancel its removal, or record it added."""
        indicator = atom.indicator
        removed = self.removed
        bucket = removed._buckets.get(indicator)
        if bucket is not None and atom in bucket:
            removed._discard(indicator, bucket, atom)
            return
        added = self.added
        if added._frozen:
            added.add(atom)  # raises unless present
            return
        bucket = added._buckets.get(indicator)
        if bucket is None:
            added._buckets[indicator] = {atom: None}
        elif atom in bucket:
            return
        else:
            bucket[atom] = None
        added._count += 1

    def record_remove(self, atom):
        """``atom`` became false: cancel its addition, or record it removed."""
        indicator = atom.indicator
        added = self.added
        bucket = added._buckets.get(indicator)
        if bucket is not None and atom in bucket:
            added._discard(indicator, bucket, atom)
            return
        removed = self.removed
        if removed._frozen:
            removed.add(atom)  # raises unless present
            return
        bucket = removed._buckets.get(indicator)
        if bucket is None:
            removed._buckets[indicator] = {atom: None}
        elif atom in bucket:
            return
        else:
            bucket[atom] = None
        removed._count += 1

    def __len__(self):
        """The number of recorded changes, both signs."""
        return len(self.added) + len(self.removed)

    def is_empty(self):
        return not len(self)

    def copy(self):
        """An unfrozen delta recording the same changes."""
        clone = Delta()
        clone.added = self.added.copy()
        clone.removed = self.removed.copy()
        return clone

    def freeze(self):
        """Freeze both sides; returns ``self`` for chaining."""
        self.added.freeze()
        self.removed.freeze()
        return self

    def touches(self, indicators):
        """Whether the delta contains facts of any of the given predicate
        indicators (``None`` means "unknowable reads" — always true)."""
        if indicators is None:
            return not self.is_empty()
        for name, arity in indicators:
            if self.added.has_facts(name, arity) or self.removed.has_facts(name, arity):
                return True
        return False


class StoreView:
    """The union of disjoint fact layers minus a mask, adds going to the
    last layer (the three uses are in the module docstring).

    ``layers`` are stored fact sets (:class:`RelationStore` or
    :class:`FactBuckets`) no two of which share an atom; ``minus`` is a
    :class:`FactBuckets` of atoms the layers hold and the view hides.  The
    view copies nothing and follows its layers and mask as they change.
    Besides the protocol it has enough of the store surface (``add`` /
    ``__len__`` / ``facts``) for
    :func:`repro.engine.seminaive.engine.evaluate_stratum` to run a
    fixpoint straight into it.
    """

    __slots__ = ("layers", "minus")

    def __init__(self, layers: Sequence[FactSource],
                 minus: Optional[FactBuckets] = None) -> None:
        self.layers = tuple(layers)
        self.minus = minus

    # Plain loops: the fixpoint asks ``len`` once per new head and ``in``
    # once per negation candidate, and a generator per call costs more than
    # the layers' own answers.

    def __len__(self):
        total = 0
        for layer in self.layers:
            total += len(layer)
        if self.minus is not None:
            total -= len(self.minus)
        return total

    def __contains__(self, atom: Term) -> bool:
        for layer in self.layers:
            if atom in layer:
                return self.minus is None or atom not in self.minus
        return False

    def __iter__(self):
        minus = self.minus
        for layer in self.layers:
            if minus:
                for atom in layer:
                    if atom not in minus:
                        yield atom
            else:
                yield from layer

    def add(self, atom):
        """Insert into the last layer; ``False`` when present in any layer.
        A masked view is read-only: unhiding an atom is the cancellation
        rule, which is :class:`Delta`'s."""
        if self.minus is not None:
            raise FrozenStoreError("cannot add %r to a masked view" % (atom,))
        top = self.layers[-1]
        for layer in self.layers:
            if layer is not top and atom in layer:
                return False
        return top.add(atom)

    def facts(self, name, arity):
        """All facts of one indicator."""
        return self.fetch(name, arity, (), None)

    def fetch(self, name: Term, arity: int, positions: Tuple[int, ...],
              key: object) -> Sequence[Term]:
        result: Optional[List[Term]] = None
        for layer in self.layers:
            part = layer.fetch(name, arity, positions, key)
            if part:
                if result is None:
                    result = part if isinstance(part, list) else list(part)
                else:
                    result.extend(part)
        if result is None:
            return ()
        return self._unmasked(result)

    def _unmasked(self, facts):
        minus = self.minus
        if minus:
            return [atom for atom in facts if atom not in minus]
        return facts

    def spill(self, arity: int, symbol: Optional[Term]) -> Sequence[Term]:
        result: List[Term] = []
        for layer in self.layers:
            result.extend(layer.spill(arity, symbol))
        return self._unmasked(result)

    def all_facts(self) -> Sequence[Term]:
        result: List[Term] = []
        for layer in self.layers:
            result.extend(layer.all_facts())
        return self._unmasked(result)
