"""HiLog terms.

In HiLog there is no distinction between predicate, function and constant
symbols (paper, Section 2): every symbol is a term, every variable is a term,
and if ``t, t1, ..., tn`` are terms then so is the application ``t(t1,...,tn)``
for every ``n >= 0``.  Terms and atoms coincide; the Herbrand base and the
Herbrand universe are the same set.

Terms are immutable, hashable and **hash-consed**: every constructor interns
its result in a global table keyed by structure, so two structurally equal
terms are always the *same object*.  Equality is therefore pointer equality
(``a == b`` iff ``a is b``) and the evaluation engines' hot loops — index
probes, join matches, set membership — compare and hash terms in O(1)
regardless of term size.  Three constructors:

* :class:`Var` — a logical variable (``X``, ``Y``, ``Rest``).
* :class:`Sym` — an atomic symbol (``p``, ``move``, ``a``); :class:`Num` is a
  subclass carrying an integer value so arithmetic builtins can work, but it
  behaves exactly like a symbol for unification and grounding.
* :class:`App` — the application of a term (the *name*) to a tuple of
  argument terms; ``p(a)(X, b)`` is ``App(App(Sym('p'), (Sym('a'),)),
  (Var('X'), Sym('b')))``.  Zero-ary applications ``p()`` are permitted and
  distinct from the bare symbol ``p`` (footnote 1 of the paper).

Because terms are built bottom-up, an :class:`App`'s children are already
interned when it is constructed, so its intern key ``(name,) + args`` hashes
with the children's cached hashes and compares by identity — one dictionary
probe per construction.  Hash values keep the pre-interning structural
formulas, so iteration orders (and hence printed outputs) are unchanged.
One canonical object per structure also means one *text* per structure:
each term has a ``_text`` slot the printer fills on first render (see
:func:`repro.hilog.pretty.format_term`), so ``repr`` and every
``sorted(key=repr)`` after that is a slot read.

Interning alone would make memory grow with the set of *distinct terms
ever built in the process* — fatal for a long-lived
:class:`~repro.db.session.DatabaseSession` churning over ever-fresh
constants (timestamps, ids).  The tables are therefore **generation
scoped**: terms born while a generation is open (:func:`begin_generation` /
:func:`end_generation`, or the :class:`intern_generation` context manager)
record their generation and can later be *evicted* by
:func:`collect_generation`, which sweeps every closed generation and drops
the terms that are not reachable from a **pin set** — the explicit pin
roots passed by the caller plus the roots supplied by every registered
:func:`pin provider <register_pin_provider>` (relation stores, extensional
databases, program rules, compiled register programs).  Terms born while
no generation is open are *immortal* (generation 0) and are never swept,
so one-shot evaluations and module constants pay nothing; a generational
term re-obtained through an intern hit while no generation is open is
*promoted* to immortal on the spot, so the promise covers everything you
obtain at top level, not just what you build first.  Anonymous variables
are outside the tables entirely: :func:`fresh_var` creates uninterned
variables (and applications over them stay uninterned), reclaimed by
ordinary garbage collection.

The identity invariant survives collection because eviction is allowed
only for terms the pin set cannot reach: any term a caller can still
observe is (transitively) pinned, so rebuilding an evicted structure
creates a fresh canonical object with no surviving twin.  The contract is
therefore: **whoever calls** :func:`collect_generation` **must ensure the
pins (explicit plus registered providers) cover every retained term** —
do not collect while generational terms are held only in local variables.
A :class:`~repro.db.session.DatabaseSession` opens a generation around
every update and registers a pin provider for its store, EDB, rules and
compiled plans, so session-driven collection is safe by construction.
Monitor with :func:`intern_table_sizes` (live per-constructor counts) and
:func:`intern_generation_sizes` (live counts per birth generation).
"""

from __future__ import annotations

import threading
import weakref

from typing import Dict, Iterable, Iterator, Set, Tuple, Union

from repro.hilog.errors import GenerationError

#: Guards the intern tables' *construction* (miss) path and the eviction
#: sweep, so two threads interning the same new structure concurrently
#: cannot each insert a twin (which would break identity-based equality).
#: The hit path stays lock-free: dictionary probes are atomic under the
#: GIL, and a hit never mutates a table.  Contention is negligible — the
#: serving subsystem's readers mostly *hit* (their queries mention terms
#: the model already interned), and construction is dwarfed by the
#: dictionary work it guards.
_INTERN_LOCK = threading.RLock()

#: Global intern (hash-consing) tables, one per constructor.  Num gets its
#: own table so ``Num(1)`` and ``Sym("1")`` stay distinct objects.
_VAR_INTERN = {}
_SYM_INTERN = {}
_NUM_INTERN = {}
_APP_INTERN = {}

#: Generation bookkeeping.  ``_CURRENT_GEN`` is the innermost open
#: generation id (0 = none open: terms born now are immortal);
#: ``_OPEN_GENS`` the stack of open ids; ``_GEN_POOLS`` maps a generation
#: id to the list of *live* interned terms born in it (entries are removed
#: on eviction, so pool lengths are accurate live counts).
_GEN_COUNTER = 0
_CURRENT_GEN = 0
_OPEN_GENS = []
_GEN_POOLS = {}

#: Weak references to the callables consulted at collection time: pin
#: providers yield root terms that must survive.
_PIN_PROVIDERS = []

#: Sentinel generation of *fresh* (uninterned) terms — anonymous variables
#: and any application containing one.  Far above every real generation id,
#: so the pin-traversal threshold test always descends through fresh terms
#: into the interned subterms they may hold.
_FRESH_GEN = 1 << 62


def _promote(term):
    """Make a generational term (and its interned subterms) immortal.

    Called on intern-cache hits while no generation is open: the documented
    contract is that terms *obtained* at top level are never swept, and a
    hit on a generational twin would otherwise hand out an object a later
    collection could evict behind the holder's back.  Stale birth-pool
    entries are dropped lazily at the next sweep (the sweep skips
    generation-0 terms), so promotion is O(term size), not O(pool).
    """
    stack = [term]
    while stack:
        node = stack.pop()
        if node._gen == 0:
            continue
        object.__setattr__(node, "_gen", 0)
        if type(node) is App:
            stack.append(node.name)
            stack.extend(node.args)


def intern_table_sizes():
    """Diagnostic: the number of *currently interned* terms per constructor.

    Counts shrink when :func:`collect_generation` evicts unpinned terms, so
    under generation-scoped churn (a session inserting and retracting facts
    over fresh constants) the sizes are bounded by the live term volume
    instead of growing with every term ever built.  Per-birth-generation
    counts are available from :func:`intern_generation_sizes`.
    """
    return {
        "var": len(_VAR_INTERN),
        "sym": len(_SYM_INTERN),
        "num": len(_NUM_INTERN),
        "app": len(_APP_INTERN),
    }


def intern_generation_sizes():
    """Live interned-term counts per birth generation.

    Generation 0 counts the immortal terms (born while no generation was
    open, or promoted by being re-obtained at top level — never swept);
    every other key is a generation with at least one surviving term.  The
    sum over all generations equals the sum of :func:`intern_table_sizes`.
    """
    sizes = {}
    for gen, pool in _GEN_POOLS.items():
        live = sum(1 for term in pool if term._gen)
        if live:
            sizes[gen] = live
    mortal = sum(sizes.values())
    total = (
        len(_VAR_INTERN) + len(_SYM_INTERN) + len(_NUM_INTERN) + len(_APP_INTERN)
    )
    sizes[0] = total - mortal
    return sizes


def current_generation():
    """The innermost open generation id, or 0 when none is open."""
    return _CURRENT_GEN


def begin_generation():
    """Open a new intern generation and return its id.

    Terms constructed while the generation is open record it as their birth
    generation and become sweepable by :func:`collect_generation` once the
    generation is closed.  Generations nest (LIFO).
    """
    global _GEN_COUNTER, _CURRENT_GEN
    _GEN_COUNTER += 1
    gen = _GEN_COUNTER
    _OPEN_GENS.append(gen)
    _CURRENT_GEN = gen
    _GEN_POOLS[gen] = []
    return gen


def end_generation(gen):
    """Close generation ``gen`` (and any generation opened after it).

    Closed generations keep their birth pools until collected; empty pools
    are dropped immediately.  Raises :class:`GenerationError` when ``gen``
    is not open.
    """
    global _CURRENT_GEN
    if gen not in _OPEN_GENS:
        raise GenerationError("generation %r is not open" % (gen,))
    while _OPEN_GENS:
        closed = _OPEN_GENS.pop()
        if not _GEN_POOLS.get(closed):
            _GEN_POOLS.pop(closed, None)
        if closed == gen:
            break
    _CURRENT_GEN = _OPEN_GENS[-1] if _OPEN_GENS else 0


class intern_generation:
    """Context manager sugar over :func:`begin_generation` /
    :func:`end_generation`::

        with intern_generation():
            transient = parse_term("obs(t17)")
        collect_generation(pins=[...])   # transient is sweepable now
    """

    __slots__ = ("gen",)

    def __enter__(self):
        self.gen = begin_generation()
        return self.gen

    def __exit__(self, _exc_type, _exc, _tb):
        if self.gen in _OPEN_GENS:
            end_generation(self.gen)
        return False


def _weak_callable(callback):
    """A weak reference to ``callback`` (WeakMethod for bound methods), so
    registries never keep sessions or stores alive."""
    if hasattr(callback, "__self__"):
        return weakref.WeakMethod(callback)
    return weakref.ref(callback)


def register_pin_provider(provider):
    """Register a callable yielding root terms that every collection must
    keep interned (a session's store/EDB/rules, a standalone result a test
    holds on to, ...).  Held weakly — keep the callable (or its bound
    instance) alive yourself.  Returns a handle for
    :func:`unregister_pin_provider`."""
    handle = _weak_callable(provider)
    _PIN_PROVIDERS.append(handle)
    return handle


def unregister_pin_provider(handle):
    """Remove a previously registered pin provider (no-op when absent)."""
    try:
        _PIN_PROVIDERS.remove(handle)
    except ValueError:
        pass


def _call_registered(registry):
    """Yield the live callables of a weak registry, pruning dead entries."""
    dead = []
    for handle in registry:
        callback = handle()
        if callback is None:
            dead.append(handle)
        else:
            yield callback
    for handle in dead:
        try:
            registry.remove(handle)
        except ValueError:
            pass


def _record(term, gen):
    """Register a freshly interned mortal term in its birth pool."""
    pool = _GEN_POOLS.get(gen)
    if pool is None:
        pool = _GEN_POOLS[gen] = []
    pool.append(term)


def _evict(term, counts):
    """Drop one term's intern-table entry (the sweep's unpin action)."""
    kind = type(term)
    if kind is App:
        key = (term.name,) + term.args
        if _APP_INTERN.get(key) is term:
            del _APP_INTERN[key]
        counts["app"] += 1
    elif kind is Num:
        if _NUM_INTERN.get(term.value) is term:
            del _NUM_INTERN[term.value]
        counts["num"] += 1
    elif kind is Var:
        if _VAR_INTERN.get(term.name) is term:
            del _VAR_INTERN[term.name]
        counts["var"] += 1
    else:
        if _SYM_INTERN.get(term.name) is term:
            del _SYM_INTERN[term.name]
        counts["sym"] += 1


def collect_generation(pins=()):
    """Sweep the closed generations: evict every term born in them that is
    not reachable from the pin set.

    ``pins`` is an iterable of root terms to keep (their subterms are kept
    too); the roots yielded by every registered pin provider are always
    added.  Terms that survive stay in their birth pool and are
    re-examined by future collections, so a pinned term becomes evictable
    as soon as it stops being reachable (e.g. after the fact holding it is
    retracted).

    Raises :class:`GenerationError` when any generation is still open —
    in-flight computations hold terms in places no pin provider can see.
    Returns a stats dict: the generation ids swept, the pinned-term count,
    per-constructor eviction counts, and the post-sweep table sizes.
    """
    if _OPEN_GENS:
        raise GenerationError(
            "cannot collect while generations %r are open" % (_OPEN_GENS,)
        )
    target = list(_GEN_POOLS)
    evicted = {"var": 0, "sym": 0, "num": 0, "app": 0}
    if not target:
        return {
            "generations": (),
            "pinned": 0,
            "evicted": evicted,
            "evicted_total": 0,
            "sizes": intern_table_sizes(),
        }

    # Mark: the subterm closure of the pin roots, pruned at terms born
    # before the oldest swept generation (a term can only contain subterms
    # at most as young as itself, so nothing below the threshold can reach
    # a candidate).
    threshold = min(target)
    pinned = set()
    stack = []

    def push_roots(roots):
        for root in roots:
            if isinstance(root, Term) and root._gen >= threshold:
                stack.append(root)

    push_roots(pins)
    for provider in list(_call_registered(_PIN_PROVIDERS)):
        push_roots(provider())
    while stack:
        term = stack.pop()
        if term in pinned:
            continue
        pinned.add(term)
        if type(term) is App:
            name = term.name
            if name._gen >= threshold:
                stack.append(name)
            for arg in term.args:
                if arg._gen >= threshold:
                    stack.append(arg)

    # Sweep: evict the unpinned, keep survivors in their birth pool.
    # Terms promoted to immortality since birth (generation 0) are dropped
    # from the pool without eviction — their table entries are permanent.
    # The intern lock serializes the table deletions against concurrent
    # construction misses on other threads (the serving subsystem's readers
    # may be parsing queries while the writer collects).
    with _INTERN_LOCK:
        for gen in target:
            pool = _GEN_POOLS.pop(gen)
            survivors = []
            for term in pool:
                if term._gen == 0:
                    continue
                if term in pinned:
                    survivors.append(term)
                else:
                    _evict(term, evicted)
            if survivors:
                _GEN_POOLS[gen] = survivors
    return {
        "generations": tuple(target),
        "pinned": len(pinned),
        "evicted": evicted,
        "evicted_total": sum(evicted.values()),
        "sizes": intern_table_sizes(),
    }


class Term:
    """Abstract base class for HiLog terms.

    Concrete subclasses are :class:`Var`, :class:`Sym`, :class:`Num` and
    :class:`App`.  All of them are immutable and hashable so they can be used
    freely as dictionary keys and set members, which the grounding and
    fixpoint engines rely on heavily.
    """

    __slots__ = ()

    def is_ground(self):
        """Return ``True`` when the term contains no variables."""
        raise NotImplementedError

    def variables(self):
        """Return the set of :class:`Var` objects occurring in the term."""
        raise NotImplementedError

    def symbols(self):
        """Return the set of symbol names (strings) occurring in the term."""
        raise NotImplementedError

    def depth(self):
        """Return the nesting depth of the term (symbols and variables are 0)."""
        raise NotImplementedError

    def size(self):
        """Return the number of nodes in the term tree."""
        raise NotImplementedError

    # Every concrete term carries a ``_text`` slot that the one printer
    # (:func:`repro.hilog.pretty.format_term`) fills on first render and that
    # is left *unset* until then, so construction pays nothing for it.  The
    # printer imports this module, hence the import on the miss path only.
    def __repr__(self):
        try:
            return self._text
        except AttributeError:
            from repro.hilog.pretty import format_term

            return format_term(self)


class Var(Term):
    """A logical variable.

    Variables are interned by name: two ``Var('X')`` calls return the same
    object, so equality is identity.  The parser produces names starting
    with an upper-case letter or underscore; programmatically constructed
    variables may use any string.
    """

    __slots__ = ("name", "_hash", "_gen", "_text")

    def __new__(cls, name):
        self = _VAR_INTERN.get(name)
        if self is not None:
            if self._gen and not _CURRENT_GEN:
                _promote(self)
            return self
        with _INTERN_LOCK:
            self = _VAR_INTERN.get(name)
            if self is not None:
                if self._gen and not _CURRENT_GEN:
                    _promote(self)
                return self
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            object.__setattr__(self, "_hash", hash(("var", name)))
            gen = _CURRENT_GEN
            object.__setattr__(self, "_gen", gen)
            _VAR_INTERN[name] = self
            if gen:
                _record(self, gen)
        return self

    def __setattr__(self, key, value):
        raise AttributeError("Var is immutable")

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return self._hash

    def is_ground(self):
        return False

    def variables(self):
        return {self}

    def symbols(self):
        return set()

    def depth(self):
        return 0

    def size(self):
        return 1


class Sym(Term):
    """An atomic HiLog symbol.

    The same symbol may be used as a constant, as a function name, or as a
    predicate name — possibly all three in one program — because HiLog does
    not distinguish these roles.
    """

    __slots__ = ("name", "_hash", "_gen", "_text")

    def __new__(cls, name):
        self = _SYM_INTERN.get(name)
        if self is not None:
            if self._gen and not _CURRENT_GEN:
                _promote(self)
            return self
        with _INTERN_LOCK:
            self = _SYM_INTERN.get(name)
            if self is not None:
                if self._gen and not _CURRENT_GEN:
                    _promote(self)
                return self
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            object.__setattr__(self, "_hash", hash(("sym", name)))
            gen = _CURRENT_GEN
            object.__setattr__(self, "_gen", gen)
            _SYM_INTERN[name] = self
            if gen:
                _record(self, gen)
        return self

    def __setattr__(self, key, value):
        raise AttributeError("Sym is immutable")

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return self._hash

    def is_ground(self):
        return True

    def variables(self):
        return set()

    def symbols(self):
        return {self.name}

    def depth(self):
        return 0

    def size(self):
        return 1


class Num(Sym):
    """An integer literal.

    Numbers behave exactly like symbols for unification, grounding and the
    semantics; the attached :attr:`value` is only consulted by arithmetic and
    comparison builtins and by aggregates.
    """

    __slots__ = ("value",)

    def __new__(cls, value):
        value = int(value)
        self = _NUM_INTERN.get(value)
        if self is not None:
            if self._gen and not _CURRENT_GEN:
                _promote(self)
            return self
        with _INTERN_LOCK:
            self = _NUM_INTERN.get(value)
            if self is not None:
                if self._gen and not _CURRENT_GEN:
                    _promote(self)
                return self
            self = object.__new__(cls)
            object.__setattr__(self, "name", str(value))
            object.__setattr__(self, "value", value)
            object.__setattr__(self, "_hash", hash(("num", value)))
            gen = _CURRENT_GEN
            object.__setattr__(self, "_gen", gen)
            _NUM_INTERN[value] = self
            if gen:
                _record(self, gen)
        return self

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return self._hash


class App(Term):
    """Application of a term to a tuple of argument terms: ``name(args...)``.

    ``name`` is itself an arbitrary term (usually a :class:`Sym` or another
    :class:`App`, but a :class:`Var` is legal — that is what gives HiLog its
    higher-order flavour, e.g. ``G(X, Y)`` or ``winning(M)(X)``).

    Hashing and groundness are the hot inner loops of every set/dict the
    engines use, so both are memoized in slots at construction, and the
    application itself is hash-consed: since children are already interned,
    the intern key ``(name,) + args`` hashes with cached child hashes and
    compares by identity, so re-building an existing application is a single
    dictionary probe that returns the canonical object.
    """

    __slots__ = ("name", "args", "_hash", "_ground", "_depth", "_gen", "_text")

    # For the type checker, which cannot see ``object.__setattr__`` fill them.
    name: Term
    args: Tuple[Term, ...]

    def __new__(cls, name, args=()):
        if not isinstance(name, Term):
            raise TypeError("App name must be a Term, got %r" % (name,))
        args = tuple(args)
        key = (name,) + args
        try:
            self = _APP_INTERN.get(key)
        except TypeError:
            self = None  # unhashable non-Term argument; diagnosed below
        if self is not None:
            if self._gen and not _CURRENT_GEN:
                _promote(self)
            return self
        for arg in args:
            if not isinstance(arg, Term):
                raise TypeError("App argument must be a Term, got %r" % (arg,))
        with _INTERN_LOCK:
            self = _APP_INTERN.get(key)
            if self is not None:
                if self._gen and not _CURRENT_GEN:
                    _promote(self)
                return self
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            object.__setattr__(self, "args", args)
            object.__setattr__(self, "_hash", hash(("app", name, args)))
            object.__setattr__(
                self, "_ground",
                name.is_ground() and all(arg.is_ground() for arg in args)
            )
            # Children are already interned (hence their depths cached), so
            # the nesting depth memoizes bottom-up in O(arity) at
            # construction.
            depth = name.depth()
            for arg in args:
                arg_depth = arg.depth()
                if arg_depth > depth:
                    depth = arg_depth
            object.__setattr__(self, "_depth", depth + 1)
            # Birth generation: at least the current one, and never younger
            # than any child — an application built after a generation closed
            # must still be sweepable together with the mortal children it
            # references (collection prunes pin traversal below a term's own
            # generation, so descendants may never outlive their ancestors'
            # generation bound).  An application over a *fresh* (uninterned)
            # child inherits the fresh sentinel and is itself left uninterned:
            # its key contains an identity-unique object, so a table entry
            # could never be hit again and would only be immortal leak.
            gen = _CURRENT_GEN
            child_gen = name._gen
            if child_gen > gen:
                gen = child_gen
            for arg in args:
                child_gen = arg._gen
                if child_gen > gen:
                    gen = child_gen
            if gen >= _FRESH_GEN:
                # Fresh-descended: uninterned, reclaimed by ordinary GC.
                object.__setattr__(self, "_gen", gen)
                return self
            if gen and not _CURRENT_GEN:
                # Top-level construction over generational children: the
                # immortality promise covers everything obtained while no
                # generation is open, so promote the children (mirroring the
                # intern-hit path) and intern the new application immortally.
                _promote(name)
                for arg in args:
                    _promote(arg)
                gen = 0
            object.__setattr__(self, "_gen", gen)
            _APP_INTERN[key] = self
            if gen:
                _record(self, gen)
        return self

    def __setattr__(self, key, value):
        raise AttributeError("App is immutable")

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return self._hash

    @property
    def arity(self):
        """Number of arguments of the application."""
        return len(self.args)

    def is_ground(self):
        return self._ground

    # The traversals below are iterative (explicit stacks) so that deeply
    # nested terms — which arise when saturating non-strongly-range-restricted
    # programs such as Example 5.2's unguarded tc(G) — never hit Python's
    # recursion limit.
    def variables(self):
        result = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                result.add(node)
            elif isinstance(node, App):
                stack.append(node.name)
                stack.extend(node.args)
        return result

    def symbols(self):
        result = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Sym):
                result.add(node.name)
            elif isinstance(node, App):
                stack.append(node.name)
                stack.extend(node.args)
        return result

    def depth(self):
        return self._depth

    def size(self):
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            count += 1
            if isinstance(node, App):
                stack.append(node.name)
                stack.extend(node.args)
        return count


# ---------------------------------------------------------------------------
# Convenience constructors and helpers
# ---------------------------------------------------------------------------

# The list constructor symbols used by the parser's [H|T] sugar.
CONS = Sym("$cons")
NIL = Sym("$nil")


def intern_app(name, args):
    """Hot-path :class:`App` construction: one intern probe, no validation.

    ``name`` and every element of ``args`` (a tuple) must already be
    :class:`Term`\\ s; the register executor's builders guarantee this.
    """
    cached = _APP_INTERN.get((name,) + args)
    if cached is not None:
        if cached._gen and not _CURRENT_GEN:
            _promote(cached)
        return cached
    return App(name, args)


def sym(name):
    """Build a :class:`Sym` (or :class:`Num` when given an ``int``)."""
    if isinstance(name, Term):
        return name
    if isinstance(name, bool):
        raise TypeError("booleans are not HiLog symbols")
    if isinstance(name, int):
        return Num(name)
    return Sym(str(name))


def var(name):
    """Build a :class:`Var`."""
    if isinstance(name, Var):
        return name
    return Var(str(name))


def fresh_var(name):
    """An **uninterned** variable: a fresh object distinct from every other
    variable, including interned or fresh ones carrying the same name.

    This is the representation of anonymous variables (the parser's ``_``):
    each occurrence denotes a fresh variable, so distinctness must come
    from object identity rather than from globally unique names — unique
    names in the intern table would make every parse of ``_`` permanent
    (immortal) intern growth.  A fresh variable never has an intern-table
    entry — and neither does any application containing one (its intern key
    holds an identity-unique object that could never be probed again) — so
    the whole structure is reclaimed by ordinary Python garbage collection
    along with whatever rule holds it, with no generation bookkeeping.
    Consequently building the *same* application over the *same* fresh
    variable twice yields two distinct objects, and printing a fresh
    variable then reparsing the text yields an (interned) α-equivalent
    variable, not the same object.
    """
    self = object.__new__(Var)
    object.__setattr__(self, "name", name)
    object.__setattr__(self, "_hash", hash(("var", name)))
    object.__setattr__(self, "_gen", _FRESH_GEN)
    return self


def app(name, *args):
    """Build an application ``name(args...)``.

    ``name`` may be a string (converted to a :class:`Sym`), and arguments may
    be strings/ints which are converted with :func:`sym`.  Strings beginning
    with an upper-case letter or ``_`` are *not* auto-converted to variables;
    use :func:`var` or :class:`Var` explicitly for programmatic construction.
    """
    name_term = sym(name) if not isinstance(name, Term) else name
    converted = tuple(arg if isinstance(arg, Term) else sym(arg) for arg in args)
    return App(name_term, converted)


def make_list(items, tail=NIL):
    """Build a HiLog list term out of ``items`` using the ``$cons``/``$nil``
    constructors used by the parser's ``[a, b | T]`` sugar."""
    result = tail
    for item in reversed(list(items)):
        result = App(CONS, (item, result))
    return result


def list_items(term):
    """Inverse of :func:`make_list` for proper lists.

    Returns a list of element terms, or ``None`` when ``term`` is not a
    proper ``$cons``/``$nil`` list.
    """
    items = []
    node = term
    while True:
        if node == NIL:
            return items
        if isinstance(node, App) and node.name == CONS and len(node.args) == 2:
            items.append(node.args[0])
            node = node.args[1]
            continue
        return None


def term_size(term):
    """Module-level alias for :meth:`Term.size`."""
    return term.size()


def subterms(term):
    """Yield every subterm of ``term`` (including ``term`` itself), pre-order."""
    stack = [term]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, App):
            stack.append(current.name)
            stack.extend(reversed(current.args))


def functor(term):
    """Return the outermost *name* of an atom.

    For ``p(a)(X)`` this is the term ``p(a)``; for ``p(a)`` it is the symbol
    ``p``; for a bare symbol it is the symbol itself.  Used when building
    predicate-name dependency graphs.
    """
    if isinstance(term, App):
        return term.name
    return term


def outermost_symbol(term):
    """Return the left-most, inner-most symbol of an atom's name, or ``None``.

    For ``winning(M)(X)`` this is the symbol ``winning``; for ``G(X, Y)``
    (variable name) it is ``None``.  This is the "outermost functor" used in
    Section 6 of the paper when assigning levels to predicate names.
    """
    node = term
    while isinstance(node, App):
        node = node.name
    if isinstance(node, Sym):
        return node
    return None


def predicate_name(atom):
    """Return the predicate-name term of an atom.

    An atom in a rule is either an application (its name is the predicate
    name, which may itself be a complex term such as ``tc(G)``) or a bare
    symbol / variable (a 0-argument proposition, its own name).
    """
    if isinstance(atom, App):
        return atom.name
    return atom


def atom_arguments(atom):
    """Return the tuple of argument terms of an atom (empty for symbols)."""
    if isinstance(atom, App):
        return atom.args
    return ()


def rename_variables(term, mapping, counter):
    """Rename variables in ``term`` apart using ``mapping`` (a dict that is
    updated in place) and ``counter`` (a one-element list used as a mutable
    integer).  Returns the renamed term.  Used to standardize rules apart."""
    if isinstance(term, Var):
        if term not in mapping:
            counter[0] += 1
            mapping[term] = Var("_R%d" % counter[0])
        return mapping[term]
    if isinstance(term, App):
        new_name = rename_variables(term.name, mapping, counter)
        new_args = tuple(rename_variables(arg, mapping, counter) for arg in term.args)
        return App(new_name, new_args)
    return term
