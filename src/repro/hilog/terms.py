"""HiLog terms.

In HiLog there is no distinction between predicate, function and constant
symbols (paper, Section 2): every symbol is a term, every variable is a term,
and if ``t, t1, ..., tn`` are terms then so is the application ``t(t1,...,tn)``
for every ``n >= 0``.  Terms and atoms coincide; the Herbrand base and the
Herbrand universe are the same set.

Terms are immutable and **hash-consed**: every constructor interns its
result in a global table keyed by structure, so two structurally equal terms
are always the *same object*.  Equality is therefore pointer equality
(``a == b`` iff ``a is b``), and the classes define neither ``__eq__`` nor
``__hash__``: a term compares and hashes by identity, in C, so the
evaluation engines' hot loops — index probes, join matches, set membership
— cost one pointer hash regardless of term size.  Three constructors:

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
and compares its children by identity — one dictionary probe per
construction.  Identity hashes vary between processes, so a set of terms
iterates in an order nothing may depend on: whatever reaches a store, a
delta, a log or a counter is kept in insertion-ordered dictionaries.
Every term also carries its **predicate indicator** (:attr:`App.indicator`),
the ``(name, arity)`` pair the relation stores partition by: one tuple
shared by every application of a name to an arity, and ``(term, -1)`` for
a symbol or variable, so ``p`` and ``p()`` stay distinct (footnote 1).
One canonical object per structure also means one *text* per structure:
each term has a ``_text`` slot the printer fills on first render (see
:func:`repro.hilog.pretty.format_term`), so ``repr`` and every
``sorted(key=repr)`` after that is a slot read.

Interning alone would make memory grow with the set of *distinct terms
ever built in the process* — fatal for a long-lived
:class:`~repro.db.session.DatabaseSession` churning over ever-fresh
constants (timestamps, ids).  The tables are therefore **weak by reference
count** (weak hash-consing, after Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006): :func:`collect_terms` evicts every interned term that
nothing outside the tables holds.  CPython already counts who holds an
object, so the intern hit path pays nothing for this — no weak reference,
no mark, no bookkeeping.  The sweep compares each entry's
:func:`sys.getrefcount` with the references the tables themselves account
for: the table's value slot; for a symbol or variable, its own
``(term, -1)`` indicator; for a term used as a name, its ``_INDICATORS``
key and one per arity tuple (an indicator tuple held elsewhere holds its
name, so it does not count).  Children are interned before their parents,
so one pass over the application table in reverse insertion order frees a
whole dead structure: evicting a parent drops its key tuple and its
argument tuple, so each child's count has fallen by the time the pass
reaches it.  (An entry the sweep puts back after a race, below, moves to
the end of its table, so a dead parent of it may take a second sweep.)

Identity survives the sweep because a term is evicted only when nobody
holds it: rebuilding the structure later creates a fresh canonical object
that has no surviving twin, so ``a == b`` iff ``a is b`` still holds for
every term anyone can observe.  Holding a term — in a store, a rule, an
update summary, a local variable — is what keeps it; there is nothing to
pin and no scope to open.  A term held only from a reference cycle that is
already garbage stays until the cyclic collector frees the cycle
(:func:`gc.collect`).  Two caveats:

* The sweep is **CPython-specific**: it relies on ``sys.getrefcount``
  reporting exact reference counts.  The first sweep runs over probe
  terms (:func:`_counts_exact`); on another interpreter, a free-threaded
  build, or one whose counts read other than the sweep assumes, every
  sweep evicts nothing, warns, and says so in its stats.  The tests also pin the counts
  the tables hold for each kind of term.
* The hit path takes no lock, and the sweep counts without one, so another
  thread can take a term between the sweep's count and its delete.  The
  sweep therefore deletes the entry under :data:`_INTERN_LOCK`, counts
  again, and puts it back when the count rose; a miss waits on the lock,
  so no twin can be built meanwhile.  The lock is held across a run of
  evictions only, so a miss waits for one run of garbage, not for the
  whole pass.

Anonymous variables are outside the tables entirely: :func:`fresh_var`
creates uninterned variables (and applications over them stay uninterned),
reclaimed by ordinary garbage collection.  Monitor the tables with
:func:`intern_table_sizes`.
"""

from __future__ import annotations

import sys
import threading
import warnings

from typing import Dict, Iterable, Iterator, Set, Tuple, Union

#: Guards the intern tables' *construction* (miss) path and the sweep's
#: evictions, so two threads interning the same new structure concurrently
#: cannot each insert a twin (which would break identity-based equality).
#: The hit path stays lock-free: dictionary probes are atomic under the
#: GIL, and a hit never mutates a table.  Contention is negligible — the
#: serving subsystem's readers mostly *hit* (their queries mention terms
#: the model already interned), and construction is dwarfed by the
#: dictionary work it guards.
_INTERN_LOCK = threading.RLock()

#: ``sys.getrefcount``, which some interpreters lack (the sweep then evicts
#: nothing; see :func:`_counts_exact`).
getrefcount = getattr(sys, "getrefcount", None)

#: Global intern (hash-consing) tables, one per constructor.  Num gets its
#: own table so ``Num(1)`` and ``Sym("1")`` stay distinct objects.
_VAR_INTERN = {}
_SYM_INTERN = {}
_NUM_INTERN = {}
_APP_INTERN = {}

#: The shared indicator tuples of interned applications, ``{name: {arity:
#: (name, arity)}}``: every application of one name and arity carries the
#: same tuple.  An entry goes when its name is evicted.
_INDICATORS = {}


def intern_table_sizes():
    """Diagnostic: the number of *currently interned* terms per constructor.

    Counts shrink when :func:`collect_terms` evicts the terms nothing holds,
    so under churn (a session inserting and retracting facts over fresh
    constants) the sizes after a sweep are bounded by the live term volume
    instead of growing with every term ever built.
    """
    return {
        "var": len(_VAR_INTERN),
        "sym": len(_SYM_INTERN),
        "num": len(_NUM_INTERN),
        "app": len(_APP_INTERN),
    }


def _indicator(name, arity):
    """The shared ``(name, arity)`` tuple of the interned applications of
    ``name`` to ``arity`` arguments (called under the intern lock)."""
    by_arity = _INDICATORS.get(name)
    if by_arity is None:
        by_arity = _INDICATORS[name] = {}
    indicator = by_arity.get(arity)
    if indicator is None:
        indicator = by_arity[arity] = (name, arity)
    return indicator


def _table_refs(term):
    """The references to the interned ``term`` that the tables alone
    account for: its value slot, its own ``(term, -1)`` indicator unless it
    is an application, and, when it names applications, its
    ``_INDICATORS`` key and one per arity tuple.  An indicator tuple held
    outside the tables keeps ``term`` alive through it, so its reference
    does not count: the sweep then sees one reference too many."""
    refs = 1
    # getrefcount's argument and the slot: the term is the tuple's holder.
    if type(term) is not App and getrefcount(term.indicator) == 2:
        refs += 1
    by_arity = _INDICATORS.get(term)
    if by_arity is not None:
        refs += 1
        # A copy: a miss on another thread may add an arity meanwhile.
        for indicator in tuple(by_arity.values()):
            # The table's value, the copy, the loop variable and the argument.
            if getrefcount(indicator) == 4:
                refs += 1
    return refs


def _key(term):
    """The key of an interned ``term`` in its table."""
    kind = type(term)
    if kind is App:
        return (term.name,) + term.args
    if kind is Num:
        return term.value
    return term.name


def _sweep(tables, evicted):
    """Evict the terms of ``tables``, ``(kind, table)`` pairs, that nothing
    outside the intern tables holds, each table newest first, and count
    them into ``evicted``.

    A live term is counted without :data:`_INTERN_LOCK`; an eviction takes
    it, deletes the entry, counts again and puts the entry back if a hit or
    a miss took the term since the first count.  The lock is held across a
    run of evictions and released at the next live term, so a miss waits
    for one run of garbage, not for the pass.
    """
    for kind, table in tables:
        # Values only, popped newest first: a snapshot of the key tuples
        # would hold every child and keep dead structures alive.
        pending = list(table.values())
        locked = False
        try:
            while pending:
                term = pending.pop()
                # ``term`` and getrefcount's argument are the sweep's own.
                if getrefcount(term) - 2 != _table_refs(term):
                    if locked:
                        _INTERN_LOCK.release()
                        locked = False
                    continue
                if not locked:
                    _INTERN_LOCK.acquire()
                    locked = True
                # The key is never bound to a name: it holds the children.
                del table[_key(term)]
                if getrefcount(term) - 2 != _table_refs(term) - 1:
                    table[_key(term)] = term  # taken since the first count
                    continue
                _INDICATORS.pop(term, None)
                evicted[kind] += 1
        finally:
            if locked:
                _INTERN_LOCK.release()


def _counts_exact():
    """Whether the sweep's counts read true on this interpreter.

    Only CPython with a GIL can qualify: a free-threaded build running
    without one has biased counts and no GIL to order its hits.  There the
    sweep runs over private tables of probe terms, so a
    ``sys.getrefcount`` that reads other than :func:`_table_refs` assumes
    (one low, as when an interpreter borrows the reference of a local it
    passes to a call) shows as a held probe evicted or a dead one kept.
    The probes cover every count the sweep makes: a symbol and an
    application held from one place outside the tables, which stay; a dead
    symbol, a dead symbol used as a name at two arities, and a dead
    application used as a name, which go.
    """
    if (getrefcount is None or sys.implementation.name != "cpython"
            or not getattr(sys, "_is_gil_enabled", lambda: True)()):
        return False
    with _INTERN_LOCK:
        # Named by fresh objects, so no other term can share a probe's
        # entry, and moved out of the shared tables, so no hit can take one.
        lone, kept_name, name, dead = (Sym(object()) for _ in range(4))
        kept = App(kept_name, ())
        inner = App(name, (lone,))
        probes = (lone, kept, kept_name, name, dead, inner,
                  App(name, (lone, lone)), App(inner, (lone,)))
        apps = {_key(t): _APP_INTERN.pop(_key(t))
                for t in probes if type(t) is App}
        syms = {_key(t): _SYM_INTERN.pop(_key(t))
                for t in probes if type(t) is Sym}
    del name, dead, inner, probes
    evicted = {"app": 0, "sym": 0}
    _sweep((("app", apps), ("sym", syms)), evicted)
    exact = (evicted == {"app": 3, "sym": 2}
             and tuple(apps.values()) == (kept,)
             and tuple(syms.values()) == (lone, kept_name))
    for survivor in tuple(apps.values()) + tuple(syms.values()):
        _INDICATORS.pop(survivor, None)
    return exact


#: Serialises sweeps: a sweep holds :data:`_INTERN_LOCK` only to evict.
_SWEEP_LOCK = threading.Lock()

#: :func:`_counts_exact`, found on the first sweep.
_COUNTS_EXACT = None


def collect_terms():
    """Evict every interned term nothing outside the intern tables holds.

    One pass: the application table in reverse insertion order (parents
    before their children, so a dead structure goes whole), then the
    symbol, number and variable tables.  A term is evicted when its
    :func:`sys.getrefcount` equals :func:`_table_refs` plus the sweep's own
    two references; the entry is deleted under :data:`_INTERN_LOCK`,
    counted again and put back if a hit or a miss took the term meanwhile.
    A put-back entry moves to the end of its table, so a dead parent of it
    may take a second sweep.  Relies on CPython's reference counts (see the
    module docstring): the first sweep checks them on probe terms
    (:func:`_counts_exact`), and where they do not read true every sweep
    evicts nothing and warns.

    The cost is one count per interned term, whatever was evicted.  Returns
    a stats dict: per-constructor eviction counts, their total, the
    post-sweep table sizes, and ``exact_counts``, whether the counts read
    true (no eviction otherwise).
    """
    global _COUNTS_EXACT
    evicted = {"var": 0, "sym": 0, "num": 0, "app": 0}
    with _SWEEP_LOCK:
        if _COUNTS_EXACT is None:
            _COUNTS_EXACT = _counts_exact()
        exact = _COUNTS_EXACT
        if exact:
            _sweep((("app", _APP_INTERN), ("sym", _SYM_INTERN),
                    ("num", _NUM_INTERN), ("var", _VAR_INTERN)), evicted)
    if not exact:
        warnings.warn(
            "sys.getrefcount does not read exact reference counts on this "
            "interpreter: interned terms are never evicted",
            RuntimeWarning, stacklevel=2)
    return {
        "evicted": evicted,
        "evicted_total": sum(evicted.values()),
        "sizes": intern_table_sizes(),
        "exact_counts": exact,
    }


class Term:
    """Abstract base class for HiLog terms.

    Concrete subclasses are :class:`Var`, :class:`Sym`, :class:`Num` and
    :class:`App`.  All of them are immutable and interned, so they hash and
    compare by identity and serve as dictionary keys and set members, which
    the grounding and fixpoint engines rely on heavily.
    """

    __slots__ = ()

    #: The predicate indicator: ``(name, arity)`` for an application (one
    #: tuple shared per name and arity), ``(self, -1)`` otherwise.
    indicator: Tuple["Term", int]

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

    #: ``_fresh`` is true for the uninterned variables of :func:`fresh_var`.
    __slots__ = ("name", "indicator", "_fresh", "_text")

    #: Groundness, read where :meth:`is_ground` would cost a call.
    _ground = False

    def __new__(cls, name):
        self = _VAR_INTERN.get(name)
        if self is not None:
            return self
        with _INTERN_LOCK:
            self = _VAR_INTERN.get(name)
            if self is not None:
                return self
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            object.__setattr__(self, "indicator", (self, -1))
            object.__setattr__(self, "_fresh", False)
            _VAR_INTERN[name] = self
        return self

    def __setattr__(self, key, value):
        raise AttributeError("Var is immutable")

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

    __slots__ = ("name", "indicator", "_text")

    #: Groundness, read where :meth:`is_ground` would cost a call.
    _ground = True
    #: A symbol is always interned.
    _fresh = False

    def __new__(cls, name):
        self = _SYM_INTERN.get(name)
        if self is not None:
            return self
        with _INTERN_LOCK:
            self = _SYM_INTERN.get(name)
            if self is not None:
                return self
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            object.__setattr__(self, "indicator", (self, -1))
            _SYM_INTERN[name] = self
        return self

    def __setattr__(self, key, value):
        raise AttributeError("Sym is immutable")

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
            return self
        with _INTERN_LOCK:
            self = _NUM_INTERN.get(value)
            if self is not None:
                return self
            self = object.__new__(cls)
            object.__setattr__(self, "name", str(value))
            object.__setattr__(self, "value", value)
            object.__setattr__(self, "indicator", (self, -1))
            _NUM_INTERN[value] = self
        return self


class App(Term):
    """Application of a term to a tuple of argument terms: ``name(args...)``.

    ``name`` is itself an arbitrary term (usually a :class:`Sym` or another
    :class:`App`, but a :class:`Var` is legal — that is what gives HiLog its
    higher-order flavour, e.g. ``G(X, Y)`` or ``winning(M)(X)``).

    The application is hash-consed: since children are already interned,
    the intern key ``(name,) + args`` hashes and compares them by identity,
    so re-building an existing application is a single dictionary probe
    that returns the canonical object.  What the engines ask of a fact per
    use is memoized in slots at construction: groundness, depth, and
    :attr:`indicator`, the ``(name, arity)`` tuple every interned
    application of the same name and arity shares.
    """

    __slots__ = ("name", "args", "indicator", "_ground", "_depth", "_fresh", "_text")

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
            return self
        for arg in args:
            if not isinstance(arg, Term):
                raise TypeError("App argument must be a Term, got %r" % (arg,))
        with _INTERN_LOCK:
            self = _APP_INTERN.get(key)
            if self is not None:
                return self
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            object.__setattr__(self, "args", args)
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
            # An application over a *fresh* (uninterned) child is itself
            # fresh and left uninterned: its key contains an identity-unique
            # object, so a table entry could never be hit again.  So is its
            # indicator: an entry in the shared table would hold a fresh
            # name.
            fresh = name._fresh
            for arg in args:
                if arg._fresh:
                    fresh = True
            object.__setattr__(self, "_fresh", fresh)
            if fresh:
                object.__setattr__(self, "indicator", (name, len(args)))
                return self
            object.__setattr__(self, "indicator", _indicator(name, len(args)))
            _APP_INTERN[key] = self
        return self

    def __setattr__(self, key, value):
        raise AttributeError("App is immutable")

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
    along with whatever rule holds it.
    Consequently building the *same* application over the *same* fresh
    variable twice yields two distinct objects, and printing a fresh
    variable then reparsing the text yields an (interned) α-equivalent
    variable, not the same object.
    """
    self = object.__new__(Var)
    object.__setattr__(self, "name", name)
    object.__setattr__(self, "indicator", (self, -1))
    object.__setattr__(self, "_fresh", True)
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
