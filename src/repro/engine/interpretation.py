"""Three-valued Herbrand interpretations.

An interpretation assigns *true*, *false* or *undefined* to ground atoms
(paper, Definition 3.2 for normal programs; Definition 2.2 for the HiLog
quadruple view).  We represent an interpretation by its finite set of true
atoms, its finite set of false atoms and (optionally) the atom *base* it is
relative to: atoms in the base but in neither set are undefined, atoms
outside the base are treated as false by convention (the closed-world
reading used throughout the paper's unfoundedness arguments).

The module also implements the paper's comparison relations between
interpretations over different languages:

* :func:`extends` — Definition 2.4 (first half): everything true stays true
  and nothing undefined becomes false.
* :func:`conservatively_extends` — Definition 2.4 (second half): on atoms
  expressible in the smaller language the two interpretations agree exactly,
  and every *new* atom whose predicate name is expressible in the smaller
  language is false in the larger interpretation ("the only extra
  information is negative").
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, NamedTuple, Optional, Set

from repro.hilog.terms import App, Sym, Term, predicate_name


class Interpretation:
    """A three-valued interpretation given by true atoms, false atoms, base."""

    __slots__ = ("true", "false", "base")

    def __init__(self, true=(), false=(), base=None):
        true = frozenset(true)
        false = frozenset(false)
        if true & false:
            overlap = next(iter(true & false))
            raise ValueError("inconsistent interpretation: %r is both true and false" % (overlap,))
        if base is None:
            base = true | false
        else:
            base = frozenset(base) | true | false
        object.__setattr__(self, "true", true)
        object.__setattr__(self, "false", false)
        object.__setattr__(self, "base", base)

    def __setattr__(self, key, value):
        raise AttributeError("Interpretation is immutable")

    # -- truth queries --------------------------------------------------------
    @property
    def undefined(self):
        """The atoms of the base that are neither true nor false."""
        return self.base - self.true - self.false

    def is_true(self, atom):
        return atom in self.true

    def is_false(self, atom):
        """Atoms explicitly false, or outside the base (closed world)."""
        if atom in self.false:
            return True
        return atom not in self.base

    def is_undefined(self, atom):
        return atom in self.base and atom not in self.true and atom not in self.false

    def value(self, atom):
        """Return 'true', 'false' or 'undefined'."""
        if self.is_true(atom):
            return "true"
        if self.is_undefined(atom):
            return "undefined"
        return "false"

    def satisfies_literal(self, literal):
        """True when a ground literal holds in the interpretation."""
        if literal.positive:
            return self.is_true(literal.atom)
        return self.is_false(literal.atom)

    def is_total(self):
        """True when no atom of the base is undefined."""
        return not self.undefined

    # -- construction ---------------------------------------------------------
    def complete(self):
        """Return the total interpretation making every undefined atom false."""
        return Interpretation(self.true, self.false | self.undefined, self.base)

    def restrict(self, keep):
        """Restrict to atoms satisfying the predicate ``keep``."""
        return Interpretation(
            {a for a in self.true if keep(a)},
            {a for a in self.false if keep(a)},
            {a for a in self.base if keep(a)},
        )

    def union(self, other):
        """Union of two interpretations (must be consistent)."""
        return Interpretation(
            self.true | other.true,
            self.false | other.false,
            self.base | other.base,
        )

    def as_literal_set(self):
        """The interpretation as a set of signed ground literals."""
        from repro.hilog.program import Literal

        result = {Literal(atom, True) for atom in self.true}
        result |= {Literal(atom, False) for atom in self.false}
        return result


class WellFoundedResult(NamedTuple):
    """The well-founded model plus diagnostics about its computation.

    Shared by all three engines: the ground ``wp``/``alternating``
    constructions of :mod:`repro.engine.wellfounded`, and the semi-naive
    alternating fixpoint of :mod:`repro.engine.seminaive.wellfounded`.
    ``iterations`` counts the engine's inner fixpoint steps;
    ``alternations`` the outer over/under rounds (only the semi-naive
    engine distinguishes the two — the ground engines leave it 0).
    """

    interpretation: Interpretation
    iterations: int
    engine: str
    alternations: int = 0


def restrict_to_symbols(interpretation, symbols):
    """Restrict an interpretation to atoms built only from ``symbols``."""
    allowed = set(symbols)

    def keep(atom):
        return set(atom.symbols()) <= allowed

    return interpretation.restrict(keep)


def _name_expressible(atom, symbols):
    """True when the predicate *name* of ``atom`` uses only ``symbols``.

    This captures "atoms in the language of I' whose name is in P_I" from
    Definition 2.4.
    """
    return set(predicate_name(atom).symbols()) <= set(symbols)


def _atom_expressible(atom, symbols):
    """True when the whole atom uses only ``symbols`` (it is legal in I)."""
    return set(atom.symbols()) <= set(symbols)


def extends(larger, smaller, smaller_symbols=None):
    """Definition 2.4 (first half): does ``larger`` extend ``smaller``?

    Everything true in ``smaller`` must be true in ``larger``, and everything
    undefined in ``smaller`` must be true or undefined (not false) in
    ``larger``.  Only atoms whose predicate name is expressible in the
    smaller language are considered.
    """
    if smaller_symbols is None:
        smaller_symbols = _symbols_of(smaller)
    for atom in smaller.true:
        if not larger.is_true(atom):
            return False
    for atom in smaller.undefined:
        if larger.is_false(atom):
            return False
    return True


def conservatively_extends(larger, smaller, smaller_symbols=None):
    """Definition 2.4 (second half): does ``larger`` conservatively extend
    ``smaller``?

    For atoms of ``larger``'s base whose predicate name is expressible with
    ``smaller``'s symbols:

    * if the whole atom is expressible in the smaller language, its truth
      value must be the same in both interpretations;
    * otherwise (a "new" atom about an old predicate) it must be false in
      ``larger``.
    """
    if smaller_symbols is None:
        smaller_symbols = _symbols_of(smaller)
    smaller_symbols = set(smaller_symbols)

    # Old atoms keep their truth value.
    for atom in smaller.true:
        if not larger.is_true(atom):
            return False
    for atom in smaller.false:
        if not larger.is_false(atom):
            return False
    for atom in smaller.undefined:
        if not larger.is_undefined(atom):
            return False

    # Atoms of the larger base about old predicate names: either old atoms
    # (checked above) or new atoms, which must be false.
    for atom in larger.true | larger.undefined:
        if not _name_expressible(atom, smaller_symbols):
            continue
        if _atom_expressible(atom, smaller_symbols):
            # Old atom: it must have the same value in the smaller model,
            # which for atoms outside smaller's base means false.
            if smaller.is_false(atom) and atom not in smaller.base:
                # The atom is "legal" in the smaller language but was never
                # materialized there; being true/undefined in the larger
                # model is new (non-negative) information, so reject.
                return False
            if atom in larger.true and not smaller.is_true(atom):
                return False
            if atom in larger.undefined and not smaller.is_undefined(atom):
                return False
        else:
            # New atom about an old predicate: only negative information is
            # allowed, so it must not be true or undefined.
            return False
    return True


def _symbols_of(interpretation):
    """All symbols appearing in an interpretation's base."""
    symbols = set()
    for atom in interpretation.base:
        symbols |= atom.symbols()
    return symbols
