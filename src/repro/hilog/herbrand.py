"""Herbrand universe enumeration for HiLog programs.

In HiLog the Herbrand universe is *generated* by the symbols appearing in a
program: from those symbols all terms of all arities can be built, so the
universe is countably infinite whenever it is nonempty (paper, Section 2).
Because the paper's constructions instantiate programs over this infinite
universe, a practical reproduction needs finite approximations:

* :class:`HerbrandUniverse` enumerates all HiLog terms over a symbol set up
  to a configurable application depth and maximum arity.  This exhaustive
  enumeration is what the semantics experiments use on small vocabularies
  (Example 4.1, Example 5.1, the preservation-under-extensions checks).

* For the program classes the paper's algorithms target (strongly
  range-restricted programs, Datahilog programs) the relevance-driven
  grounder in :mod:`repro.engine.grounding` never needs the full universe:
  every atom outside the finitely many relevant ones is unfounded, hence
  false (Observation 5.1 and Lemma 6.3), so restricting attention to the
  materialized atoms is sound.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, List, Sequence, Set, Tuple

from repro.hilog.program import Program
from repro.hilog.terms import App, Sym, Term


def herbrand_symbols(program, extra_symbols=()):
    """The vocabulary generating the Herbrand universe of ``program``.

    ``extra_symbols`` supports the domain-independence experiments, where the
    language is enlarged with symbols that do not occur in the program.
    A program with no symbols at all still gets a universe: like the paper's
    treatment of empty vocabularies, we add a single fresh constant so that
    the universe is nonempty.
    """
    names = set(program.symbols()) | {str(s) for s in extra_symbols}
    if not names:
        names = {"$c0"}
    return frozenset(names)


class HerbrandUniverse:
    """A finite, depth-bounded fragment of a HiLog Herbrand universe.

    Parameters:
        symbols: iterable of symbol names (strings) generating the universe.
        max_depth: maximum application-nesting depth of enumerated terms
            (0 enumerates only the bare symbols).
        max_arity: maximum number of arguments used when building
            applications.
        include_zero_arity: whether to build 0-ary applications ``p()``
            distinct from the symbol ``p``.

    The full HiLog universe is the limit ``max_depth -> infinity``; the class
    exposes :meth:`terms` (the finite fragment) plus helpers used by the
    exhaustive grounder and by the experiments of Sections 4 and 5.
    """

    def __init__(self, symbols, max_depth=1, max_arity=2, include_zero_arity=False):
        self._symbols = tuple(sorted({str(name) for name in symbols}))
        if not self._symbols:
            self._symbols = ("$c0",)
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if max_arity < 1:
            raise ValueError("max_arity must be >= 1")
        self._max_depth = int(max_depth)
        self._max_arity = int(max_arity)
        self._include_zero_arity = bool(include_zero_arity)
        self._levels = None

    # -- properties -----------------------------------------------------------
    @property
    def max_arity(self):
        return self._max_arity

    @classmethod
    def of_program(cls, program, max_depth=1, max_arity=None, extra_symbols=(),
                   include_zero_arity=False):
        """Build a universe from a program's vocabulary.

        When ``max_arity`` is ``None`` it defaults to the largest arity
        appearing in the program (at least 1).
        """
        if max_arity is None:
            max_arity = max(_arities_of_program(program), default=1)
            max_arity = max(max_arity, 1)
        return cls(
            herbrand_symbols(program, extra_symbols=extra_symbols),
            max_depth=max_depth,
            max_arity=max_arity,
            include_zero_arity=include_zero_arity,
        )

    # -- enumeration ----------------------------------------------------------
    def _build_levels(self):
        """Compute terms grouped by depth, memoized."""
        if self._levels is not None:
            return self._levels
        level0 = [Sym(name) for name in self._symbols]
        levels = [list(level0)]
        all_terms = list(level0)
        for depth in range(1, self._max_depth + 1):
            new_terms = []
            # Names can be anything of depth < current; arguments anything of
            # depth < current.  To keep the enumeration finite but faithful we
            # use every previously built term in both roles.
            candidates = list(all_terms)
            arities = range(0 if self._include_zero_arity else 1, self._max_arity + 1)
            for name in candidates:
                for arity in arities:
                    for args in product(candidates, repeat=arity):
                        term = App(name, args)
                        if term.depth() == depth:
                            new_terms.append(term)
            levels.append(new_terms)
            all_terms.extend(new_terms)
        self._levels = levels
        return levels

    def terms(self):
        """All terms of the bounded universe (symbols first, then by depth)."""
        result = []
        for level in self._build_levels():
            result.extend(level)
        return result

    def constants(self):
        """The depth-0 terms, i.e. the bare symbols."""
        return [Sym(name) for name in self._symbols]

    def __iter__(self):
        return iter(self.terms())

    def __len__(self):
        return len(self.terms())

    def __contains__(self, term):
        if not isinstance(term, Term) or not term.is_ground():
            return False
        if term.depth() > self._max_depth:
            return False
        return set(term.symbols()) <= set(self._symbols)


def _arities_of_program(program):
    """All application arities appearing anywhere in a program."""
    arities = set()

    def visit(term):
        if isinstance(term, App):
            arities.add(len(term.args))
            visit(term.name)
            for arg in term.args:
                visit(arg)

    for rule in program.rules:
        visit(rule.head)
        for literal in rule.body:
            visit(literal.atom)
        for aggregate in rule.aggregates:
            visit(aggregate.value)
            visit(aggregate.condition)
            visit(aggregate.result)
    return arities


def normal_herbrand_universe(program):
    """The *normal* Herbrand universe of a normal program.

    For a function-free normal program this is just its set of constants:
    the symbols that appear in argument positions.  (Function symbols are
    handled by the depth-bounded :class:`HerbrandUniverse`; the normal
    experiments in this reproduction are Datalog-like, matching the paper's
    examples.)  If the program has no constants, a single fresh constant is
    invented, mirroring footnote 3 of the paper.
    """
    constants = set()

    def visit_argument(term):
        if isinstance(term, Sym):
            constants.add(term)
        elif isinstance(term, App):
            # Function application in an argument position: collect symbols.
            visit_argument(term.name)
            for arg in term.args:
                visit_argument(arg)

    for rule in program.rules:
        atoms = [rule.head] + [lit.atom for lit in rule.body]
        for atom in atoms:
            if isinstance(atom, App):
                for arg in atom.args:
                    visit_argument(arg)
        for aggregate in rule.aggregates:
            if isinstance(aggregate.condition, App):
                for arg in aggregate.condition.args:
                    visit_argument(arg)
    if not constants:
        constants = {Sym("$c0")}
    return sorted(constants, key=lambda s: s.name)
