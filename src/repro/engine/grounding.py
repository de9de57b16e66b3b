"""Grounders: from HiLog programs with variables to ground programs.

The paper defines the semantics of a HiLog program by instantiating its
rules over the HiLog Herbrand universe (Section 4).  That universe is
infinite, so this module provides two practical grounders:

* :func:`ground_over_universe` — exhaustive instantiation over an explicitly
  given finite universe fragment (typically a depth-bounded
  :class:`repro.hilog.herbrand.HerbrandUniverse`).  Faithful to the paper's
  construction restricted to the fragment; used by the semantics experiments
  on small vocabularies.

* :func:`relevant_ground_program` — relevance-driven instantiation: only
  rule instances whose positive body atoms are derivable (ignoring negation)
  are produced.  For the program classes the paper's algorithms target
  (strongly range-restricted programs, Datahilog programs) every atom not
  produced this way is unfounded and hence false in the well-founded model
  (Observation 5.1, Lemma 6.3), so evaluating over the relevant fragment is
  sound and complete.

Ground rules carry only atoms: builtins are evaluated away during grounding
and aggregate rules are rejected here (they are handled by the modular
evaluator in :mod:`repro.core.modular`).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.hilog.errors import EvaluationError, GroundingError
from repro.hilog.program import Literal, Program, Rule
from repro.hilog.subst import Substitution
from repro.hilog.terms import App, Term, Var, predicate_name
from repro.hilog.unify import match
from repro.engine.builtins import evaluate_ground_builtin, solve_builtin


class GroundRule(NamedTuple):
    """A fully instantiated rule: head atom, positive body atoms, negative body atoms."""

    head: Term
    positive: Tuple[Term, ...]
    negative: Tuple[Term, ...]

    def __repr__(self):
        from repro.hilog.pretty import format_term

        parts = [format_term(a) for a in self.positive]
        parts += ["not %s" % format_term(a) for a in self.negative]
        if not parts:
            return "%s." % format_term(self.head)
        return "%s :- %s." % (format_term(self.head), ", ".join(parts))


class GroundProgram:
    """A finite set of ground rules together with the atom base they range over."""

    __slots__ = ("rules", "base")

    def __init__(self, rules, base=None):
        rules = tuple(rules)
        atoms = set()
        for rule in rules:
            atoms.add(rule.head)
            atoms.update(rule.positive)
            atoms.update(rule.negative)
        if base is not None:
            atoms |= set(base)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "base", frozenset(atoms))

    def __setattr__(self, key, value):
        raise AttributeError("GroundProgram is immutable")

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def __repr__(self):
        return "GroundProgram(rules=%d, base=%d)" % (len(self.rules), len(self.base))

    def rules_for(self, atom):
        """All ground rules whose head is ``atom``."""
        return tuple(rule for rule in self.rules if rule.head == atom)

    def union(self, other):
        """Union of two ground programs (rule sets and bases)."""
        return GroundProgram(tuple(self.rules) + tuple(other.rules), self.base | other.base)


# ---------------------------------------------------------------------------
# Exhaustive grounding over a finite universe fragment
# ---------------------------------------------------------------------------

def ground_over_universe(program, universe, base_from_universe=False, arities=None):
    """Instantiate every rule of ``program`` over ``universe`` exhaustively.

    ``universe`` is any iterable of ground terms (for example a
    :class:`repro.hilog.herbrand.HerbrandUniverse`).  Builtin body literals
    are evaluated and removed; instances whose builtins fail are dropped.

    When ``base_from_universe`` is true the returned program's atom base also
    contains, for every arity in ``arities`` (default: the arities used in
    the program), every atom ``name(args...)`` with name and arguments drawn
    from the universe — this materializes a larger slice of the HiLog
    Herbrand base and is used by the experiments that need "new" atoms to be
    explicitly present (domain independence, conservative extensions).
    """
    if program.has_aggregates():
        raise GroundingError("exhaustive grounding does not support aggregate rules")
    universe_terms = list(universe)
    if not universe_terms:
        raise GroundingError("cannot ground over an empty universe")

    ground_rules = []
    for rule in program.rules:
        variables = sorted(rule.variables(), key=lambda v: v.name)
        if not variables:
            instance = _finish_instance(rule, Substitution())
            if instance is not None:
                ground_rules.append(instance)
            continue
        for combination in product(universe_terms, repeat=len(variables)):
            subst = Substitution(dict(zip(variables, combination)))
            instance = _finish_instance(rule, subst)
            if instance is not None:
                ground_rules.append(instance)

    extra_base = set()
    if base_from_universe:
        if arities is None:
            arities = _program_arities(program)
        for arity in sorted(arities):
            for name in universe_terms:
                for args in product(universe_terms, repeat=arity):
                    extra_base.add(App(name, args) if arity else App(name, ()))
        extra_base.update(universe_terms)
    return GroundProgram(ground_rules, base=extra_base)


def _program_arities(program):
    arities = set()
    for rule in program.rules:
        atoms = [rule.head] + [lit.atom for lit in rule.body if not lit.is_builtin()]
        for atom in atoms:
            if isinstance(atom, App):
                arities.add(len(atom.args))
            else:
                arities.add(0)
    # Arity 0 here means "bare symbol", which is already in the universe.
    return {a for a in arities if a > 0}


def _finish_instance(rule, subst):
    """Apply ``subst`` to ``rule``, evaluate its builtins, and return a
    :class:`GroundRule` (or ``None`` when a builtin fails).

    Raises :class:`GroundingError` when the substituted rule is not ground.
    """
    head = subst.apply(rule.head)
    if not head.is_ground():
        raise GroundingError("rule head %r is not ground after substitution" % (head,))
    positive = []
    negative = []
    for literal in rule.body:
        atom = subst.apply(literal.atom)
        if literal.is_builtin():
            if not atom.is_ground():
                raise GroundingError("builtin %r not ground after substitution" % (atom,))
            if not evaluate_ground_builtin(atom):
                return None
            continue
        if not atom.is_ground():
            raise GroundingError("body atom %r is not ground after substitution" % (atom,))
        if literal.positive:
            positive.append(atom)
        else:
            negative.append(atom)
    return GroundRule(head, tuple(positive), tuple(negative))


# ---------------------------------------------------------------------------
# Relevance-driven grounding
# ---------------------------------------------------------------------------

class _AtomIndex:
    """Index ground atoms by their (ground) predicate-name term for matching."""

    def __init__(self):
        self._by_name = {}
        self._all = []
        self._members = set()

    def __contains__(self, atom):
        return atom in self._members

    def __len__(self):
        return len(self._all)

    def add(self, atom):
        if atom in self._members:
            return False
        self._members.add(atom)
        self._all.append(atom)
        name = predicate_name(atom)
        self._by_name.setdefault(name, []).append(atom)
        return True

    def candidates(self, pattern, subst):
        """Atoms that could match ``pattern`` under ``subst`` (name-indexed)."""
        applied_name = subst.apply(predicate_name(pattern))
        if applied_name.is_ground():
            return self._by_name.get(applied_name, [])
        return self._all

    def atoms(self):
        return list(self._all)


def _solve_body(rule, subst, index, position, deferred_builtins):
    """Backtracking search for substitutions satisfying a rule body against
    the atoms in ``index``.  Yields complete substitutions."""
    while position < len(rule.body) and rule.body[position].is_builtin():
        literal = rule.body[position]
        try:
            solutions = solve_builtin(literal.atom, subst)
        except EvaluationError:
            # Not solvable yet: defer until more variables are bound.
            yield from _solve_body(rule, subst, index, position + 1,
                                   deferred_builtins + [literal])
            return
        for solution in solutions:
            yield from _solve_body(rule, solution, index, position + 1, deferred_builtins)
        return

    if position >= len(rule.body):
        # Retry any deferred builtins now that everything else is bound.
        current = [subst]
        for literal in deferred_builtins:
            next_substs = []
            for candidate in current:
                next_substs.extend(solve_builtin(literal.atom, candidate))
            current = next_substs
            if not current:
                return
        yield from current
        return

    literal = rule.body[position]
    if literal.negative:
        # Negative literals do not bind variables during grounding.
        yield from _solve_body(rule, subst, index, position + 1, deferred_builtins)
        return

    pattern = literal.atom
    for atom in index.candidates(pattern, subst):
        extended = match(subst.apply(pattern), atom, subst)
        if extended is not None:
            yield from _solve_body(rule, extended, index, position + 1, deferred_builtins)


def instantiate_rule(rule, atoms):
    """Yield all ground instances of ``rule`` whose positive body atoms are
    drawn from ``atoms`` (an iterable of ground atoms).

    Builtins are solved/evaluated; negative body atoms and the head must be
    ground once the positive body is matched, otherwise
    :class:`GroundingError` is raised (the rule is unsafe / flounders).
    """
    if rule.aggregates:
        raise GroundingError("relevance-driven grounding does not support aggregate rules")
    index = atoms if isinstance(atoms, _AtomIndex) else _build_index(atoms)
    for subst in _solve_body(rule, Substitution(), index, 0, []):
        head = subst.apply(rule.head)
        if not head.is_ground():
            raise GroundingError(
                "head %r not ground after matching positive body (unsafe rule %r)" % (head, rule)
            )
        positive = tuple(subst.apply(lit.atom) for lit in rule.body
                         if lit.positive and not lit.is_builtin())
        negative = []
        for lit in rule.body:
            if lit.negative:
                atom = subst.apply(lit.atom)
                if not atom.is_ground():
                    raise GroundingError(
                        "negative literal %r not ground after matching positive body "
                        "(rule flounders)" % (atom,)
                    )
                negative.append(atom)
        yield GroundRule(head, positive, tuple(negative))


def _build_index(atoms):
    index = _AtomIndex()
    for atom in atoms:
        index.add(atom)
    return index


def relevant_ground_program(program, extra_facts=(), max_atoms=200000, max_rounds=None,
                            max_term_depth=80):
    """Ground ``program`` by relevance: saturate the derivable atoms
    (ignoring negation) and instantiate rules only against those atoms.

    ``extra_facts`` is an iterable of additional ground atoms assumed
    derivable (used when grounding a program fragment modulo an already
    computed interpretation).  ``max_atoms`` bounds the saturation to guard
    against non-range-restricted programs whose relevant set is infinite, and
    ``max_term_depth`` catches the complementary failure mode where the
    relevant atoms keep growing in nesting depth (e.g. the unguarded generic
    transitive closure of Example 5.2, which generates ``tc(e)``,
    ``tc(tc(e))``, ... when the graph argument is left unbound).
    """
    if program.has_aggregates():
        raise GroundingError("relevance-driven grounding does not support aggregate rules")

    index = _AtomIndex()
    for atom in extra_facts:
        if not atom.is_ground():
            raise GroundingError("extra fact %r is not ground" % (atom,))
        index.add(atom)
    for rule in program.rules:
        if rule.is_fact():
            if not rule.head.is_ground():
                raise GroundingError("fact %r is not ground" % (rule.head,))
            index.add(rule.head)

    proper = [rule for rule in program.rules if not rule.is_fact()]
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise GroundingError("relevance saturation exceeded %d rounds" % max_rounds)
        for rule in proper:
            for ground_rule in instantiate_rule(rule, index):
                head = ground_rule.head
                if max_term_depth is not None and head.depth() > max_term_depth:
                    raise GroundingError(
                        "derived atom %r exceeds term depth %d; the program is "
                        "probably not strongly range restricted (cf. Example 5.2)"
                        % (head, max_term_depth)
                    )
                if index.add(head):
                    changed = True
                if len(index) > max_atoms:
                    raise GroundingError(
                        "relevance saturation exceeded %d atoms; "
                        "the program is probably not range restricted" % max_atoms
                    )

    ground_rules = []
    seen = set()
    extra_base = set(index.atoms())
    for rule in program.rules:
        if rule.is_fact():
            ground_rule = GroundRule(rule.head, (), ())
            if ground_rule not in seen:
                seen.add(ground_rule)
                ground_rules.append(ground_rule)
            continue
        for ground_rule in instantiate_rule(rule, index):
            if ground_rule not in seen:
                seen.add(ground_rule)
                ground_rules.append(ground_rule)
                extra_base.update(ground_rule.negative)
    return GroundProgram(ground_rules, base=extra_base)
