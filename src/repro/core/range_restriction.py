"""Range restriction for HiLog programs (Definitions 5.5 and 5.6).

The paper generalizes the classical safety condition in two strengths:

* **Range restricted** (Definition 5.5): head *argument* variables are bound
  by positive body arguments; negative-literal variables are bound by
  positive body arguments or appear in the head's *name*; and the positive
  body literals can be ordered so that every variable used in a predicate
  name is bound by an earlier literal's arguments or appears in the head's
  name.  Queries must then bind predicate names (``is_query_range_restricted``).

* **Strongly range restricted** (Definition 5.6): as above, but head *name*
  variables must also be bound by positive body arguments, negative-literal
  variables may not rely on the head name, and name variables must be bound
  strictly by earlier body literals.  Arbitrary queries are then allowed.

Theorem 5.3: the well-founded semantics of range-restricted HiLog programs
is preserved under extensions.  Theorem 5.4: the stable-model semantics of
*strongly* range-restricted programs is preserved under extensions (and the
paper gives a counterexample showing plain range restriction is not enough).
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.hilog.program import Literal, Program, Rule
from repro.hilog.terms import App, Sym, Term, Var, atom_arguments, predicate_name


def _argument_variables(atom):
    """Variables occurring in argument positions of an atom."""
    result = set()
    for argument in atom_arguments(atom):
        result |= argument.variables()
    return result


def _name_variables(atom):
    """Variables occurring in the predicate-name part of an atom."""
    return predicate_name(atom).variables()


def _positive_literals(rule):
    """The positive, non-builtin body literals, in textual order."""
    return [lit for lit in rule.body if lit.positive and not lit.is_builtin()]


def _positive_argument_variables(rule):
    """Variables bound by positive body arguments, closed under assignment
    builtins (``V is E`` / ``V = E``) whose right-hand side is bound, plus
    the variables aggregates bind."""
    bound = set()
    for literal in _positive_literals(rule):
        bound |= _argument_variables(literal.atom)
    changed = True
    while changed:
        changed = False
        for literal in rule.builtin_literals():
            atom = literal.atom
            if (
                isinstance(atom, App)
                and isinstance(atom.name, Sym)
                and atom.name.name in ("is", "=")
                and len(atom.args) == 2
                and isinstance(atom.args[0], Var)
                and atom.args[0] not in bound
                and atom.args[1].variables() <= bound
            ):
                bound.add(atom.args[0])
                changed = True
    for aggregate in rule.aggregates:
        bound |= _argument_variables(aggregate.condition)
        bound |= aggregate.result.variables()
    return bound


def _name_ordering(rule, seed_variables):
    """Condition 3 of Definitions 5.5/5.6: order the positive body literals
    so that every predicate-name variable of a literal is bound by an
    earlier literal's arguments or by ``seed_variables``.  Returns
    ``(stuck, bound)``: the literals no ordering can schedule (empty exactly
    when an ordering exists) and the variables bound by the rest.

    A greedy schedule is complete here: scheduling any currently eligible
    literal only enlarges the set of bound variables, so it can never block a
    schedule that would otherwise exist, and the stuck set is independent of
    scheduling order.
    """
    bound = set(seed_variables)
    remaining = _positive_literals(rule)
    progress = True
    while progress and remaining:
        progress = False
        for literal in remaining:
            if _name_variables(literal.atom) <= bound:
                bound |= _argument_variables(literal.atom)
                remaining.remove(literal)
                progress = True
                break
    return remaining, bound


class RangeRestrictionViolation(NamedTuple):
    """One failed condition of Definition 5.5, with the offending parts.

    ``condition`` is ``"head-argument"`` (condition 1: a head argument
    variable is not bound by any positive body argument),
    ``"negation"`` (condition 2: a negative literal uses a variable bound
    neither by positive body arguments nor by the head's name) or
    ``"name-ordering"`` (condition 3: no ordering of the positive body
    literals binds a literal's predicate-name variables before it runs).
    ``variables`` are the unbound variables, sorted by name; ``literal`` is
    the offending body literal for the per-literal conditions, ``None`` for
    the head condition.
    """

    condition: str
    variables: Tuple[Var, ...]
    literal: Optional[Literal]


def _sorted_vars(variables):
    return tuple(sorted(variables, key=lambda v: v.name))


def range_restriction_violations(rule):
    """Structured Definition-5.5 violations of a single rule.

    Returns an empty tuple exactly when :func:`rule_is_range_restricted`
    holds; otherwise one :class:`RangeRestrictionViolation` per failed
    condition/literal, so diagnostics (:mod:`repro.lint`) can name the
    unbound variable and the literal instead of reporting a bare boolean.
    """
    positive_argument_vars = _positive_argument_variables(rule)
    head_name_vars = _name_variables(rule.head)

    violations = []
    # 1. Head argument variables bound by positive body arguments.
    unbound_head = _argument_variables(rule.head) - positive_argument_vars
    if unbound_head:
        violations.append(
            RangeRestrictionViolation("head-argument", _sorted_vars(unbound_head), None)
        )
    # 2. Negative-literal variables bound by positive body arguments or by
    #    the head's name.
    for literal in rule.negative_literals():
        unbound = literal.atom.variables() - (positive_argument_vars | head_name_vars)
        if unbound:
            violations.append(
                RangeRestrictionViolation("negation", _sorted_vars(unbound), literal)
            )
    # 3. An ordering exists, seeded by the head-name variables.
    stuck, bound = _name_ordering(rule, head_name_vars)
    for literal in stuck:
        violations.append(
            RangeRestrictionViolation(
                "name-ordering",
                _sorted_vars(_name_variables(literal.atom) - bound),
                literal,
            )
        )
    return tuple(violations)


def rule_is_range_restricted(rule):
    """Definition 5.5 for a single HiLog rule."""
    return not range_restriction_violations(rule)


def rule_is_strongly_range_restricted(rule):
    """Definition 5.6 for a single HiLog rule."""
    positive_argument_vars = _positive_argument_variables(rule)
    # 1. Every head variable (argument *or* name) bound by positive body arguments.
    if not rule.head.variables() <= positive_argument_vars:
        return False
    # 2. Negative-literal variables bound by positive body arguments only.
    for literal in rule.negative_literals():
        if not literal.atom.variables() <= positive_argument_vars:
            return False
    # 3. An ordering exists with an empty seed.
    stuck, _bound = _name_ordering(rule, ())
    return not stuck


def is_range_restricted(program):
    """Definition 5.5 lifted to programs."""
    return all(rule_is_range_restricted(rule) for rule in program.rules)


def is_strongly_range_restricted(program):
    """Definition 5.6 lifted to programs."""
    return all(rule_is_strongly_range_restricted(rule) for rule in program.rules)


def is_query_range_restricted(query_literals):
    """Range restriction for queries (paper, after Definition 5.5).

    A query ``Q(X1, ..., Xn)`` is range restricted when the rule
    ``answer(X1, ..., Xn) <- Q`` is range restricted; in particular the
    query must bind all predicate names.
    """
    literals = tuple(query_literals)
    variables = set()
    for literal in literals:
        variables |= literal.variables()
    answer_head = App(Sym("$answer"), tuple(sorted(variables, key=lambda v: v.name)))
    return rule_is_range_restricted(Rule(answer_head, literals))


def classify_rule(rule):
    """Classify a rule as in Example 5.3.

    Returns ``"strongly_range_restricted"``, ``"range_restricted"`` or
    ``"unrestricted"`` (the strongest class the rule belongs to).
    """
    if rule_is_strongly_range_restricted(rule):
        return "strongly_range_restricted"
    if rule_is_range_restricted(rule):
        return "range_restricted"
    return "unrestricted"


def classify_program(program):
    """Per-rule classification of a whole program (rule -> class string)."""
    return {rule: classify_rule(rule) for rule in program.rules}
