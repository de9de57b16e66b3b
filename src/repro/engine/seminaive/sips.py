"""Sideways information passing (SIPS): the join planner's and the magic-sets
rewriting's one notion of which variables are bound where.

The paper's method assumes rule bodies are ordered so that evaluation can
proceed left to right without floundering (footnote 10): a negative subgoal,
or a subgoal with a variable in its predicate name, must not be reached
before the variables it needs are bound.  This module computes, for a rule
and a set of head variables bound by the call:

* the variables bound before each body subgoal is reached,
* the variables that must be carried by each supplementary predicate
  ``sup_{r,i}`` (those bound so far that are still needed later),
* whether the rule flounders under that binding pattern.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Tuple

from repro.hilog.program import Literal
from repro.hilog.terms import App, Sym, Var, atom_arguments, predicate_name


class SipsStep(NamedTuple):
    """Binding information at one body position of a rule."""

    index: int
    literal: Literal
    bound_before: FrozenSet[Var]
    bound_after: FrozenSet[Var]
    supplementary_variables: Tuple[Var, ...]
    flounders: bool


def _bound_by(literal, currently_bound):
    """Variables bound after evaluating ``literal`` with ``currently_bound``."""
    if literal.is_builtin():
        atom = literal.atom
        if (
            isinstance(atom, App)
            and isinstance(atom.name, Sym)
            and atom.name.name in ("is", "=")
            and len(atom.args) == 2
            and isinstance(atom.args[0], Var)
            and atom.args[1].variables() <= currently_bound
        ):
            return currently_bound | {atom.args[0]}
        return set(currently_bound)
    if literal.negative:
        return set(currently_bound)
    return set(currently_bound) | literal.atom.variables()


def _needed_later(rule, position):
    """Variables needed at or after body position ``position`` or in the head."""
    needed = set(rule.head.variables())
    for literal in rule.body[position:]:
        needed |= literal.variables()
    for aggregate in rule.aggregates:
        needed |= aggregate.variables()
    return needed


def _flounders(literal, bound_before):
    """A subgoal flounders when it is negative and not ground at call time, or
    when its predicate name is still entirely unbound (footnote 10)."""
    if literal.is_builtin():
        return False
    if literal.negative:
        return not literal.atom.variables() <= bound_before
    name_vars = predicate_name(literal.atom).variables()
    if name_vars and not (name_vars <= bound_before or atom_arguments(literal.atom)):
        # A subgoal whose name is an unbound bare variable with no arguments
        # to constrain it cannot be scheduled.
        return True
    return False


def left_to_right_sips(rule, bound_head_variables):
    """Compute the left-to-right SIPS of ``rule`` given bound head variables.

    Returns a list of :class:`SipsStep`, one per body literal (builtins
    included), in textual order.
    """
    bound = set(bound_head_variables) & rule.head.variables()
    steps = []
    for index, literal in enumerate(rule.body):
        needed = _needed_later(rule, index)
        supplementary = tuple(sorted(bound & needed, key=lambda v: v.name))
        flounders = _flounders(literal, bound)
        bound_after = _bound_by(literal, bound)
        steps.append(
            SipsStep(
                index=index,
                literal=literal,
                bound_before=frozenset(bound),
                bound_after=frozenset(bound_after),
                supplementary_variables=supplementary,
                flounders=flounders,
            )
        )
        bound = bound_after
    return steps
