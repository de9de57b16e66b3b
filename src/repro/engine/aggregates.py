"""Aggregate subgoal evaluation.

Section 6 of the paper extends modular stratification to aggregation and
illustrates it with the parts-explosion HiLog program, whose last rule is::

    contains(Mach, X, Y, N) :- N = sum(P : in(Mach, X, Y, _, P)).

An aggregate subgoal ``Result = op(Value : Condition)`` is evaluated against
a set of ground atoms (the already-computed extension of the condition's
predicate): the condition is matched in all possible ways, matches are
grouped by the bindings of the *group variables* (the condition's variables
that also occur elsewhere in the rule), and ``op`` is folded over the value
term of each group.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.hilog.errors import EvaluationError
from repro.hilog.program import AggregateSpec
from repro.hilog.subst import Substitution
from repro.hilog.terms import Num, Term, Var
from repro.hilog.unify import match
from repro.engine.builtins import evaluate_arithmetic, is_arithmetic_term


_FOLDS = {
    "sum": lambda values: sum(values),
    "count": lambda values: len(values),
    "min": lambda values: min(values),
    "max": lambda values: max(values),
}


def group_variables(spec, rule):
    """The grouping variables of an aggregate in the context of its rule.

    These are the variables of the aggregate condition that also occur in the
    rule head, in another body literal, or in another aggregate — excluding
    the aggregated value variable itself.  For the parts-explosion rule this
    yields ``{Mach, X, Y}`` exactly as the paper describes.
    """
    condition_vars = spec.condition.variables()
    elsewhere = set(rule.head.variables())
    for literal in rule.body:
        elsewhere |= literal.variables()
    for other in rule.aggregates:
        if other is not spec:
            elsewhere |= other.variables()
    elsewhere |= spec.result.variables()
    value_vars = spec.value.variables()
    return (condition_vars & elsewhere) - value_vars


def evaluate_aggregate(spec, subst, atoms, group_vars=None):
    """Evaluate an aggregate subgoal under a partial substitution.

    Args:
        spec: the :class:`AggregateSpec`.
        subst: substitution binding (at least) the grouping variables that
            have been fixed by the rest of the rule body.
        atoms: iterable of ground atoms forming the extension the condition
            is matched against.
        group_vars: grouping variables (see :func:`group_variables`);
            variables already bound by ``subst`` define a single group.

    Returns a list of substitutions, each extending ``subst`` with bindings
    for the unbound grouping variables and with ``spec.result`` bound to the
    aggregate value of its group.  Groups are only produced for bindings with
    at least one match (the paper's aggregate is undefined on empty groups).
    """
    if group_vars is None:
        group_vars = spec.condition.variables() - spec.value.variables()
    group_vars = sorted(set(group_vars), key=lambda v: v.name)

    condition = subst.apply(spec.condition)
    groups = {}
    for atom in atoms:
        binding = match(condition, atom)
        if binding is None:
            continue
        combined = subst.compose(binding)
        key = tuple(combined.apply(v) for v in group_vars)
        if any(not part.is_ground() for part in key):
            raise EvaluationError(
                "aggregate grouping variables not ground after matching %r" % (atom,)
            )
        value = combined.apply(spec.value)
        if spec.op != "count":  # count counts matches, of any value
            value = _as_number(value)
        groups.setdefault(key, []).append(value)

    fold = _FOLDS[spec.op]
    results = []
    for key, values in sorted(groups.items(), key=lambda item: repr(item[0])):
        extended = subst
        consistent = True
        for variable, value in zip(group_vars, key):
            current = extended.apply(variable)
            if isinstance(current, Var):
                extended = extended.bind(current, value)
            elif current != value:
                consistent = False
                break
        if not consistent:
            continue
        aggregate_value = Num(fold(values))
        result_term = extended.apply(spec.result)
        if isinstance(result_term, Var):
            extended = extended.bind(result_term, aggregate_value)
        elif result_term != aggregate_value:
            continue
        results.append(extended)
    return results


def _as_number(term):
    """Coerce the aggregated value term to an integer."""
    if isinstance(term, Num):
        return term.value
    if is_arithmetic_term(term):
        return evaluate_arithmetic(term)
    raise EvaluationError("aggregated value %r is not numeric" % (term,))
