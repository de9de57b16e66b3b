"""Modular stratification for normal programs (Definitions 6.3 and 6.4).

Ross'90 modular stratification is defined component-by-component over the
predicate dependency graph: a program is modularly stratified when, for every
strongly connected component ``F``, the union of the lower components has a
total well-founded model ``M`` and the *reduction of F modulo M* — instantiate
``F``, delete rule instances with a false settled subgoal, then delete the
(true) settled subgoals — is locally stratified.

The win/move game of Example 6.1 is the canonical member of this class: not
even locally stratified in general, but modularly stratified whenever the
``move`` relation is acyclic.

This module both *decides* modular stratification and *computes* the total
well-founded model along the way (Theorem 6.1 specialized to normal
programs), because the decision procedure constructs exactly that model.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.engine.builtins import solve_builtin
from repro.engine.grounding import GroundProgram, GroundRule
from repro.engine.interpretation import Interpretation
from repro.engine.wellfounded import well_founded_model
from repro.hilog.errors import EvaluationError, StratificationError
from repro.hilog.herbrand import normal_herbrand_universe
from repro.hilog.program import Literal, Program, Rule
from repro.hilog.subst import Substitution
from repro.hilog.terms import App, Sym, Term, Var
from repro.hilog.unify import match
from repro.normal.classify import atom_signature
from repro.normal.depgraph import predicate_dependency_graph
from repro.normal.stratification import is_locally_stratified_ground


class ModularStratificationResult(NamedTuple):
    """Outcome of the modular stratification test.

    Attributes:
        is_modularly_stratified: the verdict.
        model: the total well-founded model (an :class:`Interpretation`)
            when the verdict is positive, else ``None``.
        failing_component: the predicate component that failed, when any.
        reason: human-readable explanation of a failure.
        component_order: the dependency-ordered component list that was used.
    """

    is_modularly_stratified: bool
    model: Optional[Interpretation]
    failing_component: Optional[FrozenSet]
    reason: str
    component_order: Tuple[FrozenSet, ...]


def _signature_of(atom):
    signature = atom_signature(atom)
    if signature is None:
        raise ValueError("not a normal atom: %r" % (atom,))
    return signature


def _instantiate_component_rule(rule, settled_signatures, settled_true, constants):
    """Ground instances of ``rule`` for the reduction modulo the settled model.

    Positive body literals over settled predicates are matched against the
    settled true atoms (which simultaneously discards instances with a false
    settled subgoal); any variables still unbound afterwards are instantiated
    over the program's constants.  Yields pairs ``(ground_rule, kept_body)``
    where ``kept_body`` contains only the subgoals over *unsettled*
    predicates, i.e. the reduced rule of Definition 6.3.
    """
    settled_atoms_by_signature = {}
    for atom in settled_true:
        settled_atoms_by_signature.setdefault(_signature_of(atom), []).append(atom)

    def expand(position, subst):
        if position == len(rule.body):
            yield subst
            return
        literal = rule.body[position]
        if literal.is_builtin():
            # Builtins may still contain unbound variables here; defer them to
            # the final check after constant instantiation.
            yield from expand(position + 1, subst)
            return
        signature = _signature_of(literal.atom)
        if literal.positive and signature in settled_signatures:
            pattern = subst.apply(literal.atom)
            for atom in settled_atoms_by_signature.get(signature, ()):  # semi-join
                extended = match(pattern, atom, subst)
                if extended is not None:
                    yield from expand(position + 1, extended)
            return
        yield from expand(position + 1, subst)

    for partial in expand(0, Substitution()):
        remaining = sorted(
            {v for v in rule.variables() if isinstance(partial.apply(v), Var)},
            key=lambda v: v.name,
        )
        assignments = [Substitution()]
        if remaining:
            assignments = (
                Substitution(dict(zip(remaining, combo)))
                for combo in product(constants, repeat=len(remaining))
            )
        for assignment in assignments:
            subst = partial.compose(assignment)
            ok = True
            for literal in rule.body:
                if not literal.is_builtin():
                    continue
                try:
                    if not solve_builtin(literal.atom, subst):
                        ok = False
                        break
                except EvaluationError:
                    ok = False
                    break
            if not ok:
                continue
            head = subst.apply(rule.head)
            kept_positive = []
            kept_negative = []
            satisfied = True
            for literal in rule.body:
                if literal.is_builtin():
                    continue
                atom = subst.apply(literal.atom)
                signature = _signature_of(literal.atom)
                if signature in settled_signatures:
                    truth = atom in settled_true
                    if literal.positive and not truth:
                        satisfied = False
                        break
                    if literal.negative and truth:
                        satisfied = False
                        break
                    # Settled and satisfied: delete the subgoal (Definition 6.3).
                    continue
                if literal.positive:
                    kept_positive.append(atom)
                else:
                    kept_negative.append(atom)
            if not satisfied:
                continue
            yield GroundRule(head, tuple(kept_positive), tuple(kept_negative))


def reduce_component(component_rules, settled_signatures, settled_true, constants):
    """The reduction of a component modulo the settled model (Definition 6.3),
    as a :class:`GroundProgram`."""
    reduced = []
    seen = set()
    for rule in component_rules:
        for ground_rule in _instantiate_component_rule(
            rule, settled_signatures, settled_true, constants
        ):
            if ground_rule not in seen:
                seen.add(ground_rule)
                reduced.append(ground_rule)
    return GroundProgram(reduced)


def modular_stratification(program, constants=None):
    """Decide modular stratification of a normal program and build its model.

    Returns a :class:`ModularStratificationResult`.  ``constants`` defaults
    to the program's normal Herbrand universe (its constants).
    """
    if program.has_aggregates():
        raise StratificationError(
            "normal modular stratification does not handle aggregates; "
            "use repro.core.modular for the HiLog/aggregate extension"
        )
    if not program.is_normal():
        raise StratificationError(
            "modular_stratification expects a normal program; "
            "use repro.core.modular.modularly_stratified_for_hilog for HiLog programs"
        )
    if constants is None:
        constants = normal_herbrand_universe(program)
    constants = list(constants)

    # Tarjan emits components dependencies first: the order of Definition 6.3.
    components = tuple(predicate_dependency_graph(program).strongly_connected_components())

    settled_signatures = set()
    settled_true = set()
    base = set()

    for component in components:
        component_rules = [
            rule for rule in program.rules if _signature_of(rule.head) in component
        ]
        reduction = reduce_component(component_rules, settled_signatures, settled_true, constants)
        base |= set(reduction.base)
        if not is_locally_stratified_ground(reduction):
            return ModularStratificationResult(
                False,
                None,
                component,
                "the reduction of component %s modulo the lower components is not "
                "locally stratified" % sorted(map(repr, component)),
                components,
            )
        component_model = well_founded_model(reduction)
        if not component_model.is_total():
            # Cannot happen for locally stratified reductions; kept as a guard.
            return ModularStratificationResult(
                False,
                None,
                component,
                "the reduction of component %s has no total well-founded model"
                % sorted(map(repr, component)),
                components,
            )
        settled_true |= set(component_model.true)
        settled_signatures |= set(component)

    model = Interpretation(settled_true, base - settled_true, base=base)
    return ModularStratificationResult(True, model, None, "", components)


def is_modularly_stratified(program, constants=None):
    """Definition 6.4 as a boolean test."""
    return modular_stratification(program, constants=constants).is_modularly_stratified


def perfect_model(program, constants=None):
    """The total well-founded model of a modularly stratified normal program.

    Raises :class:`StratificationError` when the program is not modularly
    stratified.
    """
    result = modular_stratification(program, constants=constants)
    if not result.is_modularly_stratified:
        raise StratificationError(result.reason or "program is not modularly stratified")
    return result.model
