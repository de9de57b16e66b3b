"""Modular stratification for HiLog (Section 6, Definitions 6.5/6.6, Figure 1).

Because a HiLog program's mutually recursive components cannot be determined
a priori when predicate names contain variables (Example 6.2), the paper
settles the *lowest* components one at a time:

1. Split the remaining rules ``R`` into ``R_v`` (variables in the head
   predicate name) and ``R_g`` (ground head predicate names).  Fail if
   ``R_g`` is empty or contains a rule whose head predicate is already
   settled (the situation of Example 6.5).
2. Build the dependency graph over the predicate names appearing *ground* in
   ``R``, with an edge from the head name of each ``R_g`` rule to each ground
   body name, and let ``T`` be the union of the strongly connected
   components with no outgoing edge.
3. Let ``R_T`` be the ``R_g`` rules whose head name is in ``T``.  Fail if
   ``R_T`` mentions a variable predicate name or is not locally stratified.
4. Compute the (total) well-founded model ``M_T`` of ``R_T``, add ``T`` to
   the settled set, and replace ``R`` by the *HiLog reduction*
   (Definition 6.5) of the remaining rules modulo the accumulated model.

When the loop empties ``R`` the program is modularly stratified for HiLog,
and the union of the per-round models is its total well-founded model —
which is also its unique stable model (Theorem 6.1).

The module also implements the paper's aggregate extension (the
parts-explosion program): a component containing aggregate rules is
evaluated by recomputation to fixpoint, which reaches the perfect model
exactly when the aggregation recurses through an acyclic (per-machine)
part hierarchy, i.e. when the program is modularly stratified *through
aggregation* in the paper's sense.

Two deliberate, documented deviations from the letter of the paper, both
forced by the infinite HiLog universe:

* Definition 6.5 instantiates argument variables of settled-name literals
  over the whole universe; we instead *match positive* settled literals
  against the settled model (equivalent, since instances with false settled
  subgoals are deleted anyway) and require negative settled literals to be
  ground by that point or defer them to the grounding of a later round.
* Local stratification of ``R_T`` is checked on its relevance-driven
  instantiation rather than on the full Herbrand instantiation; atoms the
  relevance grounding omits are unfounded (hence false), so the computed
  model is unaffected.

The procedure above is the oracle (``strategy="ground"``).  With
``strategy="seminaive"`` the verdict and the model come from one stratum
walk of the semi-naive engine instead
(:func:`repro.engine.seminaive.wellfounded.seminaive_modular`): an
undefined atom refutes modular stratification (Theorem 6.1), and otherwise
each component of an alternating stratum is relevance-instantiated over
the walk's true atoms, as the reduction and grounding above would
instantiate it; with no cycle through a negative edge the program is
accepted.  Nothing is grounded.  Everything else goes to the procedure
above: a cycle (the reduction may split the component and break it), a
name-open rule the walk cannot specialise or specialises in another
order than the reduction would (Example 6.5's re-settled head among
them), aggregation, a predicate name with two arities, and
``left_to_right``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.engine.aggregates import evaluate_aggregate, group_variables
from repro.engine.builtins import solve_builtin
from repro.engine.grounding import GroundProgram, GroundRule, relevant_ground_program
from repro.engine.interpretation import Interpretation
from repro.engine.wellfounded import well_founded_model
from repro.hilog.depgraph import DependencyGraph
from repro.hilog.errors import EvaluationError, GroundingError, StratificationError
from repro.hilog.program import Literal, Program, Rule
from repro.hilog.subst import Substitution
from repro.hilog.terms import Term, Var, predicate_name
from repro.hilog.unify import match
from repro.normal.stratification import is_locally_stratified_ground


class HiLogModularResult(NamedTuple):
    """Outcome of the Figure-1 procedure."""

    is_modularly_stratified: bool
    model: Optional[Interpretation]
    reason: str
    rounds: Tuple[FrozenSet[Term], ...]


# ---------------------------------------------------------------------------
# The HiLog reduction (Definition 6.5)
# ---------------------------------------------------------------------------

def _settled_index(settled_true):
    index = {}
    for atom in settled_true:
        index.setdefault(predicate_name(atom), []).append(atom)
    return index


def _reduce_rule(rule, settled_names, settled_index, settled_true):
    """Reduce one rule modulo the settled model.

    Yields partially instantiated rules in which no remaining *positive*
    subgoal has a settled predicate name.  Negative settled subgoals that are
    already ground are evaluated; non-ground ones are kept and resolved when
    the rule is eventually grounded.
    """
    pending = [(rule, Substitution())]
    results = []
    while pending:
        current, subst = pending.pop()
        # Find the first positive literal whose (instantiated) name is settled.
        target_position = None
        for position, literal in enumerate(current.body):
            if literal.is_builtin() or literal.negative:
                continue
            name = subst.apply(predicate_name(literal.atom))
            if name.is_ground() and name in settled_names:
                target_position = position
                break
        if target_position is None:
            results.append((current, subst))
            continue
        literal = current.body[target_position]
        pattern = subst.apply(literal.atom)
        name = predicate_name(pattern)
        remaining_body = current.body[:target_position] + current.body[target_position + 1:]
        for atom in settled_index.get(name, ()):  # instances with false subgoals are dropped
            extended = match(pattern, atom, subst)
            if extended is not None:
                pending.append((Rule(current.head, remaining_body, current.aggregates), extended))

    for current, subst in results:
        head = subst.apply(current.head)
        new_body = []
        alive = True
        for literal in current.body:
            atom = subst.apply(literal.atom)
            name = predicate_name(atom)
            if literal.negative and name.is_ground() and name in settled_names and atom.is_ground():
                if atom in settled_true:
                    alive = False
                    break
                continue  # certainly false settled atom: the negative subgoal holds
            if literal.is_builtin() and atom.is_ground():
                solutions = solve_builtin(atom, Substitution())
                if not solutions:
                    alive = False
                    break
                continue
            new_body.append(Literal(atom, literal.positive))
        if not alive:
            continue
        new_aggregates = tuple(aggregate.substitute(subst) for aggregate in current.aggregates)
        yield Rule(head, tuple(new_body), new_aggregates)


def hilog_reduction(rules, settled_names, settled_true):
    """The HiLog reduction of ``rules`` modulo the settled model
    (Definition 6.5), iterated until no positive settled subgoal remains."""
    settled_names = set(settled_names)
    settled_index = _settled_index(settled_true)
    current = list(rules)
    while True:
        reduced = []
        changed = False
        for rule in current:
            produced = list(_reduce_rule(rule, settled_names, settled_index, settled_true))
            if len(produced) != 1 or produced[0] != rule:
                changed = True
            reduced.extend(produced)
        current = reduced
        if not changed:
            return tuple(current)


# ---------------------------------------------------------------------------
# Figure 1: the modular stratification procedure
# ---------------------------------------------------------------------------

def _has_variable_head_name(rule):
    return not predicate_name(rule.head).is_ground()


def _body_names(rule):
    """Predicate-name terms of the rule's body literals and aggregate conditions."""
    names = []
    for literal in rule.body:
        if literal.is_builtin():
            continue
        names.append(predicate_name(literal.atom))
    for aggregate in rule.aggregates:
        names.append(predicate_name(aggregate.condition))
    return names


def _ground_names_in(rules):
    names = set()
    for rule in rules:
        head_name = predicate_name(rule.head)
        if head_name.is_ground():
            names.add(head_name)
        for name in _body_names(rule):
            if name.is_ground():
                names.add(name)
    return names


def _dependency_graph(ground_rules, nodes, left_to_right):
    graph = DependencyGraph()
    for node in nodes:
        graph.add_node(node)
    for rule in ground_rules:
        head_name = predicate_name(rule.head)
        body_names = _body_names(rule)
        if left_to_right:
            body_names = body_names[:1]
        for name in body_names:
            if name.is_ground() and name in nodes:
                graph.add_edge(head_name, name)
    return graph


def _lowest_components(graph):
    """Union of the SCCs with no outgoing edge in the condensation."""
    components, component_of, component_edges = graph.condensation()
    lowest = set()
    for index, component in enumerate(components):
        if not component_edges[index]:
            lowest |= set(component)
    return lowest


def _evaluate_settled_subgoals(ground_rule, settled_names, settled_true):
    """Resolve residual settled subgoals of a ground rule against the model.

    Returns the simplified :class:`GroundRule`, or ``None`` when a settled
    subgoal refutes the rule.
    """
    positive = []
    for atom in ground_rule.positive:
        if predicate_name(atom) in settled_names:
            if atom in settled_true:
                continue
            return None
        positive.append(atom)
    negative = []
    for atom in ground_rule.negative:
        if predicate_name(atom) in settled_names:
            if atom in settled_true:
                return None
            continue
        negative.append(atom)
    return GroundRule(ground_rule.head, tuple(positive), tuple(negative))


def _ground_component(rules, settled_names, settled_true, max_atoms, max_term_depth):
    """Relevance-ground the rules of one component, resolving residual
    settled subgoals against the accumulated model."""
    program = Program(tuple(rules))
    ground = relevant_ground_program(
        program,
        extra_facts=settled_true,
        max_atoms=max_atoms,
        max_term_depth=max_term_depth,
    )
    simplified = []
    base = set()
    for ground_rule in ground.rules:
        if predicate_name(ground_rule.head) in settled_names:
            # A settled predicate re-appears as a head: Figure 1 rejects this,
            # but it is caught by the caller; here we simply skip the rule.
            continue
        resolved = _evaluate_settled_subgoals(ground_rule, settled_names, settled_true)
        if resolved is not None:
            simplified.append(resolved)
            base.add(resolved.head)
            base.update(resolved.positive)
            base.update(resolved.negative)
    return GroundProgram(simplified, base=base)


# ---------------------------------------------------------------------------
# Aggregate components (parts explosion): recomputation to fixpoint
# ---------------------------------------------------------------------------

def _evaluate_rule_once(rule, atoms_by_name, all_atoms, settled_names, settled_true):
    """All head instances derivable from ``rule`` against the current atoms."""
    derived = set()

    def expand(position, subst):
        if position == len(rule.body):
            yield subst
            return
        literal = rule.body[position]
        atom = subst.apply(literal.atom)
        if literal.is_builtin():
            try:
                solutions = solve_builtin(literal.atom, subst)
            except EvaluationError:
                # Defer: try again after the remaining literals bind more variables.
                for later in expand(position + 1, subst):
                    for solution in solve_builtin(literal.atom, later):
                        yield solution
                return
            for solution in solutions:
                yield from expand(position + 1, solution)
            return
        name = predicate_name(atom)
        if literal.negative:
            if not atom.is_ground():
                raise GroundingError("negative literal %r flounders" % (atom,))
            holds = atom in all_atoms or atom in settled_true
            if not holds:
                yield from expand(position + 1, subst)
            return
        candidates = []
        if name.is_ground():
            candidates = list(atoms_by_name.get(name, ()))
            if name in settled_names:
                candidates = [a for a in settled_true if predicate_name(a) == name]
        else:
            candidates = list(all_atoms) + list(settled_true)
        for candidate in candidates:
            extended = match(subst.apply(literal.atom), candidate, subst)
            if extended is not None:
                yield from expand(position + 1, extended)

    for subst in expand(0, Substitution()):
        current_substs = [subst]
        for aggregate in rule.aggregates:
            next_substs = []
            condition_name = predicate_name(aggregate.condition)
            extension = atoms_by_name.get(condition_name, [])
            group_vars = group_variables(aggregate, rule)
            for candidate in current_substs:
                next_substs.extend(
                    evaluate_aggregate(aggregate, candidate, extension, group_vars=group_vars)
                )
            current_substs = next_substs
        for final in current_substs:
            head = final.apply(rule.head)
            if not head.is_ground():
                raise GroundingError("derived head %r is not ground" % (head,))
            derived.add(head)
    return derived


def evaluate_aggregate_component(rules, settled_names, settled_true, max_iterations=1000):
    """Evaluate a component containing aggregate rules by recomputation to
    fixpoint.

    Each iteration recomputes the component's derivable atoms from scratch
    against the previous iteration's atoms (a Jacobi-style iteration), so
    stale aggregate values disappear.  For programs that are modularly
    stratified through aggregation (acyclic part hierarchies, in the paper's
    running example) the iteration converges to the perfect model; otherwise
    it fails to converge and a :class:`StratificationError` is raised.
    """
    settled_names = set(settled_names)
    atoms = set()
    for iteration in range(max_iterations):
        atoms_by_name = {}
        for atom in atoms:
            atoms_by_name.setdefault(predicate_name(atom), []).append(atom)
        new_atoms = set()
        for rule in rules:
            new_atoms |= _evaluate_rule_once(rule, atoms_by_name, atoms, settled_names, settled_true)
        if new_atoms == atoms:
            return atoms
        atoms = new_atoms
    raise StratificationError(
        "aggregate component did not converge after %d iterations; the program "
        "is not modularly stratified through aggregation" % max_iterations
    )


# ---------------------------------------------------------------------------
# The procedure of Figure 1
# ---------------------------------------------------------------------------

def modularly_stratified_for_hilog(program, left_to_right=False, max_rounds=1000,
                                   max_atoms=200000, max_term_depth=80,
                                   strategy="ground"):
    """Run the Figure-1 procedure on a HiLog program.

    Returns a :class:`HiLogModularResult`; when the verdict is positive the
    result's ``model`` is the program's total well-founded model
    (Theorem 6.1).  Set ``left_to_right=True`` for the refinement used by the
    magic-sets method (edges only to the leftmost body predicate).

    ``strategy`` selects the evaluation engine: ``"ground"`` (the default)
    is the reference oracle — relevance grounding plus the ground
    well-founded computation, component by component; ``"seminaive"`` takes
    the verdict and the model from one walk of the semi-naive engine plus a
    local-stratification check of its alternating strata (see the module
    docstring), and runs the oracle for every program the walk cannot
    decide, for aggregate programs and with ``left_to_right``.  Both
    strategies give the same verdict and the same true atoms; the
    ``seminaive`` model's atom base only contains the true atoms
    (false-by-closed-world atoms are not materialized), and its ``rounds``
    are the walk's strata.
    """
    if strategy not in ("ground", "seminaive"):
        raise ValueError("unknown strategy %r (use 'ground' or 'seminaive')" % (strategy,))
    if strategy == "seminaive" and not left_to_right:
        from repro.engine.seminaive import SeminaiveUnsupported, seminaive_modular

        try:
            result, reason = seminaive_modular(
                program, max_facts=max_atoms, max_term_depth=max_term_depth
            )
        except (SeminaiveUnsupported, GroundingError, EvaluationError):
            pass  # refused by the walk: the procedure below decides
        else:
            if reason is not None:
                return HiLogModularResult(False, None, reason, ())
            model = Interpretation(result.true, base=result.true)
            return HiLogModularResult(True, model, "", result.strata)

    remaining = list(program.rules)
    settled_names = set()
    settled_true = set()
    base = set()
    rounds = []

    for _round in range(max_rounds):
        if not remaining:
            model = Interpretation(settled_true, base - settled_true, base=base)
            return HiLogModularResult(True, model, "", tuple(rounds))

        ground_head_rules = [rule for rule in remaining if not _has_variable_head_name(rule)]
        variable_head_rules = [rule for rule in remaining if _has_variable_head_name(rule)]

        for rule in ground_head_rules:
            if predicate_name(rule.head) in settled_names:
                return HiLogModularResult(
                    False, None,
                    "rule %r has a head predicate that is already settled "
                    "(cf. Example 6.5)" % (rule,),
                    tuple(rounds),
                )

        # Nodes are the predicate names appearing ground in R that are not yet
        # settled.  (A ground name with no rules at all still becomes a node:
        # its component is settled with the empty — universally false — model,
        # exactly as in the paper's discussion after Example 6.5.)
        nodes = _ground_names_in(remaining) - settled_names
        if not nodes:
            return HiLogModularResult(
                False, None,
                "no unsettled ground predicate name remains, so no further "
                "component can be identified",
                tuple(rounds),
            )
        graph = _dependency_graph(ground_head_rules, nodes, left_to_right)
        lowest = _lowest_components(graph)
        component_rules = [
            rule for rule in ground_head_rules if predicate_name(rule.head) in lowest
        ]

        for rule in component_rules:
            for name in _body_names(rule):
                if not name.is_ground():
                    return HiLogModularResult(
                        False, None,
                        "rule %r of the lowest component has a variable in a "
                        "predicate name" % (rule,),
                        tuple(rounds),
                    )

        has_aggregates = any(rule.aggregates for rule in component_rules)
        if has_aggregates:
            try:
                component_true = evaluate_aggregate_component(
                    component_rules, settled_names, settled_true
                )
            except (StratificationError, GroundingError, EvaluationError) as error:
                return HiLogModularResult(False, None, str(error), tuple(rounds))
            component_base = set(component_true)
        else:
            try:
                component_ground = _ground_component(
                    component_rules, settled_names, settled_true, max_atoms, max_term_depth
                )
            except GroundingError as error:
                return HiLogModularResult(False, None, str(error), tuple(rounds))
            if not is_locally_stratified_ground(component_ground):
                return HiLogModularResult(
                    False, None,
                    "the reduction of the lowest component %s is not locally stratified"
                    % sorted(map(repr, lowest)),
                    tuple(rounds),
                )
            component_model = well_founded_model(component_ground)
            if not component_model.is_total():
                return HiLogModularResult(
                    False, None,
                    "the lowest component %s has no total well-founded model"
                    % sorted(map(repr, lowest)),
                    tuple(rounds),
                )
            component_true = set(component_model.true)
            component_base = set(component_ground.base)

        settled_true |= component_true
        base |= component_base
        settled_names |= lowest
        rounds.append(frozenset(lowest))

        rest = variable_head_rules + [
            rule for rule in ground_head_rules if predicate_name(rule.head) not in lowest
        ]
        remaining = list(hilog_reduction(rest, settled_names, settled_true))

    return HiLogModularResult(
        False, None, "the procedure did not terminate within %d rounds" % max_rounds, tuple(rounds)
    )


def is_modularly_stratified_for_hilog(program, **kwargs):
    """Definition 6.6 as a boolean test."""
    return modularly_stratified_for_hilog(program, **kwargs).is_modularly_stratified


def perfect_model_for_hilog(program, **kwargs):
    """The total well-founded model of a modularly stratified HiLog program
    (Theorem 6.1).  Raises :class:`StratificationError` otherwise.

    Pass ``strategy="seminaive"`` to take the verdict and the model from
    the delta-driven engine of :mod:`repro.engine.seminaive` instead of
    grounding; the default ``strategy="ground"`` is the reference oracle.
    Both strategies derive the same true atoms."""
    result = modularly_stratified_for_hilog(program, **kwargs)
    if not result.is_modularly_stratified:
        raise StratificationError(result.reason or "program is not modularly stratified for HiLog")
    return result.model
