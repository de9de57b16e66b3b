"""The individual static-analysis passes of the HiLog linter.

Each pass reuses the repo's existing semantic machinery instead of
reimplementing it:

* safety (``E101``/``E102``/``E103``) comes from
  :func:`repro.core.range_restriction.range_restriction_violations` — the
  paper's Definition 5.5, condition by condition;
* stratification (``W501``/``E104``) mirrors the semi-naive engine's
  indicator dependency graph (:mod:`repro.hilog.depgraph`), including its
  "aggregation behaves like negation" edge labelling, and reports a
  minimal negation-cycle witness;
* plan quality (``E106``/``W502``) compiles every rule through the real
  join planner (:func:`repro.engine.seminaive.plan.compile_rule`) and
  inspects the resulting fetch steps;
* specialisability (``W504``) asks the engine's own
  :func:`repro.engine.seminaive.wellfounded.name_binders` which predicate-
  name variables a rule's binder leaves unbound;
* the remaining passes (duplicates, subsumption, arity and liveness
  hygiene) are purely syntactic.

Entry point: :func:`run_checks`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.range_restriction import range_restriction_violations
from repro.engine.seminaive.plan import FETCH, PlanError, compile_rule
from repro.engine.seminaive.relation import literal_indicator
from repro.engine.seminaive.wellfounded import name_binders
from repro.hilog.depgraph import DependencyGraph
from repro.hilog.errors import HiLogError
from repro.hilog.pretty import format_literal, format_term
from repro.hilog.program import Literal, Program, Rule
from repro.hilog.terms import App, Sym, Var, atom_arguments, predicate_name
from repro.hilog.unify import match
from repro.lint.diagnostics import Diagnostic, make_diagnostic

#: Body-size cap for the (worst-case exponential) subsumption search.
_SUBSUMPTION_MAX_BODY = 8


def _arity(atom):
    return len(atom.args) if isinstance(atom, App) else -1


def _format_indicator(indicator):
    name, arity = indicator
    if arity < 0:
        return format_term(name)
    return "%s/%d" % (format_term(name), arity)


def _var_names(variables):
    return ", ".join(v.name for v in variables)


def _count_variables(term, counts):
    if isinstance(term, Var):
        counts[term] = counts.get(term, 0) + 1
        return
    if isinstance(term, App):
        _count_variables(term.name, counts)
        for arg in term.args:
            _count_variables(arg, counts)


# ---------------------------------------------------------------------------
# Safety (E101, E102, E103, E105, E107)
# ---------------------------------------------------------------------------

def check_safety(program):
    """Range restriction per rule, plus ground-fact and aggregate-name checks.

    Returns ``(diagnostics, error_rule_indices)`` so later passes can
    suppress follow-on findings (a rule that is already unsafe should not
    additionally flounder-error or singleton-warn on the same variable).
    """
    diagnostics = []
    error_rules = set()
    for index, rule in enumerate(program.rules):
        if rule.is_fact():
            if not rule.head.is_ground():
                variables = sorted(rule.head.variables(), key=lambda v: v.name)
                diagnostics.append(make_diagnostic(
                    "E105",
                    "fact %s contains variable(s) %s"
                    % (format_term(rule.head), _var_names(variables)),
                    span=rule.span,
                    rule=repr(rule),
                    hint="facts must be ground; bind the variables or make "
                         "this a rule with a body",
                ))
                error_rules.add(index)
            continue
        for violation in range_restriction_violations(rule):
            error_rules.add(index)
            if violation.condition == "head-argument":
                diagnostics.append(make_diagnostic(
                    "E101",
                    "head variable(s) %s not bound by any positive body "
                    "argument" % _var_names(violation.variables),
                    span=rule.span,
                    rule=repr(rule),
                    hint="add a positive body literal whose arguments bind %s"
                         % _var_names(violation.variables),
                ))
            elif violation.condition == "negation":
                literal = violation.literal
                diagnostics.append(make_diagnostic(
                    "E102",
                    "variable(s) %s in negated literal %s not bound by a "
                    "positive body argument"
                    % (_var_names(violation.variables), format_literal(literal)),
                    span=literal.span or rule.span,
                    rule=repr(rule),
                    hint="bind %s with a positive literal before the negation"
                         % _var_names(violation.variables),
                ))
            else:  # name-ordering
                literal = violation.literal
                diagnostics.append(make_diagnostic(
                    "E103",
                    "predicate-name variable(s) %s of %s cannot be bound by "
                    "any ordering of the positive body literals"
                    % (_var_names(violation.variables), format_literal(literal)),
                    span=(literal.span if literal is not None else None) or rule.span,
                    rule=repr(rule),
                    hint="add a positive literal that binds the predicate "
                         "name in an argument position",
                ))
        for spec in rule.aggregates:
            if not predicate_name(spec.condition).is_ground():
                error_rules.add(index)
                diagnostics.append(make_diagnostic(
                    "E107",
                    "aggregate condition %s has a non-ground predicate name"
                    % format_term(spec.condition),
                    span=spec.span or rule.span,
                    rule=repr(rule),
                    hint="aggregates fold a fixed relation; use a ground "
                         "predicate name in the condition",
                ))
    return diagnostics, error_rules


# ---------------------------------------------------------------------------
# Stratification (W501 warning, E104 error)
# ---------------------------------------------------------------------------

def check_stratification(program):
    """Negation/aggregation cycles over the predicate-indicator graph.

    Mirrors the semi-naive engine's stratification: aggregate edges are
    labelled negative, and a negative edge inside a strongly connected
    component means recursion through negation (``W501`` — the well-founded
    mode evaluates it) or through aggregation (``E104`` — no engine does).
    A non-ground predicate name (higher-order HiLog) is a node by its
    *pattern*: ``winning(M)(X) :- ..., not winning(M)(Y).`` depends on
    itself through negation whatever ``M`` is bound to, which is how
    Example 6.3 gets its ``W501``.  Distinct patterns that only unify once
    the names are bound are not linked: that is a runtime property of the
    data, which static analysis cannot enumerate.
    """
    graph = DependencyGraph()
    negation_sites = {}   # (head, body) indicator pair -> (rule, literal)
    aggregate_sites = {}  # (head, condition) indicator pair -> (rule, spec)
    for rule in program.rules:
        head = rule.head.indicator
        graph.add_node(head)
        if rule.is_fact():
            continue
        for literal in rule.body:
            if literal.is_builtin():
                continue
            target = literal.atom.indicator
            graph.add_edge(head, target, negative=literal.negative)
            if literal.negative:
                negation_sites.setdefault((head, target), (rule, literal))
        for spec in rule.aggregates:
            target = spec.condition.indicator
            # Aggregation behaves like negation for stratification: the
            # condition's extension must be complete before the fold runs.
            graph.add_edge(head, target, negative=True)
            aggregate_sites.setdefault((head, target), (rule, spec))

    components, component_of, _edges = graph.condensation()
    diagnostics = []
    warned_components = set()
    for source, target in graph.negative_cycle_edges():
        witness = _cycle_witness(graph, components[component_of[source]], source, target)
        if (source, target) in aggregate_sites:
            rule, spec = aggregate_sites[(source, target)]
            if source == target and _certain_aggregate_self_loop(rule, spec):
                # The condition provably covers the rule's own head, so the
                # ground dependency graph has a self-loop whatever the data:
                # never modularly stratified, every evaluation path rejects.
                diagnostics.append(make_diagnostic(
                    "E104",
                    "recursion through aggregation at %s: the aggregate "
                    "condition %s covers the rule's own head, so the ground "
                    "instance always cycles; no evaluation mode supports "
                    "three-valued aggregation"
                    % (_format_indicator(source), format_term(spec.condition)),
                    span=spec.span or rule.span,
                    rule=repr(rule),
                    hint="break the cycle: aggregate a lower stratum into a "
                         "separate predicate",
                ))
            else:
                # Indicator-level cycle only: the paper's parts explosion is
                # exactly this shape, and evaluates whenever the part data
                # is acyclic (modular stratification is checked against the
                # data at load time; the semi-naive engine falls back to the
                # grounding oracle).
                diagnostics.append(make_diagnostic(
                    "W503",
                    "recursion through aggregation at the predicate level "
                    "(cycle: %s); evaluation succeeds only while the data "
                    "keeps the ground instance acyclic (modular "
                    "stratification, Theorem 6.1)" % witness,
                    span=spec.span or rule.span,
                    rule=repr(rule),
                    hint="the fast semi-naive engine cannot run this; "
                         "strategy=\"auto\" falls back to the grounding "
                         "oracle",
                ))
            continue
        component = component_of[source]
        if component in warned_components:
            continue
        warned_components.add(component)
        rule, literal = negation_sites[(source, target)]
        diagnostics.append(make_diagnostic(
            "W501",
            "recursion through negation at %s (cycle: %s); stratified "
            "perfect-model evaluation rejects this"
            % (_format_indicator(source), witness),
            span=(literal.span if literal is not None else None) or rule.span,
            rule=repr(rule),
            hint="a session answers this three-valued (the well-founded "
                 "model) by itself; restructure to remove the negative "
                 "cycle for a two-valued model",
        ))
    return diagnostics


def _certain_aggregate_self_loop(rule, spec):
    """Does the ground dependency graph *provably* self-loop at this rule?

    True when the aggregate condition pattern matches the rule's own
    (skolemized) head and every condition variable outside the head is free
    (bound by no body literal): the condition's instance set then contains
    the head atom itself for every ground head instance, so no data can
    make the program modularly stratified.  Variables bound by the body to
    values unrelated to the head (``s(X, N) :- next(X, W), N = sum(V :
    s(W, V))``) make the loop data-dependent, not certain.
    """
    mapping = {}

    def walk(term):
        if isinstance(term, Var):
            if term not in mapping:
                mapping[term] = Sym("$lint_head_%d" % len(mapping))
            return mapping[term]
        if isinstance(term, App):
            return App(walk(term.name), tuple(walk(arg) for arg in term.args))
        return term

    if match(spec.condition, walk(rule.head)) is None:
        return False
    head_vars = rule.head.variables()
    body_vars = set()
    for literal in rule.body:
        body_vars |= literal.atom.variables()
    return not ((spec.condition.variables() - head_vars) & body_vars)


def _cycle_witness(graph, component, source, target):
    """A minimal cycle through the negative edge ``source -> target``:
    BFS the shortest ``target ~> source`` path inside the component."""
    if source == target:
        return "%s -[not]-> %s" % (_format_indicator(source), _format_indicator(source))
    parents = {target: None}
    frontier = [target]
    while frontier and source not in parents:
        next_frontier = []
        for node in frontier:
            for successor in graph.successors(node):
                if successor in component and successor not in parents:
                    parents[successor] = node
                    next_frontier.append(successor)
        frontier = next_frontier
    path = []
    node = source if source in parents else target
    while node is not None:
        path.append(node)
        node = parents[node]
    path.reverse()  # target ... source, closing the cycle back at source
    return "%s -[not]-> %s" % (
        _format_indicator(source),
        " -> ".join(_format_indicator(n) for n in path),
    )


# ---------------------------------------------------------------------------
# Specialisability of name-open rules (W504)
# ---------------------------------------------------------------------------

def check_binders(program, error_rules):
    """Name-open rules beside negation or aggregation that no binder closes
    (``W504``), unless a safety error already says why (``E103``: nothing
    binds the name at all).

    With negation or aggregation in the program the engine evaluates a rule
    with a variable in predicate-name position only after specialising it:
    one instance per answer of its **binder**, the positive ground-named
    body literals that mention a name variable (``game(M)`` in Example
    6.3).  A name variable no such literal binds leaves nothing to join,
    and the session serves the whole program by the Figure-1 grounding
    fallback instead.  (A definite program needs no binder: it is one
    stratum, whatever its names.)
    """
    if not (program.has_negation() or program.has_aggregates()):
        return []
    diagnostics = []
    for index, rule in enumerate(program.rules):
        if rule.is_fact() or index in error_rules:
            continue
        _variables, _binders, unbound = name_binders(rule)
        if not unbound:
            continue
        span = rule.span
        if not predicate_name(rule.head).variables() & unbound:
            sites = [(literal.atom, literal.span) for literal in rule.body
                     if not literal.is_builtin()]
            sites.extend((spec.condition, spec.span) for spec in rule.aggregates)
            for atom, site_span in sites:
                if predicate_name(atom).variables() & unbound:
                    span = site_span or span
                    break
        names = _var_names(sorted(unbound, key=lambda v: v.name))
        diagnostics.append(make_diagnostic(
            "W504",
            "no positive ground-named literal binds %s: the engine cannot "
            "specialise this rule, every write falls back to Figure-1 "
            "grounding" % names,
            span=span,
            rule=repr(rule),
            hint="guard the rule with a relation listing the names, e.g. "
                 "game(%s)" % names,
        ))
    return diagnostics


# ---------------------------------------------------------------------------
# Planner-backed checks (E106, W502)
# ---------------------------------------------------------------------------

def check_plans(program, error_rules):
    """Compile every proper rule through the real join planner.

    ``PlanError`` becomes ``E106`` unless the rule already carries a safety
    error explaining the flounder; a successful plan is scanned for fetches
    that share no bound variable with the join built so far (``W502``).
    """
    diagnostics = []
    for index, rule in enumerate(program.rules):
        if rule.is_fact():
            continue
        try:
            plan = compile_rule(rule)
        except PlanError as error:
            if index not in error_rules:
                diagnostics.append(make_diagnostic(
                    "E106",
                    "no safe join plan: %s" % (error,),
                    span=rule.span,
                    rule=repr(rule),
                    hint="reorder is impossible for the planner too — bind "
                         "the offending variables with positive literals",
                ))
            continue
        except HiLogError:
            continue
        for step in plan.steps:
            if step.kind != FETCH:
                continue
            atom = step.literal.atom
            if not isinstance(atom, App) or not atom.args:
                continue
            if not step.bound_before:
                continue  # the leading fetch necessarily scans unbounded
            if step.index_positions:
                continue
            if atom.variables() & step.bound_before:
                continue  # partially connected through a compound argument
            diagnostics.append(make_diagnostic(
                "W502",
                "fetch of %s shares no bound variable with the join built "
                "before it (cross product)" % format_literal(step.literal),
                span=step.literal.span or rule.span,
                rule=repr(rule),
                hint="link %s to the rest of the body through a shared "
                     "variable, or split the rule"
                     % format_literal(step.literal),
            ))
    return diagnostics


# ---------------------------------------------------------------------------
# Hygiene (W201)
# ---------------------------------------------------------------------------

def check_singletons(program, error_rules):
    """Named variables occurring exactly once in a rule (W201).

    Underscore-prefixed names (including the parser's anonymous ``_``
    variables) are the conventional opt-out and never warn; rules already
    carrying safety errors are skipped — the unbound variable *is* usually
    the singleton, and E10x already names it.
    """
    diagnostics = []
    for index, rule in enumerate(program.rules):
        if index in error_rules or rule.is_ground():
            continue
        counts = {}
        _count_variables(rule.head, counts)
        for literal in rule.body:
            _count_variables(literal.atom, counts)
        for spec in rule.aggregates:
            _count_variables(spec.value, counts)
            _count_variables(spec.condition, counts)
            _count_variables(spec.result, counts)
        singletons = sorted(
            (v for v, n in counts.items() if n == 1 and not v.name.startswith("_")),
            key=lambda v: v.name,
        )
        if singletons:
            diagnostics.append(make_diagnostic(
                "W201",
                "singleton variable(s) %s" % _var_names(singletons),
                span=rule.span,
                rule=repr(rule),
                hint="use _ (or an _-prefixed name) for variables that are "
                     "intentionally unused",
            ))
    return diagnostics


# ---------------------------------------------------------------------------
# Duplicate / subsumed rules (W301, W302)
# ---------------------------------------------------------------------------

def _canonical(rule):
    """Alpha-equivalence canonical form: variables renamed to ``_R1..`` in
    traversal order, so two alpha-equal rules become the identical Rule.
    A ground rule is its own canonical form (nothing to rename) — the
    common case for fact-heavy programs, where renaming would dominate
    the whole lint run."""
    if rule.is_ground():
        return rule
    return rule.rename_apart([0])


def check_duplicates(program):
    diagnostics = []
    first_seen = {}
    for index, rule in enumerate(program.rules):
        key = _canonical(rule)
        if key in first_seen:
            original = program.rules[first_seen[key]]
            where = ("at %s" % (original.span,)) if original.span is not None \
                else ("#%d" % (first_seen[key] + 1,))
            diagnostics.append(make_diagnostic(
                "W301",
                "rule is identical (up to variable renaming) to the earlier "
                "rule %s" % where,
                span=rule.span,
                rule=repr(rule),
                hint="delete one of the copies",
            ))
        else:
            first_seen[key] = index
    return diagnostics


def _skolemize(rule):
    """Replace every variable of ``rule`` with a fresh constant.

    Theta-subsumption binds only the *general* rule's variables; the
    specific rule's variables are constants of the comparison.  One-sided
    :func:`match` would happily bind any variable it walks into, so the
    specific side is made literally variable-free first.  (The skolem
    symbol names restart at 0 per call, so the interned symbols are reused
    across checks rather than accumulating.)
    """
    mapping = {}

    def walk(term):
        if isinstance(term, Var):
            if term not in mapping:
                mapping[term] = Sym("$lint_skolem_%d" % len(mapping))
            return mapping[term]
        if isinstance(term, App):
            return App(walk(term.name), tuple(walk(arg) for arg in term.args))
        return term

    return Rule(
        walk(rule.head),
        tuple(Literal(walk(lit.atom), lit.positive) for lit in rule.body),
    )


def _subsumes(general, specific):
    """Theta-subsumption: is there a substitution making ``general``'s head
    equal ``specific``'s head and mapping every ``general`` body literal
    onto *some* ``specific`` body literal of the same sign?

    ``specific`` must already be skolemized (see :func:`_skolemize`).
    """
    theta = match(general.head, specific.head)
    if theta is None:
        return False

    def extend(literals, theta):
        if not literals:
            return True
        first, rest = literals[0], literals[1:]
        for candidate in specific.body:
            if candidate.positive != first.positive:
                continue
            extended = match(first.atom, candidate.atom, theta)
            if extended is not None and extend(rest, extended):
                return True
        return False

    return extend(list(general.body), theta)


def check_subsumption(program, error_rules):
    """Proper rules made redundant by a more general rule or fact (W302).

    Pairs are restricted to the same ground head indicator; alpha-equal
    pairs are left to W301; aggregates opt a rule out (an aggregate rule's
    meaning is not captured by clause subsumption); oversized bodies are
    skipped to bound the search.
    """
    groups = {}
    for index, rule in enumerate(program.rules):
        head = literal_indicator(rule.head)
        if head is not None:
            groups.setdefault(head, []).append(index)

    diagnostics = []
    canonical = {}
    for indicator, indices in groups.items():
        if len(indices) < 2:
            continue
        for j in indices:
            specific = program.rules[j]
            if specific.is_fact() or specific.aggregates or j in error_rules:
                continue
            if len(specific.body) > _SUBSUMPTION_MAX_BODY:
                continue
            skolemized = _skolemize(specific)
            for i in indices:
                if i == j:
                    continue
                general = program.rules[i]
                if general.aggregates or i in error_rules:
                    continue
                if len(general.body) > len(specific.body):
                    continue
                if canonical.setdefault(i, _canonical(general)) == \
                        canonical.setdefault(j, _canonical(specific)):
                    continue  # exact duplicate: W301's business
                if _subsumes(general, skolemized):
                    where = ("at %s" % (general.span,)) if general.span is not None \
                        else ("#%d" % (i + 1,))
                    diagnostics.append(make_diagnostic(
                        "W302",
                        "rule is subsumed by the more general rule %s and "
                        "derives nothing new" % where,
                        span=specific.span,
                        rule=repr(specific),
                        hint="delete this rule, or strengthen the general one",
                    ))
                    break
    return diagnostics


# ---------------------------------------------------------------------------
# Arity consistency (W303)
# ---------------------------------------------------------------------------

def check_arities(program):
    """Ground predicate names used at more than one arity.

    HiLog *permits* arity polymorphism, so this is hygiene (a warning):
    the minority arity is usually a typo'd call site.  Non-ground names
    are exempt (higher-order rules are genuinely polymorphic).
    """
    uses = {}  # name term -> arity -> [count, first span, sample atom]
    for rule in program.rules:
        atoms = [(rule.head, rule.span)]
        for literal in rule.body:
            if not literal.is_builtin():
                atoms.append((literal.atom, literal.span or rule.span))
        for spec in rule.aggregates:
            atoms.append((spec.condition, spec.span or rule.span))
        for atom, span in atoms:
            name = predicate_name(atom)
            if not name.is_ground():
                continue
            per_name = uses.setdefault(name, {})
            entry = per_name.setdefault(_arity(atom), [0, span, atom])
            entry[0] += 1

    diagnostics = []
    for name, per_name in uses.items():
        if len(per_name) < 2:
            continue
        majority = max(per_name, key=lambda arity: (per_name[arity][0], arity))
        for arity, (count, span, atom) in sorted(per_name.items()):
            if arity == majority:
                continue
            described = "as a bare proposition" if arity < 0 \
                else "with arity %d" % arity
            majority_described = "a bare proposition" if majority < 0 \
                else "arity %d" % majority
            diagnostics.append(make_diagnostic(
                "W303",
                "predicate %s used %s here (%d use(s)) but as %s elsewhere "
                "(%d use(s))"
                % (format_term(name), described, count,
                   majority_described, per_name[majority][0]),
                span=span,
                rule=format_term(atom),
                hint="HiLog allows arity polymorphism; if this is not "
                     "deliberate, fix the odd call site",
            ))
    return diagnostics


# ---------------------------------------------------------------------------
# Liveness (W401, W402, W403)
# ---------------------------------------------------------------------------

def check_liveness(program):
    """Undefined references, unused fact-only relations, underivable IDB."""
    defined = set()
    has_fact = {}
    proper_by_head = {}
    wildcard_head_arities = set()
    referenced = {}
    wildcard_reference_arities = set()

    for rule in program.rules:
        head = literal_indicator(rule.head)
        if head is None:
            # `X(A, B) :- ...` can define any arity-2 relation at runtime.
            wildcard_head_arities.add(_arity(rule.head))
        else:
            defined.add(head)
            if rule.is_fact():
                has_fact.setdefault(head, rule)
            else:
                proper_by_head.setdefault(head, []).append(rule)
        for literal in rule.body:
            if literal.is_builtin():
                continue
            target = literal_indicator(literal.atom)
            if target is None:
                # `G(X, Y)` may read any arity-2 relation at runtime.
                wildcard_reference_arities.add(_arity(literal.atom))
            else:
                referenced.setdefault(target, (rule, literal))
        for spec in rule.aggregates:
            target = literal_indicator(spec.condition)
            if target is None:
                wildcard_reference_arities.add(_arity(spec.condition))
            else:
                referenced.setdefault(target, (rule, spec))

    diagnostics = []
    undefined = set()
    for target in sorted(referenced, key=_format_indicator):
        if target in defined or target[1] in wildcard_head_arities:
            continue
        undefined.add(target)
        rule, site = referenced[target]
        diagnostics.append(make_diagnostic(
            "W401",
            "predicate %s is referenced but has no rules and no facts"
            % _format_indicator(target),
            span=(site.span if site.span is not None else None) or rule.span,
            rule=repr(rule),
            hint="add facts or rules for %s, or fix the spelling"
                 % _format_indicator(target),
        ))

    if any(not rule.is_fact() for rule in program.rules):
        for target, rule in sorted(has_fact.items(), key=lambda kv: _format_indicator(kv[0])):
            if target in proper_by_head or target in referenced:
                continue
            if target[1] in wildcard_reference_arities:
                continue
            diagnostics.append(make_diagnostic(
                "W402",
                "fact-only relation %s is never referenced by any rule"
                % _format_indicator(target),
                span=rule.span,
                rule=repr(rule),
                hint="drop the facts or reference the relation",
            ))

    for target, rules in sorted(proper_by_head.items(), key=lambda kv: _format_indicator(kv[0])):
        if target in has_fact:
            continue
        blocked = []
        for rule in rules:
            dead = None
            for literal in rule.body:
                if literal.is_builtin() or not literal.positive:
                    continue
                body_target = literal_indicator(literal.atom)
                if body_target is not None and body_target in undefined:
                    dead = body_target
                    break
            if dead is None:
                blocked = None
                break
            blocked.append(dead)
        if blocked:
            diagnostics.append(make_diagnostic(
                "W403",
                "predicate %s can never derive a fact: every defining rule "
                "depends on an undefined predicate (%s)"
                % (_format_indicator(target),
                   ", ".join(sorted({_format_indicator(b) for b in blocked}))),
                span=rules[0].span,
                rule=repr(rules[0]),
                hint="define the missing dependencies or remove the dead "
                     "rules",
            ))
    return diagnostics


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def run_checks(program):
    """Run every pass over ``program`` and return the combined findings."""
    diagnostics, error_rules = check_safety(program)
    diagnostics.extend(check_stratification(program))
    diagnostics.extend(check_binders(program, error_rules))
    diagnostics.extend(check_plans(program, error_rules))
    diagnostics.extend(check_singletons(program, error_rules))
    diagnostics.extend(check_duplicates(program))
    diagnostics.extend(check_subsumption(program, error_rules))
    diagnostics.extend(check_arities(program))
    diagnostics.extend(check_liveness(program))
    return diagnostics
