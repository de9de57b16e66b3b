"""Query-driven evaluation of modularly stratified HiLog programs.

This is the operational counterpart of the magic-sets rewriting: call
patterns are propagated from the query through rule bodies left to right
(the same sideways information passing the rewriting uses), only rule
instances whose head answers some propagated call are instantiated, and the
well-founded model of that *relevant* ground fragment is computed.  For
programs that are modularly stratified from left to right this yields
exactly the answers of the full HiLog well-founded semantics while touching
only query-reachable atoms — the efficiency claim of Section 6.1.

Relation to the paper's formulation: Ross'90 (and Example 6.6) track the
completion of negatively called subgoals with the auxiliary relations
``dp``/``dn``/``dn'`` and a boxed-negation rule evaluated "in a particular
order".  Here the same effect is obtained by collecting the downward closure
of the query through both positive and negative subgoals and running the
ground well-founded computation on that closure: the truth value of an atom
under the well-founded semantics only depends on atoms reachable from it
through rule bodies, so the two strategies agree on the supported class.
The substitution is recorded in DESIGN.md.

Floundering (footnote 10) — a negative subgoal, or a subgoal whose predicate
name is an unbound bare variable, reached before its variables are bound —
is detected and reported as an error.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.core.magic.adornment import generalize_pattern
from repro.engine.builtins import solve_builtin
from repro.engine.grounding import GroundProgram, GroundRule
from repro.engine.interpretation import Interpretation
from repro.engine.seminaive.relation import FactSource, matching_facts, sorted_matches
from repro.engine.wellfounded import well_founded_model
from repro.hilog.errors import EvaluationError, GroundingError
from repro.hilog.program import Literal, Program, Rule
from repro.hilog.terms import Term, Var, outermost_symbol, predicate_name
from repro.hilog.unify import match, unify


class MagicEvaluationResult(NamedTuple):
    """Outcome of a query-driven evaluation."""

    answers: Tuple[Term, ...]
    interpretation: Interpretation
    relevant_atoms: FrozenSet[Term]
    call_patterns: Tuple[Term, ...]
    ground_rules: int


class _CallTable:
    """Deduplicated store of call patterns (up to variable renaming)."""

    def __init__(self):
        self._patterns = {}

    def add(self, pattern):
        key = generalize_pattern(pattern)
        if key in self._patterns:
            return False
        self._patterns[key] = pattern
        return True

    def patterns(self):
        return list(self._patterns.values())

    def __len__(self):
        return len(self._patterns)


def _rename_rule(rule, counter):
    counter[0] += 1
    return rule.rename_apart([counter[0] * 1000])


def _process_rule(rule, call_pattern, answers_index, all_answers, calls, new_calls,
                  flounder_errors):
    """Instantiate ``rule`` for ``call_pattern`` against the current answers.

    Returns the set of ground rules generated.  New call patterns discovered
    along the way are pushed into ``new_calls``.
    """
    produced = set()
    head_unifier = unify(rule.head, call_pattern)
    if head_unifier is None:
        return produced

    def expand(position, subst):
        if position == len(rule.body):
            yield subst
            return
        literal = rule.body[position]
        if literal.is_builtin():
            try:
                solutions = solve_builtin(literal.atom, subst)
            except EvaluationError:
                # Defer the builtin until later literals bind its variables.
                for later in expand(position + 1, subst):
                    try:
                        for solution in solve_builtin(literal.atom, later):
                            yield solution
                    except EvaluationError:
                        flounder_errors.append(
                            "builtin %r never becomes evaluable in rule %r"
                            % (literal.atom, rule)
                        )
                return
            for solution in solutions:
                yield from expand(position + 1, solution)
            return

        atom = subst.apply(literal.atom)
        name = predicate_name(atom)
        if literal.negative:
            if not atom.is_ground():
                flounder_errors.append(
                    "negative subgoal %r reached with unbound variables in rule %r "
                    "(the program flounders)" % (atom, rule)
                )
                return
            # Propagate relevance through the negation, but do not filter: the
            # final well-founded computation decides the truth value.
            if calls.add(atom):
                new_calls.append(atom)
            yield from expand(position + 1, subst)
            return

        if isinstance(name, Var):
            flounder_errors.append(
                "subgoal %r has an unbound predicate name in rule %r "
                "(the program flounders)" % (atom, rule)
            )
            return
        if calls.add(atom):
            new_calls.append(atom)
        if name.is_ground():
            candidates = answers_index.get(name, ())
        else:
            candidates = all_answers
        for candidate in candidates:
            extended = match(subst.apply(literal.atom), candidate, subst)
            if extended is not None:
                yield from expand(position + 1, extended)

    for subst in expand(0, head_unifier):
        head = subst.apply(rule.head)
        if not head.is_ground():
            raise GroundingError(
                "derived head %r is not ground; the rule %r is not strongly "
                "range restricted" % (head, rule)
            )
        positive = tuple(
            subst.apply(lit.atom) for lit in rule.body if lit.positive and not lit.is_builtin()
        )
        negative = tuple(subst.apply(lit.atom) for lit in rule.body if lit.negative)
        produced.add(GroundRule(head, positive, negative))
    return produced


def _seminaive_magic(program, query_literals, max_atoms):
    """The semi-naive fast path of :func:`magic_evaluate`.

    For definite programs the paper's architecture applies directly: run the
    declarative magic-sets rewriting and evaluate the rewritten (still
    definite) program bottom-up with the delta-driven engine — only
    query-reachable facts are derived, and no ground rules are ever
    materialized.  Returns ``None`` when the fast path does not apply
    (negation, aggregates, a floundering rewrite, or a program outside the
    engine's class); the caller then runs the grounding oracle, so both
    strategies always return the same answers.
    """
    from repro.core.magic.rewrite import MAGIC, SUP_PREFIX, magic_rewrite
    from repro.engine.seminaive import SeminaiveUnsupported, seminaive_evaluate
    from repro.hilog.errors import StratificationError

    if program.has_negation() or program.has_aggregates():
        return None
    if any(literal.negative for literal in query_literals):
        return None
    # The rewriting's auxiliary predicates live in the same namespace as the
    # user program; a program that mentions ``magic`` or a ``sup_*`` symbol
    # anywhere could collide with them (its answers would be filtered out as
    # auxiliary, or its rules would join against the rewrite's seed facts),
    # so such programs stay on the oracle.
    if any(name == str(MAGIC.name) or name.startswith("%s_" % SUP_PREFIX)
           for name in program.symbols()):
        return None
    try:
        rewritten = magic_rewrite(program, query_literals)
    except StratificationError:
        return None
    try:
        result = seminaive_evaluate(rewritten.rewritten_program(), max_facts=max_atoms)
    except (SeminaiveUnsupported, GroundingError, EvaluationError):
        return None

    def is_auxiliary(atom):
        symbol = outermost_symbol(atom)
        return symbol is not None and (
            symbol == MAGIC or symbol.name.startswith("%s_" % SUP_PREFIX)
        )

    program_atoms = frozenset(atom for atom in result.true if not is_auxiliary(atom))
    matched = sorted_matches(query_literals[0].atom, program_atoms)
    return MagicEvaluationResult(
        answers=tuple(matched),
        interpretation=Interpretation(true=program_atoms, base=program_atoms),
        relevant_atoms=program_atoms,
        call_patterns=tuple(rewritten.binding_patterns),
        ground_rules=0,
    )


def answer_from_store(store: FactSource, query_literals):
    """Answer a query from a materialized total model in a relation store,
    in :func:`magic_evaluate`'s result shape.

    The answers follow :func:`magic_evaluate`'s contract exactly — the
    ground instances of the *first* query literal's atom that are true in
    the model (additional literals drive relevance in the evaluating paths,
    never filter answers) — so any query shape, including negative and
    conjunctive ones the evaluating paths would reject on aggregate
    programs, is answered by one indexed match
    (:func:`repro.engine.seminaive.relation.matching_facts`, which sessions
    and reader epochs call directly).  Returns a
    :class:`MagicEvaluationResult` with ``ground_rules`` 0 and the
    interpretation restricted to the answers.
    """
    pattern = query_literals[0].atom
    matched = matching_facts(store, pattern)
    answers = frozenset(matched)
    return MagicEvaluationResult(
        answers=matched,
        interpretation=Interpretation(true=answers, base=answers),
        relevant_atoms=answers,
        call_patterns=(pattern,),
        ground_rules=0,
    )


def magic_evaluate(program, query, max_atoms=500000, engine="alternating",
                   strategy="ground"):
    """Answer ``query`` against ``program`` by query-driven evaluation.

    ``query`` may be a single atom, a :class:`Literal` tuple, or a string
    already parsed by the caller.  Returns a :class:`MagicEvaluationResult`
    whose ``answers`` are the ground instances of the (first) query atom that
    are true in the well-founded model.

    ``strategy="seminaive"`` evaluates definite programs by magic rewriting
    plus delta-driven bottom-up evaluation over indexed relations (no ground
    rules are materialized; the result's ``ground_rules`` is 0 on that
    path), falling back to the default ``"ground"`` oracle — call-pattern
    propagation plus the ground well-founded computation — whenever the fast
    path does not apply.  Both strategies return the same answers.
    """
    if strategy not in ("ground", "seminaive"):
        raise ValueError("unknown strategy %r (use 'ground' or 'seminaive')" % (strategy,))
    if isinstance(query, Term):
        query_literals = (Literal(query),)
    else:
        query_literals = tuple(query)
    if not query_literals:
        raise ValueError("empty query")

    if program.has_aggregates():
        raise GroundingError("magic evaluation does not support aggregate rules")

    if strategy == "seminaive":
        fast = _seminaive_magic(program, query_literals, max_atoms)
        if fast is not None:
            return fast

    calls = _CallTable()
    new_calls = []
    for literal in query_literals:
        if calls.add(literal.atom):
            new_calls.append(literal.atom)

    counter = [0]
    renamed_rules = [_rename_rule(rule, counter) for rule in program.rules]

    # Index rules by the outermost symbol of their head so a call only visits
    # rules that could possibly answer it; rules whose head name starts with a
    # variable go into the wildcard bucket and are tried for every call.
    rules_by_symbol = {}
    wildcard_rules = []
    for rule in renamed_rules:
        symbol = outermost_symbol(rule.head)
        if symbol is None:
            wildcard_rules.append(rule)
        else:
            rules_by_symbol.setdefault(symbol, []).append(rule)

    def candidate_rules(call_pattern):
        symbol = outermost_symbol(call_pattern)
        if symbol is None:
            return renamed_rules
        return rules_by_symbol.get(symbol, []) + wildcard_rules

    answers = set()
    answers_index = {}
    ground_rules = set()
    flounder_errors = []

    changed = True
    while changed:
        changed = False
        pending_calls = calls.patterns()
        for call_pattern in pending_calls:
            for rule in candidate_rules(call_pattern):
                produced = _process_rule(
                    rule, call_pattern, answers_index, answers, calls, new_calls,
                    flounder_errors,
                )
                if flounder_errors:
                    raise GroundingError(flounder_errors[0])
                for ground_rule in produced:
                    if ground_rule not in ground_rules:
                        ground_rules.add(ground_rule)
                        changed = True
                    head = ground_rule.head
                    if head not in answers:
                        answers.add(head)
                        answers_index.setdefault(predicate_name(head), []).append(head)
                        changed = True
                    if len(answers) > max_atoms:
                        raise GroundingError(
                            "query-driven evaluation exceeded %d candidate atoms" % max_atoms
                        )
        if new_calls:
            changed = True
            new_calls = []

    ground_program = GroundProgram(tuple(ground_rules))
    interpretation = well_founded_model(ground_program, engine=engine)

    matched = sorted_matches(query_literals[0].atom, interpretation.true)

    return MagicEvaluationResult(
        answers=tuple(matched),
        interpretation=interpretation,
        relevant_atoms=frozenset(answers),
        call_patterns=tuple(calls.patterns()),
        ground_rules=len(ground_rules),
    )


def answer_query(program, query, **kwargs):
    """Convenience wrapper returning only the tuple of true query instances."""
    return magic_evaluate(program, query, **kwargs).answers
