"""The declarative magic-sets rewriting (Section 6.1, Example 6.6).

``magic_rewrite`` turns a strongly range-restricted HiLog program and a
query into the rewritten rule set of the paper:

* a seed fact ``magic(Q')`` for the (abstracted) query atom,
* for every rule ``H <- B_1, ..., B_n`` and every distinct binding pattern
  with which ``H`` can be called, supplementary rules

      sup_{r,0}(V_0) <- magic(H')
      sup_{r,i}(V_i) <- sup_{r,i-1}(V_{i-1}), B_i          (B_i kept with its sign)
      H             <- sup_{r,n}(V_n)

  and, for every non-builtin subgoal ``B_i``, a magic rule

      magic(B_i') <- sup_{r,i-1}(V_{i-1})

  where the primes denote abstraction of unbound positions by ``$free``
  (:func:`repro.core.magic.adornment.abstract_call`) — the HiLog analogue of
  an adornment — and ``V_i`` are the SIPS-determined supplementary variables.

Because every predicate may be IDB (the paper notes EDB/IDB cannot be told
apart when names can be variables), magic rules are emitted for *all*
subgoals.  The rewriting is performed per reachable binding pattern, starting
from the query and following magic rules, so the output is finite for
Datahilog programs (Lemma 6.3).

The rewritten rules are ordinary :class:`repro.hilog.program.Rule` objects
and can be printed with the standard pretty printer; the test suite checks
the structure produced for the game program of Example 6.6 against the
paper's listing.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.magic.adornment import (
    BOUND,
    FREE,
    abstract_call,
    adornment_of,
    call_signature,
    generalize_pattern,
)
from repro.engine.seminaive.sips import left_to_right_sips
from repro.hilog.errors import StratificationError
from repro.hilog.program import Literal, Program, Rule
from repro.hilog.terms import App, Sym, Term, Var, predicate_name
from repro.hilog.unify import unify

#: Reserved predicate names of the rewriting.
MAGIC = Sym("magic")
SUP_PREFIX = "sup"
ANSWER = Sym("answer")


class MagicProgram(NamedTuple):
    """The output of :func:`magic_rewrite`."""

    seed_facts: Tuple[Rule, ...]
    supplementary_rules: Tuple[Rule, ...]
    magic_rules: Tuple[Rule, ...]
    answer_rules: Tuple[Rule, ...]
    query: Tuple[Literal, ...]
    binding_patterns: Tuple[Term, ...]

    def rewritten_program(self):
        """All rewritten rules as a single :class:`Program` (paper's listing order)."""
        return Program(
            self.seed_facts
            + self.supplementary_rules
            + self.answer_rules
            + self.magic_rules
        )

    def rule_count(self):
        return (
            len(self.seed_facts)
            + len(self.supplementary_rules)
            + len(self.magic_rules)
            + len(self.answer_rules)
        )


def _magic_atom(call_pattern):
    return App(MAGIC, (call_pattern,))


def _sup_atom(rule_index, step_index, variables, suffix=""):
    name = Sym("%s_%d_%d%s" % (SUP_PREFIX, rule_index, step_index, suffix))
    return App(name, tuple(variables))


def _pattern_key(call_pattern):
    return generalize_pattern(call_pattern)


_FRESH_COUNTER = [0]


def _strip_markers_to_fresh(pattern):
    """Replace ``$free`` / ``$bound`` markers by fresh variables so the pattern
    can be unified against rule heads.  Bound markers become ``_B<i>``
    variables and free markers become ``_F<i>`` variables, which lets the
    caller recover which head variables a call binds."""

    def walk(term):
        if term == FREE:
            _FRESH_COUNTER[0] += 1
            return Var("_F%d" % _FRESH_COUNTER[0])
        if term == BOUND:
            _FRESH_COUNTER[0] += 1
            return Var("_B%d" % _FRESH_COUNTER[0])
        if isinstance(term, App):
            return App(walk(term.name), tuple(walk(argument) for argument in term.args))
        return term

    return walk(pattern)


def _analyse_call(head, call_pattern):
    """Match a rule head against a call pattern.

    Returns ``(bound_head_variables, head_pattern)`` or ``None`` when the
    rule cannot answer the call.  ``head_pattern`` is the argument the
    supplementary-0 rule passes to ``magic`` — the head with the call's free
    positions abstracted to ``$free`` — so that facts and heads with
    constants in free positions are matched correctly.
    """
    stripped = _strip_markers_to_fresh(call_pattern)
    unifier = unify(head, stripped)
    if unifier is None:
        return None

    bound = set()
    for variable in head.variables():
        value = unifier.apply(variable)
        if isinstance(value, Var):
            if value.name.startswith("_B"):
                bound.add(variable)
        else:
            bound.add(variable)

    def rebuild(head_node, pattern_node):
        """Walk the head and the call pattern in lockstep: free call positions
        become ``$free`` in the head pattern, bound call positions keep the
        head's own subterm (a variable that the supplementary-0 rule will
        extract from the magic atom, or a constant)."""
        if pattern_node == FREE:
            return FREE
        if (
            isinstance(head_node, App)
            and isinstance(pattern_node, App)
            and len(head_node.args) == len(pattern_node.args)
        ):
            return App(
                rebuild(head_node.name, pattern_node.name),
                tuple(
                    rebuild(h_arg, p_arg)
                    for h_arg, p_arg in zip(head_node.args, pattern_node.args)
                ),
            )
        return head_node

    head_pattern = rebuild(head, call_pattern)
    return bound, head_pattern


def magic_rewrite(program, query, max_patterns=10000):
    """Rewrite ``program`` for ``query`` (a literal tuple or a single atom).

    Returns a :class:`MagicProgram`.  Raises :class:`StratificationError`
    when a rule flounders under the left-to-right SIPS for some reachable
    binding pattern (negative or variable-named subgoal reached before its
    variables are bound), mirroring the paper's footnote 10 requirement.
    """
    if isinstance(query, Term):
        query_literals = (Literal(query),)
    else:
        query_literals = tuple(query)
    if not query_literals:
        raise ValueError("empty query")

    seed_facts = []
    pending = []
    seen_patterns = {}
    for literal in query_literals:
        pattern = abstract_call(literal.atom, bound_variables=frozenset())
        key = _pattern_key(pattern)
        if key not in seen_patterns:
            seen_patterns[key] = pattern
            pending.append(pattern)
            seed_facts.append(Rule(_magic_atom(pattern)))

    supplementary_rules = []
    magic_rules = []
    answer_rules = []
    rules = list(program.rules)

    processed = set()
    while pending:
        if len(seen_patterns) > max_patterns:
            raise StratificationError(
                "magic rewriting produced more than %d binding patterns; the "
                "program/query combination is unlikely to terminate" % max_patterns
            )
        call_pattern = pending.pop()
        pattern_id = _pattern_key(call_pattern)
        if pattern_id in processed:
            continue
        processed.add(pattern_id)

        for rule_index, rule in enumerate(rules):
            renamed = rule.rename_apart([rule_index * 100])
            analysis = _analyse_call(renamed.head, call_pattern)
            if analysis is None:
                continue  # this rule cannot answer this call
            bound, head_pattern = analysis
            steps = left_to_right_sips(renamed, bound)
            for step in steps:
                if step.flounders:
                    raise StratificationError(
                        "rule %r flounders under the left-to-right SIPS for call "
                        "pattern %r (subgoal %r reached with unbound variables)"
                        % (rule, call_pattern, step.literal)
                    )

            # Supplementary predicates are disambiguated by the call's
            # adornment when the same rule is reachable under several binding
            # patterns; the fully bound pattern keeps the paper's plain
            # sup_{r,i} naming.
            adornment = adornment_of(head_pattern)
            suffix = "" if set(adornment) == {"b"} else "_" + adornment

            # sup_{r,0}(V_0) <- magic(H')
            initial_vars = tuple(sorted(bound & renamed.head.variables(), key=lambda v: v.name))
            previous_sup = _sup_atom(rule_index + 1, 0, initial_vars, suffix)
            supplementary_rules.append(
                Rule(previous_sup, (Literal(_magic_atom(head_pattern)),))
            )

            for step in steps:
                literal = step.literal
                step_number = step.index + 1
                next_vars = tuple(
                    sorted(step.bound_after & _needed_after(renamed, step.index), key=lambda v: v.name)
                )
                next_sup = _sup_atom(rule_index + 1, step_number, next_vars, suffix)
                supplementary_rules.append(Rule(next_sup, (Literal(previous_sup), literal)))
                if not literal.is_builtin():
                    # The magic rule passes the actual bindings ...
                    subgoal_pattern = abstract_call(literal.atom, step.bound_before)
                    magic_rules.append(
                        Rule(_magic_atom(subgoal_pattern), (Literal(previous_sup),))
                    )
                    # ... while recursive processing only needs the binding
                    # pattern (adornment) of the new call.
                    signature = call_signature(literal.atom, step.bound_before)
                    key = _pattern_key(signature)
                    if key not in seen_patterns:
                        seen_patterns[key] = signature
                        pending.append(signature)
                previous_sup = next_sup

            # H <- sup_{r,n}(V_n)
            answer_rules.append(Rule(renamed.head, (Literal(previous_sup),)))

    return MagicProgram(
        _dedup(seed_facts),
        _dedup(supplementary_rules),
        _dedup(magic_rules),
        _dedup(answer_rules),
        query_literals,
        tuple(seen_patterns.values()),
    )


def _dedup(rules):
    """Drop duplicate rewritten rules while keeping the first occurrence's order.

    Processing the same original rule under several call patterns can emit
    textually identical supplementary/magic rules; only one copy is kept.
    """
    seen = set()
    unique = []
    for rule in rules:
        if rule not in seen:
            seen.add(rule)
            unique.append(rule)
    return tuple(unique)


def _needed_after(rule, position):
    """Variables needed strictly after body position ``position`` or by the head."""
    needed = set(rule.head.variables())
    for literal in rule.body[position + 1:]:
        needed |= literal.variables()
    for aggregate in rule.aggregates:
        needed |= aggregate.variables()
    return needed
