"""Unit tests for the plan → generated-function lowering
(:mod:`repro.engine.seminaive.plan`): one test per body shape the
generator treats specially, the executor's caps and errors, and the
lifetime of the generated code."""

import linecache
import weakref

import pytest

from plan_differential import counted, run_on
from repro.engine.seminaive import (
    EXECUTION_STATS,
    PlanSources,
    RelationStore,
    compile_rule,
    plan_satisfiable,
    run_plan,
)
from repro.engine.seminaive.engine import plan_instances
from repro.engine.seminaive.plan import (
    MAX_FETCHES_PER_FUNCTION,
    NEGATION,
    JoinStep,
    _compile_registers,
)
from repro.engine.seminaive.relation import FactBuckets
from repro.hilog.errors import EvaluationError, GroundingError
from repro.hilog.parser import parse_program, parse_term


def _setup(text, **compile_options):
    """``(plan of the first proper rule, sources over the facts)``."""
    program = parse_program(text)
    store = RelationStore([rule.head for rule in program.facts()])
    plan = compile_rule(program.proper_rules()[0], **compile_options)
    return plan, PlanSources(store)


def _heads(plan, sources, **options):
    """The sorted heads of ``plan``; a delta variant runs with every fact
    as the delta."""
    delta = FactBuckets(sources.store)
    return sorted(map(repr, run_on(plan, sources, delta, **options)))


class TestShapes:
    def test_nested_argument_pattern_is_matched_structurally(self):
        plan, sources = _setup("""
            same(X, Z) :- pair(f(X, g(X)), Z).
            pair(f(a, g(a)), 1). pair(f(a, g(b)), 2). pair(f(a, a), 3).
            pair(h(a, g(a)), 4). pair(f(b, g(b)), 5). pair(c, 6).
        """)
        heads, fetches, candidates = counted(lambda: _heads(plan, sources))
        assert heads == ["same(a, 1)", "same(b, 5)"]
        assert (fetches, candidates) == (1, 6)

    def test_unbound_predicate_name_spills_over_the_arity(self):
        plan, sources = _setup("""
            holds(P, X) :- P(X, b).
            e(a, b). e(c, d). f(e, b). g(a, b, c). h(b).
        """)
        assert ".spill(2, None)" in plan.registers.source
        heads, fetches, candidates = counted(lambda: _heads(plan, sources))
        assert heads == ["holds(e, a)", "holds(f, e)"]
        assert (fetches, candidates) == (1, 3)

    def test_partly_bound_predicate_name_spills_by_outermost_symbol(self):
        plan, sources = _setup("""
            won(M, X) :- winning(M)(X).
            winning(m1)(a). winning(m2)(b). losing(m1)(c). winning(d).
        """)
        assert ".spill(1, " in plan.registers.source
        heads, _fetches, candidates = counted(lambda: _heads(plan, sources))
        assert heads == ["won(m1, a)", "won(m2, b)"]
        # losing(m1)(c) has the arity but not the symbol; winning(d) has both
        # and fails the name match.
        assert candidates == 3

    def test_spill_symbol_read_from_a_register_at_runtime(self):
        plan, sources = _setup("""
            won(M, G, X) :- family(M), M(G)(X).
            family(winning). family(none).
            winning(m1)(a). winning(m2)(b). losing(m1)(c).
        """)
        assert ".spill(1, outermost_symbol(r0))" in plan.registers.source
        heads, fetches, candidates = counted(lambda: _heads(plan, sources))
        assert heads == ["won(winning, m1, a)", "won(winning, m2, b)"]
        assert (fetches, candidates) == (3, 4)  # family/1, then one spill each

    def test_predicate_name_bound_at_runtime_is_an_indexed_fetch(self):
        plan, sources = _setup("""
            holds(P, X) :- rel(P), P(X, b).
            rel(e). rel(f). rel(none). e(a, b). e(c, d). f(e, b).
        """)
        assert ".spill(" not in plan.registers.source
        assert _heads(plan, sources) == ["holds(e, a)", "holds(f, e)"]

    def test_propositional_subgoals(self):
        plan, sources = _setup("on :- flag, not off. flag.")
        assert _heads(plan, sources) == ["on"]
        plan, sources = _setup("on :- flag, not off. flag. off.")
        assert _heads(plan, sources) == []

    def test_propositional_variable_bound_and_scanned(self):
        plan, sources = _setup("true(V) :- cand(V), V. cand(p). cand(q(a)). q(a).")
        assert _heads(plan, sources) == ["true(q(a))"]
        # Unbound, a bare variable is only ever the delta anchor: it scans
        # every fact of the delta.
        plan, sources = _setup("seen(V) :- V. p. q(a).", delta_index=0)
        heads, fetches, candidates = counted(lambda: _heads(plan, sources))
        assert heads == ["seen(p)", "seen(q(a))"]
        assert (fetches, candidates) == (1, 2)

    def test_is_and_equals_bridge_to_solve_builtin(self):
        plan, sources = _setup("succ(X, Y) :- n(X), Y is X + 1, n(Y). n(1). n(2). n(4).")
        assert "_solve(" in plan.registers.source
        assert _heads(plan, sources) == ["succ(1, 2)"]
        plan, sources = _setup("copy(X, Y) :- n(X), Y = X. n(1). n(a).")
        assert _heads(plan, sources) == ["copy(1, 1)", "copy(a, a)"]
        plan, sources = _setup("copy(X, Y) :- n(X), X = Y. n(1).")
        assert _heads(plan, sources) == ["copy(1, 1)"]

    def test_numeric_comparison_is_inline_with_a_bridge_for_expressions(self):
        plan, sources = _setup(
            "lt(X, Y) :- n(X), n(Y), X < Y. n(1). n(2). n(1 + 2)."
        )
        assert ".value < " in plan.registers.source
        assert _heads(plan, sources) == ["lt(1, 1 + 2)", "lt(1, 2)", "lt(2, 1 + 2)"]
        plan, sources = _setup("small(X) :- n(X), X =< 2, X =\\= 1. n(1). n(2). n(3).")
        assert _heads(plan, sources) == ["small(2)"]
        plan, sources = _setup("bad(X) :- n(X), X < 2. n(a).")
        with pytest.raises(EvaluationError):
            run_plan(plan, sources)

    def test_aggregate_tail(self):
        plan, sources = _setup("""
            fanout(X, N) :- node(X), N = count(Y : e(X, Y)).
            node(a). node(b). node(c). e(a, 1). e(a, 2). e(b, 1).
        """)
        assert not plan.registers.fast
        assert _heads(plan, sources) == ["fanout(a, 2)", "fanout(b, 1)"]
        backwards = compile_rule(plan.rule, from_head=True)
        # Satisfiability ignores the aggregate: any count will do.
        assert plan_satisfiable(backwards, sources, parse_term("fanout(a, 7)"))
        assert not plan_satisfiable(backwards, sources, parse_term("fanout(d, 0)"))

    def test_deferred_builtin_runs_in_the_tail(self):
        plan, sources = _setup("p(X) :- q(X), Z > X. q(1).")
        assert plan.deferred_builtins and not plan.registers.fast
        with pytest.raises(EvaluationError):
            run_plan(plan, sources)
        backwards = compile_rule(plan.rule, from_head=True)
        assert backwards.deferred_builtins
        with pytest.raises(EvaluationError):
            plan_satisfiable(backwards, sources, parse_term("p(1)"))

    def test_delta_variant_on_a_negative_site_flips_the_literal(self):
        """Anchored on ``not r(X)``, the variant reads ``r`` from the delta:
        the instances the atoms there, once false, enable."""
        plan, sources = _setup("""
            p(X) :- q(X), not r(X), not s(X).
            q(a). q(b). q(c). r(a). r(b). s(b).
        """, delta_index=1)
        anchor = plan.steps[0]
        assert (anchor.body_index, anchor.kind, anchor.from_delta) == (1, "fetch", True)
        assert repr(plan.rule) == "p(X) :- q(X), r(X), not s(X)."
        assert _heads(plan, sources) == ["p(a)"]

    def test_floundering_negation_raises_when_reached(self):
        # The planner refuses such bodies (PlanError); the generated check
        # is the backstop for a step list that reaches one anyway.
        rule = parse_program("p :- not q(X).").rules[0]
        step = JoinStep(NEGATION, rule.body[0], 0, frozenset(), (), False)
        rprog = _compile_registers(rule, (step,), (), (), False)
        with pytest.raises(GroundingError, match="flounders"):
            rprog.run(PlanSources(RelationStore()), lambda head: None,
                      EXECUTION_STATS.counters())


class TestHeadEntry:
    def test_plan_binds_its_head_variables_from_the_fact(self):
        plan, sources = _setup(
            "tc(X, Y) :- e(X, Z), tc(Z, Y). e(a, b). tc(b, c).", from_head=True
        )
        assert plan.registers.source.startswith(
            "def run(sources, atom, sink, stats):")
        assert plan_satisfiable(plan, sources, parse_term("tc(a, c)"))
        assert not plan_satisfiable(plan, sources, parse_term("tc(a, b)"))
        solutions = []
        assert not plan_instances(
            plan, sources, parse_term("tc(a, c)"), solutions.append)
        assert [repr(s.apply(parse_term("w(X, Z, Y)"))) for s in solutions] \
            == ["w(a, b, c)"]

    @pytest.mark.parametrize("fact", [
        "tc(a)", "tc(a, c, c)", "td(a, c)", "tc", "tc(a)(c)",
    ])
    def test_fact_of_another_shape_is_refused_before_any_fetch(self, fact):
        plan, sources = _setup(
            "tc(X, Y) :- e(X, Z), tc(Z, Y). e(a, b). tc(b, c).", from_head=True
        )
        result, fetches, _candidates = counted(
            lambda: plan_satisfiable(plan, sources, parse_term(fact)))
        assert (result, fetches) == (False, 0)

    def test_nested_name_and_repeated_variable_in_the_head(self):
        plan, sources = _setup("""
            winning(M)(X, X) :- game(M), M(X, Y).
            game(m1). m1(a, b).
        """, from_head=True)
        assert plan_satisfiable(plan, sources, parse_term("winning(m1)(a, a)"))
        assert not plan_satisfiable(plan, sources, parse_term("winning(m1)(a, b)"))
        assert not plan_satisfiable(plan, sources, parse_term("winning(m2)(a, a)"))
        assert not plan_satisfiable(plan, sources, parse_term("losing(m1)(a, a)"))

    def test_ground_and_nested_head_arguments(self):
        plan, sources = _setup(
            "p(f(X, b), c) :- q(X). q(a).", from_head=True)
        assert plan_satisfiable(plan, sources, parse_term("p(f(a, b), c)"))
        for other in ("p(f(a, c), c)", "p(f(a, b), d)", "p(g(a, b), c)",
                      "p(a, c)", "p(f(z, b), c)"):
            assert not plan_satisfiable(plan, sources, parse_term(other))

    def test_propositional_and_variable_heads(self):
        plan, sources = _setup("on :- flag, not off. flag.", from_head=True)
        assert plan_satisfiable(plan, sources, parse_term("on"))
        assert not plan_satisfiable(plan, sources, parse_term("off"))
        assert not plan_satisfiable(plan, sources, parse_term("on(a)"))
        plan, sources = _setup("V :- cand(V). cand(q(a)).", from_head=True)
        assert plan_satisfiable(plan, sources, parse_term("q(a)"))
        assert not plan_satisfiable(plan, sources, parse_term("q(b)"))

    def test_body_longer_than_one_function_nests(self):
        length = 3 * MAX_FETCHES_PER_FUNCTION + 2
        body = ", ".join("e(X%d, X%d)" % (i, i + 1) for i in range(length))
        facts = " ".join("e(n%d, n%d)." % (i, i + 1) for i in range(length + 1))
        plan, sources = _setup("path(X0, X%d) :- %s. %s" % (length, body, facts))
        assert plan.registers.source.count("\ndef run") == 3
        heads, fetches, _candidates = counted(lambda: _heads(plan, sources))
        assert heads == ["path(n0, n%d)" % length, "path(n1, n%d)" % (length + 1)]
        assert fetches > length
        backwards = compile_rule(plan.rule, from_head=True)
        assert backwards.registers.source.count("\ndef run") == 3
        assert plan_satisfiable(
            backwards, sources, parse_term("path(n0, n%d)" % length))
        assert not plan_satisfiable(
            backwards, sources, parse_term("path(n0, n%d)" % (length + 1)))


class TestExecutor:
    def test_distinct_head_cap_counts_heads_not_derivations(self):
        plan, sources = _setup("p(X) :- q(X, Y). q(a, 1). q(a, 2). q(a, 3). q(b, 1).")
        assert _heads(plan, sources, max_results=2) == ["p(a)", "p(a)", "p(a)", "p(b)"]
        with pytest.raises(GroundingError, match="more than 1 distinct heads"):
            run_plan(plan, sources, max_results=1)

    def test_unground_head_is_an_error_to_derive_but_not_to_probe(self):
        plan, sources = _setup("p(X, Y) :- q(X). q(a).")
        assert not plan.registers.head_ground
        with pytest.raises(GroundingError, match="not range restricted"):
            run_plan(plan, sources)
        backwards = compile_rule(plan.rule, from_head=True)
        assert plan_satisfiable(backwards, sources, parse_term("p(a, b)"))
        empty = PlanSources(RelationStore())
        assert run_plan(plan, empty) == []
        assert not plan_satisfiable(backwards, empty, parse_term("p(a, b)"))

    def test_truthy_sink_stops_the_walk(self):
        plan, sources = _setup("p(X) :- q(X). q(a). q(b). q(c).")
        seen = []

        def sink(head):
            seen.append(head)
            return len(seen) == 2

        stats = EXECUTION_STATS.counters()
        assert plan.registers.run(sources, sink, stats) is True
        assert len(seen) == 2
        assert plan.registers.run(sources, lambda head: None, stats) is False

    def test_counters_are_bumped_per_fetch_and_per_candidate(self):
        plan, sources = _setup(
            "tc(X, Y) :- e(X, Z), tc(Z, Y). e(a, b). e(b, c). tc(b, c). tc(c, d)."
        )
        heads, fetches, candidates = counted(lambda: _heads(plan, sources))
        assert heads == ["tc(a, c)", "tc(b, d)"]
        assert (fetches, candidates) == (3, 4)  # 1 scan of e/2 + 2 probes of tc/2


class TestLifetime:
    def test_source_is_a_read_only_attribute_next_to_the_function(self):
        plan, _sources = _setup("winning(X) :- move(X, Y), not winning(Y).")
        registers = plan.registers
        assert registers.source.startswith("def run(sources, sink, stats):")
        assert "intern_app(" in registers.source and "holds(" in registers.source
        assert callable(registers.run)
        with pytest.raises(AttributeError):
            registers.source = ""

    def test_dropped_plan_frees_its_function_at_once(self):
        plan, _sources = _setup("tc(X, Y) :- e(X, Z), tc(Z, Y).")
        function = weakref.ref(plan.registers.run)
        code = weakref.ref(plan.registers.run.__code__)
        del plan
        # No gc.collect(): nothing but the plan may hold the function — no
        # module-level cache, no reference cycle.
        assert function() is None and code() is None
        assert not any(str(name).startswith("<plan") for name in linecache.cache)
