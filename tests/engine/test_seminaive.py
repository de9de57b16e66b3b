"""Unit tests for the semi-naive evaluation subsystem
(:mod:`repro.engine.seminaive`): relation stores, join plans, the
delta-driven fixpoint, and the ``strategy="seminaive"`` wiring of
``perfect_model_for_hilog`` / ``magic_evaluate``."""

import pytest

from repro.core.magic.evaluate import magic_evaluate
from repro.core.modular import modularly_stratified_for_hilog, perfect_model_for_hilog
from repro.core.semantics import hilog_well_founded_model
from repro.engine.seminaive import (
    RelationStore,
    SeminaiveUnsupported,
    compile_rule,
    predicate_indicator,
    seminaive_evaluate,
    seminaive_perfect_model,
    seminaive_well_founded,
)
from repro.engine.seminaive.plan import FETCH, NEGATION, PlanError
from repro.engine.seminaive.relation import candidates
from repro.hilog.errors import GroundingError
from repro.hilog.parser import parse_program, parse_query, parse_rule, parse_term
from repro.hilog.subst import Substitution
from repro.hilog.terms import App, Sym, Var
from repro.workloads.closure import (
    datahilog_closure_program,
    expected_closure,
    hilog_closure_program,
    transitive_closure_program,
)
from repro.workloads.games import datahilog_game_program, hilog_game_program
from repro.workloads.graphs import chain_edges, random_dag_edges
from repro.workloads.parts import bicycle_parts_program


# ---------------------------------------------------------------------------
# RelationStore
# ---------------------------------------------------------------------------

class TestRelationStore:
    def test_partitions_by_indicator_and_deduplicates(self):
        store = RelationStore()
        assert store.add(parse_term("e(a, b)"))
        assert not store.add(parse_term("e(a, b)"))
        store.add(parse_term("e(b, c)"))
        store.add(parse_term("f(a)"))
        assert len(store) == 3
        assert len(store.facts(Sym("e"), 2)) == 2
        assert len(store.facts(Sym("f"), 1)) == 1
        assert parse_term("e(a, b)") in store

    def test_symbol_and_zero_ary_application_stay_distinct(self):
        store = RelationStore()
        store.add(parse_term("p"))
        store.add(parse_term("p()"))
        assert len(store) == 2
        assert predicate_indicator(parse_term("p")) == (Sym("p"), -1)
        assert predicate_indicator(parse_term("p()")) == (Sym("p"), 0)

    def test_indexed_lookup_probes_only_matching_facts(self):
        store = RelationStore()
        for i in range(50):
            store.add(parse_term("e(n%d, n%d)" % (i, i + 1)))
        pattern = App(Sym("e"), (parse_term("n7"), Var("Y")))
        found = candidates(store, pattern, Substitution(), index_positions=(0,))
        assert [repr(c) for c in found] == ["e(n7, n8)"]
        # The index was materialized on demand.
        assert store.relation(Sym("e"), 2).index_count() == 1

    def test_spill_lookup_for_higher_order_pattern(self):
        store = RelationStore()
        store.add(parse_term("move1(a, b)"))
        store.add(parse_term("move2(x, y)"))
        store.add(parse_term("other(a, b, c)"))
        pattern = App(Var("M"), (Var("X"), Var("Y")))
        found = candidates(store, pattern, Substitution())
        assert sorted(map(repr, found)) == ["move1(a, b)", "move2(x, y)"]

    def test_spill_narrowed_by_outermost_symbol(self):
        store = RelationStore()
        store.add(parse_term("winning(m1)(a)"))
        store.add(parse_term("winning(m2)(b)"))
        store.add(parse_term("losing(m1)(c)"))
        pattern = App(App(Sym("winning"), (Var("M"),)), (Var("X"),))
        found = candidates(store, pattern, Substitution())
        assert sorted(map(repr, found)) == ["winning(m1)(a)", "winning(m2)(b)"]

    def test_rejects_non_ground_atoms(self):
        with pytest.raises(GroundingError):
            RelationStore().add(App(Sym("e"), (Var("X"),)))


# ---------------------------------------------------------------------------
# Join plans
# ---------------------------------------------------------------------------

class TestJoinPlans:
    def test_negation_ordered_after_its_binder(self):
        rule = parse_rule("p(X) :- not q(X), e(X).")
        plan = compile_rule(rule)
        kinds = [step.kind for step in plan.steps]
        assert kinds == [FETCH, NEGATION]

    def test_builtin_scheduled_once_evaluable(self):
        rule = parse_rule("p(X, N) :- N = X * 2, val(X).")
        plan = compile_rule(rule)
        assert [step.kind for step in plan.steps] == [FETCH, "builtin"]

    def test_index_positions_follow_bound_variables(self):
        rule = parse_rule("tc(X, Y) :- e(X, Z), tc(Z, Y).")
        plan = compile_rule(rule)
        # First fetch has nothing bound; second fetch can probe on Z.
        assert plan.steps[0].index_positions == ()
        assert plan.steps[1].index_positions == (0,)

    def test_delta_variant_moves_delta_literal_first(self):
        rule = parse_rule("tc(X, Y) :- e(X, Z), tc(Z, Y).")
        plan = compile_rule(rule, delta_index=1)
        assert plan.steps[0].from_delta
        assert repr(plan.steps[0].literal.atom) == "tc(Z, Y)"
        # The edge fetch now probes on its second position (Z is bound).
        assert plan.steps[1].index_positions == (1,)

    def test_floundering_negation_raises(self):
        rule = parse_rule("p(X) :- e(X), not q(X, Y).")
        with pytest.raises(PlanError):
            compile_rule(rule)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class TestSeminaiveEngine:
    def test_transitive_closure_matches_wfs(self):
        program = transitive_closure_program(chain_edges(12))
        result = seminaive_evaluate(program)
        assert result.true == hilog_well_founded_model(program).true

    def test_closure_matches_reference_on_random_dag(self):
        edges = random_dag_edges(25, 60, seed=7)
        program = transitive_closure_program(edges)
        result = seminaive_evaluate(program)
        derived_pairs = {
            (repr(atom.args[0]), repr(atom.args[1]))
            for atom in result.derived
        }
        assert derived_pairs == expected_closure(edges)

    def test_stratified_negation_matches_wfs(self):
        program = parse_program("""
            reachable(X) :- source(X).
            reachable(Y) :- reachable(X), e(X, Y).
            unreachable(X) :- node(X), not reachable(X).
            source(a).
            node(a). node(b). node(c). node(d).
            e(a, b). e(b, c).
        """)
        result = seminaive_evaluate(program)
        wfs = hilog_well_founded_model(program)
        assert result.true == wfs.true
        assert len(result.strata) == 2

    def test_higher_order_definite_program(self):
        program = hilog_closure_program({"e": chain_edges(6)})
        result = seminaive_evaluate(program)
        assert result.true == hilog_well_founded_model(program).true

    def test_aggregate_over_lower_stratum(self):
        program = parse_program("""
            total(X, N) :- node(X), N = sum(P : weight(X, Y, P)).
            node(a). node(b).
            weight(a, u, 3). weight(a, v, 4). weight(b, u, 5).
        """)
        result = seminaive_evaluate(program)
        assert parse_term("total(a, 7)") in result.true
        assert parse_term("total(b, 5)") in result.true

    def test_extra_facts_seed_the_store(self):
        program = parse_program("p(X) :- q(X).")
        result = seminaive_evaluate(program, extra_facts=[parse_term("q(a)")])
        assert result.derived == frozenset({parse_term("p(a)")})

    def test_recursion_through_negation_is_unsupported(self):
        program = parse_program("""
            winning(X) :- move(X, Y), not winning(Y).
            move(a, b). move(b, c).
        """)
        with pytest.raises(SeminaiveUnsupported):
            seminaive_evaluate(program)

    def test_recursion_through_aggregation_is_unsupported(self):
        program = bicycle_parts_program()
        with pytest.raises(SeminaiveUnsupported):
            seminaive_evaluate(program)

    def test_unsafe_rule_raises_grounding_error(self):
        program = parse_program("p(X, Y) :- e(X). e(a).")
        with pytest.raises(GroundingError):
            seminaive_evaluate(program)

    def test_fact_cap_raises_grounding_error(self):
        program = transitive_closure_program(chain_edges(10))
        with pytest.raises(GroundingError):
            seminaive_evaluate(program, max_facts=5)

    @pytest.mark.parametrize("evaluate", [seminaive_evaluate, seminaive_well_founded])
    def test_fact_cap_counts_facts_not_derivations(self, evaluate):
        """``r(d)`` has two derivations, and the second arrives with the
        store already holding the whole 7-atom model."""
        program = parse_program("""
            e(a, b). e(a, c). e(b, d). e(c, d).
            r(X) :- e(a, X).  r(Y) :- r(X), e(X, Y).
        """)
        assert len(evaluate(program, max_facts=7).true) == 7
        with pytest.raises(GroundingError, match="exceeded 6 facts"):
            evaluate(program, max_facts=6)

    def test_perfect_model_is_total(self):
        model = seminaive_perfect_model(transitive_closure_program(chain_edges(5)))
        assert model.is_total()
        assert model.is_true(parse_term("tc(n0, n5)"))
        assert model.is_false(parse_term("tc(n5, n0)"))


# ---------------------------------------------------------------------------
# strategy="seminaive" wiring
# ---------------------------------------------------------------------------

class TestStrategyWiring:
    def test_perfect_model_strategies_agree_on_closure(self):
        program = transitive_closure_program(random_dag_edges(15, 30, seed=3))
        ground = perfect_model_for_hilog(program)
        fast = perfect_model_for_hilog(program, strategy="seminaive")
        assert ground.true == fast.true
        assert fast.is_total()

    def test_strategies_agree_on_datahilog_closure(self):
        program = datahilog_closure_program({"g1": chain_edges(6), "g2": chain_edges(4, "m")})
        ground = perfect_model_for_hilog(program)
        fast = perfect_model_for_hilog(program, strategy="seminaive")
        assert ground.true == fast.true

    def test_strategies_agree_on_hilog_game_fallback(self):
        # Negation inside the winning component: the fast path must fall
        # back to the grounding oracle per component and still agree.
        program = hilog_game_program({"m": random_dag_edges(12, 24, seed=5)})
        ground = modularly_stratified_for_hilog(program)
        fast = modularly_stratified_for_hilog(program, strategy="seminaive")
        assert ground.is_modularly_stratified and fast.is_modularly_stratified
        assert ground.model.true == fast.model.true

    def test_strategies_agree_on_parts_explosion(self):
        program = bicycle_parts_program()
        ground = perfect_model_for_hilog(program)
        fast = perfect_model_for_hilog(program, strategy="seminaive")
        assert ground.true == fast.true

    def test_strategies_agree_on_negative_verdict(self):
        program = datahilog_game_program({"m": [("a", "b"), ("b", "a")]})
        ground = modularly_stratified_for_hilog(program)
        fast = modularly_stratified_for_hilog(program, strategy="seminaive")
        assert not ground.is_modularly_stratified
        assert not fast.is_modularly_stratified

    def test_unknown_strategy_rejected(self):
        program = transitive_closure_program(chain_edges(3))
        with pytest.raises(ValueError):
            perfect_model_for_hilog(program, strategy="bogus")
        with pytest.raises(ValueError):
            magic_evaluate(program, parse_query("tc(n0, Y)"), strategy="bogus")

    def test_magic_strategies_agree_on_bound_query(self):
        program = transitive_closure_program(chain_edges(15))
        query = parse_query("tc(n3, Y)")
        ground = magic_evaluate(program, query)
        fast = magic_evaluate(program, query, strategy="seminaive")
        assert ground.answers == fast.answers
        assert fast.ground_rules == 0  # no ground rules materialized

    def test_magic_strategies_agree_on_free_query(self):
        program = transitive_closure_program(chain_edges(8))
        query = parse_query("tc(X, Y)")
        ground = magic_evaluate(program, query)
        fast = magic_evaluate(program, query, strategy="seminaive")
        assert ground.answers == fast.answers

    def test_magic_seminaive_falls_back_on_negation(self):
        program = datahilog_game_program({"m": chain_edges(6)})
        query = parse_query("winning(m, X)")
        ground = magic_evaluate(program, query)
        fast = magic_evaluate(program, query, strategy="seminaive")
        assert ground.answers == fast.answers

    def test_aggregate_over_settled_component_agrees(self):
        # The oracle's aggregate components fold only over their own atoms,
        # so the whole-program fast path must decline aggregate programs
        # rather than fold over the full store.
        program = parse_program("""
            e(v, 1). e(w, 2). q(c).
            total(N) :- q(X), N = sum(P : e(Y, P)).
        """)
        ground = perfect_model_for_hilog(program)
        fast = perfect_model_for_hilog(program, strategy="seminaive")
        assert ground.true == fast.true

    def test_magic_seminaive_declines_reserved_predicate_names(self):
        # A user predicate named `magic` (or `sup_*`) collides with the
        # rewriting's auxiliary namespace; the fast path must stay on the
        # oracle for such programs.
        program = parse_program("""
            magic(a). magic(b).
            p(X) :- magic(X).
            sup_0_0(c).
            r(X) :- sup_0_0(X).
        """)
        for query_text in ("magic(X)", "p(X)", "r(X)"):
            query = parse_query(query_text)
            ground = magic_evaluate(program, query)
            fast = magic_evaluate(program, query, strategy="seminaive")
            assert ground.answers == fast.answers, query_text
