"""Tests for the engine primitives added for incremental maintenance:
fact removal in the relation store, component-grained
stratification, and per-stratum re-evaluation with injected deltas."""

import pytest

from repro.engine.seminaive import (
    PlanSources,
    RelationStore,
    compile_stratum,
    evaluate_stratum,
    plan_satisfiable,
    run_plan,
    seminaive_evaluate,
    stratify_program,
)
from repro.engine.seminaive.plan import compile_rule
from repro.engine.seminaive.relation import candidates
from repro.hilog.errors import GroundingError
from repro.hilog.parser import parse_program, parse_rule, parse_term
from repro.hilog.subst import Substitution
from repro.hilog.terms import App, Sym, Var


class TestRemoval:
    def test_remove_maintains_membership_and_counts(self):
        store = RelationStore()
        store.add(parse_term("e(a, b)"))
        store.add(parse_term("e(b, c)"))
        assert store.remove(parse_term("e(a, b)"))
        assert not store.remove(parse_term("e(a, b)"))
        assert parse_term("e(a, b)") not in store
        assert len(store) == 1
        assert len(store.facts(Sym("e"), 2)) == 1

    def test_remove_maintains_indexes(self):
        store = RelationStore()
        for i in range(20):
            store.add(parse_term("e(n%d, n%d)" % (i, i + 1)))
        pattern = App(Sym("e"), (parse_term("n7"), Var("Y")))
        assert len(candidates(store, pattern, Substitution(), (0,))) == 1
        store.remove(parse_term("e(n7, n8)"))
        assert len(candidates(store, pattern, Substitution(), (0,))) == 0
        store.add(parse_term("e(n7, n99)"))
        assert [repr(c) for c in candidates(store, pattern, Substitution(), (0,))] \
            == ["e(n7, n99)"]


class TestMembership:
    def test_plain_add_has_set_semantics(self):
        store = RelationStore()
        atom = parse_term("p(a)")
        assert store.add(atom)
        assert not store.add(atom)
        assert len(store) == 1
        assert store.facts(Sym("p"), 1) == [atom]
        assert store.remove(atom)
        assert atom not in store

    def test_membership_keeps_insertion_order(self):
        store = RelationStore()
        atoms = [parse_term(text) for text in ("q(c)", "p(a)", "q(b)")]
        for atom in atoms:
            store.add(atom)
        store.remove(atoms[1])
        store.add(atoms[1])
        expected = [atoms[0], atoms[2], atoms[1]]
        assert list(store) == expected
        assert store.all_facts() == expected
        assert store.facts(Sym("q"), 1) == [atoms[0], atoms[2]]

    def test_non_ground_atoms_are_refused(self):
        store = RelationStore()
        with pytest.raises(GroundingError):
            store.add(parse_term("p(X)"))
        assert len(store) == 0


class TestStratification:
    PROGRAM = """
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
        reach(X) :- tc(a, X).
        e(a, b).
    """

    def test_default_groups_positive_levels(self):
        strat = stratify_program(parse_program(self.PROGRAM))
        assert len(strat.strata) == 1  # definite: one stratum

    def test_by_component_splits_sccs(self):
        strat = stratify_program(parse_program(self.PROGRAM), by_component=True)
        assert len(strat.strata) == 2  # {tc} below {reach}
        reach_rule = strat.strata[1][0]
        assert strat.recursive[reach_rule] == set()  # reach is not recursive

    def test_by_component_falls_back_for_higher_order(self):
        program = parse_program("""
            tc(G)(X, Y) :- graph(G), G(X, Y).
            graph(g). g(a, b).
        """)
        strat = stratify_program(program, by_component=True)
        assert len(strat.strata) == 1
        assert list(strat.recursive.values()) == [None]

    def test_reads_are_in_first_seen_order(self):
        # Indicators hash by the identity of their name term, so a set of
        # them iterates in memory order, and a probe over ``reads`` that
        # stops at its first hit would count different calls in each run.
        program = parse_program("""
            p(X) :- z(X), y(X), not x(X), z(X).
            p(X) :- w(X), y(X), N = count(V : v(V)), N > 0.
        """)
        strat = stratify_program(program, by_component=True)
        stratum = compile_stratum(strat.strata[-1], strat.recursive)
        assert [(name.name, arity) for name, arity in stratum.reads] == [
            ("z", 1), ("y", 1), ("x", 1), ("w", 1), ("v", 1)]

    def test_result_unchanged_for_one_shot_evaluation(self):
        program = parse_program(self.PROGRAM)
        result = seminaive_evaluate(program)
        assert parse_term("reach(b)") in result.true


class TestInjectedDelta:
    def test_evaluate_stratum_resumes_from_delta(self):
        program = parse_program("""
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        """)
        strat = stratify_program(program, by_component=True)
        stratum = compile_stratum(strat.strata[0], strat.recursive)

        store = RelationStore()
        for text in ("e(a, b)", "e(b, c)"):
            store.add(parse_term(text))
        evaluate_stratum(stratum, store)
        assert parse_term("tc(a, c)") in store

        # A new edge arrived; the caller derived its one-step consequence
        # (the delta-site fact) and injects it.  Resumption derives exactly
        # the transitive consequences, nothing is recomputed.
        store.add(parse_term("e(c, d)"))
        seed = parse_term("tc(c, d)")
        store.add(seed)
        iterations, added = evaluate_stratum(stratum, store, seed_delta=[seed])
        assert set(added) == {parse_term("tc(b, d)"), parse_term("tc(a, d)")}
        assert iterations >= 1

    def test_empty_delta_is_a_noop(self):
        program = parse_program("p(X) :- q(X). q(a).")
        strat = stratify_program(program, by_component=True)
        stratum = compile_stratum(strat.strata[0], strat.recursive)
        store = RelationStore([parse_term("q(a)"), parse_term("p(a)")])
        iterations, added = evaluate_stratum(stratum, store, seed_delta=[])
        assert iterations == 0 and added == []


class TestPlanHelpers:
    def test_plan_satisfiable_from_the_head(self):
        rule = parse_rule("tc(X, Y) :- e(X, Z), tc(Z, Y).")
        plan = compile_rule(rule, from_head=True)
        store = RelationStore([
            parse_term("e(a, b)"), parse_term("tc(b, c)"),
        ])
        sources = PlanSources(store)
        assert plan_satisfiable(plan, sources, parse_term("tc(a, c)"))
        assert not plan_satisfiable(plan, sources, parse_term("tc(b, c)"))

    def test_run_plan_with_custom_sources(self):
        rule = parse_rule("p(X) :- q(X), not r(X).")
        plan = compile_rule(rule)
        store = RelationStore([parse_term("q(a)"), parse_term("q(b)"),
                               parse_term("r(b)")])

        class EverythingFalse(PlanSources):
            def holds(self, atom):
                return False  # negation-as-failure against an empty world

        assert sorted(map(repr, run_plan(plan, PlanSources(store)))) == ["p(a)"]
        assert sorted(map(repr, run_plan(plan, EverythingFalse(store)))) \
            == ["p(a)", "p(b)"]
