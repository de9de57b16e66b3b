"""Unit tests for the semi-naive alternating-fixpoint well-founded evaluator.

Exact true/undefined partitions on the known game shapes — even and odd
cycles (all undefined), lines (alternating, total), lines feeding into
cycles (undefinedness propagates up), cycles with escapes (total again) —
plus the Example 6.3 parameterized games, strata mixing, resource caps and
the ``strategy="seminaive"`` wiring of ``well_founded_for_hilog``.
"""

import pytest

from repro.core.modular import modularly_stratified_for_hilog, perfect_model_for_hilog
from repro.core.semantics import hilog_well_founded_model, well_founded_for_hilog
from repro.engine.seminaive import (
    EXECUTION_STATS,
    PlanSources,
    SeminaiveUnsupported,
    run_plan,
    seminaive_evaluate,
    seminaive_modular,
    seminaive_well_founded,
    seminaive_well_founded_detailed,
    stratify_program,
)
from repro.engine.seminaive.engine import Limits
from repro.engine.seminaive.relation import RelationStore
from repro.engine.seminaive.wellfounded import compile_strata, evaluate_strata
from repro.hilog.errors import GroundingError
from repro.hilog.parser import parse_program, parse_term
from repro.hilog.program import Program
from repro.obs.trace import EvaluationTracer, tracing
from repro.workloads.closure import datahilog_closure_program, hilog_closure_program
from repro.workloads.games import (
    composed_move_game_program,
    cycle_game_program,
    cycle_with_escape_game_program,
    datahilog_game_program,
    hilog_game_program,
    line_into_cycle_game_program,
    normal_game_program,
    two_hop_moves,
    win_move_partition,
)
from repro.workloads.graphs import chain_edges, cycle_edges, random_graph_edges


def _winning_partition(result, winning_name="winning"):
    """(true, undefined) node-name sets of the ``winning`` atoms."""
    def nodes(atoms):
        return {
            repr(atom.args[0])
            for atom in atoms
            if repr(atom).startswith(winning_name + "(")
        }
    return nodes(result.true), nodes(result.undefined)


class TestKnownUndefinedSets:
    @pytest.mark.parametrize("length", [2, 3, 4, 5, 8])
    def test_pure_cycles_are_fully_undefined(self, length):
        # Even *and* odd cycles: no sink means nothing is certainly losing,
        # so the well-founded model leaves every position undefined (parity
        # distinguishes the stable models, not the well-founded one).
        program, nodes = cycle_game_program(length)
        result = seminaive_well_founded(program)
        true, undefined = _winning_partition(result)
        assert true == set()
        assert undefined == set(nodes)
        assert not result.is_total()
        assert result.alternations >= 1

    def test_line_alternates_and_is_total(self):
        program = normal_game_program(chain_edges(6))
        result = seminaive_well_founded(program)
        true, undefined = _winning_partition(result)
        assert undefined == set()
        assert result.is_total()
        # n6 is the sink (loses), so the odd positions win the parity game.
        assert true == {"n1", "n3", "n5"}

    def test_line_into_cycle_is_fully_undefined(self):
        # Each line position's only move leads toward the cycle, so the
        # cycle's undefinedness propagates back up the entire line.
        program, line_nodes, cycle_nodes = line_into_cycle_game_program(4, 4)
        result = seminaive_well_founded(program)
        true, undefined = _winning_partition(result)
        assert true == set()
        assert undefined == set(line_nodes) | set(cycle_nodes)

    def test_cycle_with_escape_is_total(self):
        program, nodes = cycle_with_escape_game_program(2, escape_from=1)
        result = seminaive_well_founded(program)
        true, undefined = _winning_partition(result)
        assert undefined == set()
        # c1 escapes to the sink and wins; c0's only move reaches a winner.
        assert true == {"'c1'"} or true == {"c1"}
        assert result.is_total()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_cyclic_graphs_match_game_theoretic_reference(self, seed):
        edges = random_graph_edges(14, 26, seed=seed)
        program = normal_game_program(edges)
        result = seminaive_well_founded(program)
        winning, _losing, undefined = win_move_partition(edges)
        true_nodes, undefined_nodes = _winning_partition(result)
        assert true_nodes == set(winning)
        assert undefined_nodes == set(undefined)

    def test_composed_move_game_matches_reference(self):
        edges = cycle_edges(6) + [("c1", "x"), ("x", "y")]
        program = composed_move_game_program(edges)
        result = seminaive_well_founded(program)
        moves = two_hop_moves(edges)
        winning, _losing, undefined = win_move_partition(sorted(moves))
        true_nodes, undefined_nodes = _winning_partition(result)
        assert true_nodes == set(winning)
        assert undefined_nodes == set(undefined)
        # The derived move relation itself is certain (a stratified stratum).
        assert {a for a in result.undefined if repr(a).startswith("move(")} == set()


class TestParameterizedGames:
    """Example 6.3's games have variable predicate names inside negation:
    the walk specialises the rule by its binder ``game(M)`` and alternates
    on the instances — no grounding, and exact agreement with the oracle."""

    GAMES = {"m1": cycle_edges(3, "a"), "m2": chain_edges(3, "b")}

    def test_hilog_game_runs_on_the_engine_and_agrees(self):
        program = hilog_game_program(self.GAMES)
        result = seminaive_well_founded(program)
        oracle = well_founded_for_hilog(program)
        assert result.true == oracle.true
        assert result.undefined == oracle.undefined
        # The a-cycle game is undefined, the b-line game resolves.
        assert parse_term("winning(m1)(a0)") in result.undefined
        assert parse_term("winning(m2)(b0)") in result.true
        # The instances are the one (alternating) stratum walked; the
        # stratified entry point still refuses.
        assert result.strata == (
            frozenset({parse_term("winning(m1)"), parse_term("winning(m2)")}),
        )
        with pytest.raises(SeminaiveUnsupported):
            seminaive_evaluate(program)

    def test_datahilog_game_runs_on_the_engine_and_agrees(self):
        program = datahilog_game_program(self.GAMES)
        result = seminaive_well_founded(program)
        fast = well_founded_for_hilog(program, strategy="seminaive")
        oracle = well_founded_for_hilog(program)
        assert result.true == fast.true == oracle.true
        assert result.undefined == fast.undefined == oracle.undefined
        assert parse_term("winning(m1, a1)") in fast.undefined
        assert parse_term("winning(m2, b0)") in fast.true


class TestNameOpenRules:
    """``compile_strata(allow_unstratified=True)`` sets name-open rules
    aside with a binder plan; ``evaluate_strata`` runs Figure 1's loop
    around the walk."""

    LIMITS = Limits()

    def test_binder_answers_come_from_a_counted_plan(self):
        program = hilog_game_program({"m1": chain_edges(3), "m2": chain_edges(2)})
        compiled = compile_strata(program, allow_unstratified=True)
        (open_rule,) = compiled.open_rules
        assert [repr(v) for v in open_rule.variables] == ["M"]
        assert repr(open_rule.plan.rule) == "'$binder'(M) :- game(M)."
        before = EXECUTION_STATS.snapshot()
        store = RelationStore(rule.head for rule in program.facts())
        answers = run_plan(open_rule.plan, PlanSources(store))
        assert sorted(map(repr, answers)) == ["'$binder'(m1)", "'$binder'(m2)"]
        assert EXECUTION_STATS.diff(before)["fetches"] == 1

    def test_a_rule_with_no_binder_is_refused_at_compile_time(self):
        for text in (
            "tc(R)(X, Y) :- R(X, Y). p :- not q. e(a, b).",
            "w(M)(X) :- M(X, Y), not w(M)(Y). m(a, b).",
            # ``not game(M)`` binds nothing; ``M = m`` is a builtin
            "w(M)(X) :- not game(M), M(X, Y). m(a, b).",
        ):
            with pytest.raises(SeminaiveUnsupported, match="binds"):
                compile_strata(parse_program(text), allow_unstratified=True)

    def test_definite_programs_keep_their_name_open_rules(self):
        program = parse_program("tc(R)(X, Y) :- R(X, Y). e(a, b).")
        compiled = compile_strata(program, allow_unstratified=True)
        assert compiled.open_rules == () and len(compiled.strata) == 1

    def test_example_6_5_resettled_head_is_refused(self):
        program = parse_program("""
            winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
            game(move1).
            provide(move1(a, b)) :- not winning(move1)(b).
            X :- provide(X).
        """)
        with pytest.raises(SeminaiveUnsupported, match="re-settled"):
            seminaive_well_founded(program)
        assert not modularly_stratified_for_hilog(program).is_modularly_stratified

    def test_statically_known_resettled_head_is_refused_at_compile_time(self):
        # ``in/2`` is read by a closed rule and defined by a name-open one:
        # no EDB makes that walkable, so the mode probe must see it.
        program = parse_program("""
            in(M, X) :- assoc(M, P), P(X).
            total(M, N) :- assoc(M, P), N = count(X : in(M, X)).
        """)
        with pytest.raises(SeminaiveUnsupported, match="re-settled"):
            compile_strata(program, allow_unstratified=True)

    def test_variable_head_resolved_by_a_second_open_rule(self):
        program = parse_program("""
            winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
            game(move1).
            X :- supplies(X).
            supplies(move1(a, b)). supplies(move1(b, c)).
        """)
        result = seminaive_well_founded(program)
        assert result.true == perfect_model_for_hilog(program).true
        assert parse_term("winning(move1)(b)") in result.true

    def test_a_binder_defined_by_an_instance_takes_a_second_round(self):
        program = parse_program("""
            winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
            G :- enabled(G).
            enabled(game(m)). m(a, b). m(b, c).
        """)
        tracer = EvaluationTracer()
        with tracing(tracer):
            result = seminaive_well_founded(program)
        assert [e["round"] for e in tracer.events("specialise")] == [0, 1]
        # Figure 1 settles ``game`` as universally false before ``G :-
        # enabled(G).`` is reduced and rejects; the well-founded model is
        # total all the same, and the walk computes it.
        assert not modularly_stratified_for_hilog(program).is_modularly_stratified
        oracle = well_founded_for_hilog(program)
        assert (result.true, result.undefined) == (oracle.true, frozenset())
        assert parse_term("winning(m)(b)") in result.true

    def test_undefined_binder_atoms_stay_three_valued(self):
        program = parse_program("""
            game(M) :- candidate(M), not rival(M).
            rival(M) :- candidate(M), not game(M).
            winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
            candidate(m). m(a, b).
        """)
        result = seminaive_well_founded(program)
        oracle = well_founded_for_hilog(program)
        assert result.true == oracle.true
        assert result.undefined == oracle.undefined
        assert parse_term("winning(m)(a)") in result.undefined

    def test_the_last_specialisation_is_memoised_by_binder_answers(self):
        program = hilog_game_program({"m1": chain_edges(3), "m2": chain_edges(2)})
        rules = Program(tuple(program.proper_rules()))
        facts = sorted((rule.head for rule in program.facts()), key=repr)
        compiled = compile_strata(rules, allow_unstratified=True)
        first = evaluate_strata(compiled, facts, self.LIMITS)
        (answers, strata), = compiled.rounds
        # an edge write: same binder answers, same plans
        evaluate_strata(compiled, facts + [parse_term("m1(n9, n0)")], self.LIMITS)
        assert compiled.rounds[0][1] is strata
        # a binder write: one recompile, the new game is walked
        more = facts + [parse_term("game(m3)"), parse_term("m3(a, b)")]
        tracer = EvaluationTracer()
        with tracing(tracer):
            grown = evaluate_strata(compiled, more, self.LIMITS)
            evaluate_strata(compiled, more, self.LIMITS)
        assert len(tracer.events("specialise")) == 1
        assert compiled.rounds[0][1] is not strata
        assert parse_term("winning(m3)(a)") in grown.true
        # and back: the memo holds the last specialisation only
        again = evaluate_strata(compiled, facts, self.LIMITS)
        assert again.true == first.true and len(compiled.rounds) == 1

    def test_instances_count_against_max_facts(self):
        """Two binder literals over three ``rel`` facts: nine instances,
        so the instance cap trips where the facts still fit."""
        program = parse_program(
            "on(P, Q)(X) :- rel(P), rel(Q), P(X), not off(X).\n"
            + " ".join("rel(r%d)." % i for i in range(3))
        )
        assert seminaive_well_founded(program, max_facts=9).true
        with pytest.raises(GroundingError, match="instances|distinct heads"):
            seminaive_well_founded(program, max_facts=8)


class TestStrataMixing:
    def test_stratified_stratum_above_undefined_atoms(self):
        program = parse_program("""
            win(X) :- move(X, Y), not win(Y).
            move(a, b). move(b, a).
            node(a). node(c).
            safe(X) :- node(X), not win(X).
            doubt(X) :- node(X), win(X).
        """)
        result = seminaive_well_founded(program)
        assert parse_term("safe(c)") in result.true        # win(c) is false
        assert parse_term("safe(a)") in result.undefined   # win(a) undefined
        assert parse_term("doubt(a)") in result.undefined  # positive reads too
        assert parse_term("doubt(c)") not in result.true | result.undefined

    def test_stratified_program_never_alternates(self):
        program = parse_program("""
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            top(X) :- e(X, Y), not tc(Y, X).
            e(a, b). e(b, c).
        """)
        result = seminaive_well_founded(program)
        assert result.alternations == 0
        assert result.is_total()
        assert result.true == seminaive_evaluate(program).true

    def test_builtins_inside_the_alternating_stratum(self):
        program = parse_program("""
            win(X) :- move(X, Y), not win(Y), X < 10.
            move(1, 2). move(2, 1). move(11, 12). move(12, 11).
        """)
        result = seminaive_well_founded(program)
        assert parse_term("win(1)") in result.undefined
        assert parse_term("win(2)") in result.undefined
        # 11/12 fail the guard in every phase: false, not undefined.
        assert parse_term("win(11)") not in result.true | result.undefined

    def test_cascaded_negation_sccs_through_undefined_moves(self):
        # Two negation-SCCs at different levels; the upper game's move
        # relation is gated by negation over the *lower* game's undefined
        # atoms, so undefinedness threads through a stratified stratum into
        # a second alternation.
        program = parse_program("""
            win1(X) :- m1(X, Y), not win1(Y).
            m1(a, b). m1(b, a). m1(c, d).
            m2(X, Y) :- bridge(X, Y), not win1(X).
            bridge(u, v). bridge(v, u). bridge(a, u).
            win2(X) :- m2(X, Y), not win2(Y).
        """)
        result = seminaive_well_founded(program)
        oracle = hilog_well_founded_model(program)
        assert result.true == oracle.true
        assert result.undefined == oracle.undefined
        # The derived move m2(a, u) itself is undefined (win1(a) is), and
        # the u/v game is undefined on its own cycle.
        assert parse_term("m2(a, u)") in result.undefined
        assert parse_term("win2(u)") in result.undefined
        assert parse_term("win1(c)") in result.true

    def test_two_negated_subgoals_proven_in_the_same_alternation(self):
        # a(1) and b(1) are proven together, and each kills the one
        # instance that kept p(1) possibly true.  The overestimate is
        # patched, not rebuilt: a patch that looks for the dying instance
        # with its *other* negation read against the new underestimate
        # finds it from neither atom and leaves p(1) undefined.
        program = parse_program("""
            p(X) :- n(X), not a(X), not b(X).
            a(X) :- n(X), not c(X).
            b(X) :- n(X), not c(X).
            c(X) :- n(X), not p(X), z(X).
            n(1). z(2).
        """)
        result = seminaive_well_founded(program)
        oracle = well_founded_for_hilog(program, strategy="ground")
        assert result.true == oracle.true
        assert result.undefined == oracle.undefined == frozenset()
        assert parse_term("p(1)") not in result.true
        assert result.alternations == 2

    def test_detailed_result_uses_shared_type(self):
        program, _nodes = cycle_game_program(4)
        detailed = seminaive_well_founded_detailed(program)
        assert detailed.engine == "seminaive"
        assert detailed.alternations >= 1
        assert detailed.iterations >= detailed.alternations
        oracle = hilog_well_founded_model(program)
        assert detailed.interpretation.true == oracle.true
        assert detailed.interpretation.undefined == oracle.undefined


class TestStratifyUnstratified:
    def test_negation_scc_is_reported_not_raised(self):
        program, _nodes = cycle_game_program(3)
        with pytest.raises(SeminaiveUnsupported):
            stratify_program(program)
        stratification = stratify_program(program, allow_unstratified=True)
        assert len(stratification.unstratified) == 1
        index = next(iter(stratification.unstratified))
        heads = {repr(rule.head_predicate()) for rule in stratification.strata[index]}
        assert heads == {"winning"}

    def test_aggregation_cycle_still_raises(self):
        program = parse_program("""
            total(X, N) :- item(X), N = count(Y : total(Y, M)).
            item(a).
        """)
        with pytest.raises(SeminaiveUnsupported):
            stratify_program(program, allow_unstratified=True)

    def test_aggregation_over_undefined_atoms_raises(self):
        program = parse_program("""
            win(X) :- move(X, Y), not win(Y).
            move(a, b). move(b, a).
            tally(N) :- go, N = count(X : win(X)).
            go.
        """)
        with pytest.raises(SeminaiveUnsupported):
            seminaive_well_founded(program)


class TestResourceCaps:
    def test_max_facts_cap_trips(self):
        program, _nodes = cycle_game_program(30)
        with pytest.raises(GroundingError):
            seminaive_well_founded(program, max_facts=10)

    def test_non_ground_fact_rejected(self):
        program = parse_program("win(X) :- move(X, Y), not win(Y). move(a, b).")
        with pytest.raises(GroundingError):
            seminaive_well_founded(program, extra_facts=(parse_term("move(a, Z)"),))


class TestWellFoundedForHilog:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            well_founded_for_hilog(parse_program("p."), strategy="bogus")

    def test_ground_strategy_is_the_oracle(self):
        program, _nodes = cycle_game_program(4)
        oracle = well_founded_for_hilog(program)
        assert oracle.undefined == hilog_well_founded_model(program).undefined

    def test_explicit_universe_uses_the_grounding_path(self):
        # A universe override is a grounding-path concept; the seminaive
        # strategy must defer to it rather than silently ignore it.
        program = parse_program("p(X) :- q(X), not r(X). q(a).")
        constants = [parse_term("a"), parse_term("b")]
        fast = well_founded_for_hilog(
            program, strategy="seminaive", grounding="universe",
            universe=constants,
        )
        oracle = well_founded_for_hilog(
            program, grounding="universe", universe=constants,
        )
        assert fast.true == oracle.true
        assert fast.base == oracle.base


class TestModularVerdict:
    """``seminaive_modular``: the walk's model with Figure 1's verdict."""

    def test_total_and_locally_stratified_is_accepted(self):
        program = hilog_game_program({"m": [("a", "b"), ("b", "c")]})
        result, reason = seminaive_modular(program)
        assert reason is None
        assert result.is_total()
        assert parse_term("winning(m)(b)") in result.true

    def test_partial_model_is_refuted_by_theorem_6_1(self):
        result, reason = seminaive_modular(cycle_game_program(3)[0])
        assert result.undefined
        assert "Theorem 6.1" in reason

    @pytest.mark.parametrize("text", [
        # Figure 1 folds over the aggregate's own component.
        "e(v, 1). q(c). total(N) :- q(X), N = sum(P : e(Y, P)).",
        # p/1 and p/2 are one component to Figure 1.
        "p(a, a). p(b) :- not p(a, a). p(d) :- p(b), not p(d).",
        # Figure 1 settles p with its fact before the instance p(b) exists.
        "p(a). X(b) :- q(X). q(p).",
        # The binder b depends on the head h it binds.
        "h(X) :- b(G), G(X). b(X) :- c(G), G(X), h(X). c(k). k(a).",
        # Two binder names: Figure 1 meets h(k) at two different times.
        "h(G)(X) :- p(G), G(X). h(G)(X) :- c(G), G(X). p(X) :- c(X). c(k). "
        "k(a).",
    ])
    def test_where_the_order_or_components_differ_the_walk_declines(self, text):
        with pytest.raises(SeminaiveUnsupported):
            seminaive_modular(parse_program(text))

    @pytest.mark.parametrize("build", [
        datahilog_closure_program, hilog_closure_program,
    ])
    def test_a_definite_program_is_specialised_by_its_binder(self, build):
        # No negation, so no instance is checked for local stratification;
        # the open names are specialised by graph(G) as beside negation.
        program = build({"g": [("a", "b"), ("b", "c")]})
        result, reason = seminaive_modular(program)
        assert reason is None and result.is_total()
        assert len(result.walk) == 1 and result.alternations == 0
