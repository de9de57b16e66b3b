"""Tests for modular stratification for HiLog (Section 6, Figure 1)."""

import pytest

from repro.core import modular
from repro.core.modular import (
    hilog_reduction,
    is_modularly_stratified_for_hilog,
    modularly_stratified_for_hilog,
    perfect_model_for_hilog,
)
from repro.core.semantics import hilog_well_founded_model
from repro.engine import grounding
from repro.engine import wellfounded as ground_wellfounded
from repro.engine.stable import stable_models
from repro.engine.grounding import relevant_ground_program
from repro.hilog.errors import StratificationError
from repro.hilog.parser import parse_program, parse_rule, parse_term
from repro.hilog.terms import Sym
from repro.normal.modular import modular_stratification
from repro.workloads.closure import datahilog_closure_program, hilog_closure_program
from repro.workloads.games import hilog_game_program, normal_game_program
from repro.workloads.graphs import chain_edges, cycle_edges, random_dag_edges


STRATEGIES = ("ground", "seminaive")

EXAMPLE_63 = parse_program("""
    winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
    game(move1). game(move2).
    move1(a, b). move1(b, c).
    move2(x, y).
""")


class TestExample63:
    def test_is_modularly_stratified(self):
        result = modularly_stratified_for_hilog(EXAMPLE_63)
        assert result.is_modularly_stratified
        assert result.model.is_total()

    def test_two_rounds(self):
        result = modularly_stratified_for_hilog(EXAMPLE_63)
        # Round 1 settles the facts (game, move1, move2); round 2 settles the
        # two instantiated winning(move_i) components.
        assert len(result.rounds) == 2
        assert Sym("game") in result.rounds[0]

    def test_winning_positions(self):
        model = perfect_model_for_hilog(EXAMPLE_63)
        assert model.is_true(parse_term("winning(move1)(b)"))
        assert model.is_false(parse_term("winning(move1)(a)"))
        assert model.is_false(parse_term("winning(move1)(c)"))
        assert model.is_true(parse_term("winning(move2)(x)"))
        assert model.is_false(parse_term("winning(move2)(y)"))

    def test_theorem_6_1_unique_stable_model(self):
        # The total well-founded model is the unique stable model.
        model = perfect_model_for_hilog(EXAMPLE_63)
        ground = relevant_ground_program(EXAMPLE_63)
        stables = stable_models(ground)
        assert len(stables) == 1
        assert stables[0].true == model.true

    def test_matches_well_founded_semantics(self):
        model = perfect_model_for_hilog(EXAMPLE_63)
        wfs = hilog_well_founded_model(EXAMPLE_63)
        assert model.true == wfs.true

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_cyclic_game_rejected(self, strategy):
        program = hilog_game_program({"m": cycle_edges(3)})
        result = modularly_stratified_for_hilog(program, strategy=strategy)
        assert not result.is_modularly_stratified


class TestExample64:
    PROGRAM = parse_program("""
        p(X) :- t(X, Y, Z, p), not p(Y), not p(Z).
        t(a, b, a, p).
        t(e, a, b, p).
        p(b) :- t(X, Y, b, p).
    """)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_not_modularly_stratified(self, strategy):
        result = modularly_stratified_for_hilog(self.PROGRAM, strategy=strategy)
        assert not result.is_modularly_stratified
        assert "locally stratified" in result.reason

    def test_but_well_founded_model_is_total(self):
        # The paper notes the program nevertheless has a two-valued
        # well-founded model with p(b) true and p(a) false.
        model = hilog_well_founded_model(self.PROGRAM)
        assert model.is_true(parse_term("p(b)"))
        assert model.is_false(parse_term("p(a)"))
        assert model.is_total()

    def test_perfect_model_raises(self):
        with pytest.raises(StratificationError):
            perfect_model_for_hilog(self.PROGRAM)


class TestExample65Style:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_settled_head_conflict_is_rejected(self, strategy):
        # A rule whose head becomes a predicate that was already settled (as
        # universally false) in an earlier round — the conservative rejection
        # discussed in Example 6.5.
        program = parse_program("""
            winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
            game(move1).
            provide(move1(a, b)) :- not winning(move1)(b).
            X :- provide(X).
        """)
        result = modularly_stratified_for_hilog(program, strategy=strategy)
        assert not result.is_modularly_stratified
        assert "already settled" in result.reason

    def test_variable_head_resolved_early_is_accepted(self):
        # When the variable-headed rule can be reduced before its head name is
        # needed, the program is accepted and the facts flow through.
        program = parse_program("""
            winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
            game(move1).
            X :- supplies(X).
            supplies(move1(a, b)). supplies(move1(b, c)).
        """)
        result = modularly_stratified_for_hilog(program)
        assert result.is_modularly_stratified
        assert result.model.is_true(parse_term("winning(move1)(b)"))
        assert result.model.is_false(parse_term("winning(move1)(a)"))

    def test_no_rules_for_lowest_name_means_universally_false(self):
        # The paper's post-6.5 example: the only rules mention p in a body,
        # there are no rules with head p, so p is settled as universally false
        # and the remaining rule reduces away.
        program = parse_program("Q(a) :- p(Q), not Q(b).")
        result = modularly_stratified_for_hilog(program)
        assert result.is_modularly_stratified
        assert not result.model.true


class TestLemma62:
    """Modular stratification for HiLog specializes to Ross'90 modular
    stratification on normal programs."""

    @pytest.mark.parametrize("edges,expected", [
        (chain_edges(4), True),
        (chain_edges(7), True),
        (cycle_edges(3), False),
        (cycle_edges(4), False),
    ])
    def test_same_verdict_on_games(self, edges, expected):
        program = normal_game_program(edges)
        assert modular_stratification(program).is_modularly_stratified is expected
        assert is_modularly_stratified_for_hilog(program) is expected

    def test_same_model_on_acyclic_game(self):
        program = normal_game_program(chain_edges(5))
        normal_result = modular_stratification(program)
        hilog_result = modularly_stratified_for_hilog(program)
        assert hilog_result.is_modularly_stratified
        assert normal_result.model.true == hilog_result.model.true

    def test_stratified_program(self):
        program = parse_program("p(X) :- q(X), not r(X). q(a). q(b). r(b).")
        assert is_modularly_stratified_for_hilog(program)
        model = perfect_model_for_hilog(program)
        assert model.is_true(parse_term("p(a)"))
        assert model.is_false(parse_term("p(b)"))


class TestHiLogReduction:
    def test_reduction_instantiates_and_deletes_settled_subgoals(self):
        rule = parse_rule("winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).")
        settled_names = {Sym("game"), Sym("move1")}
        settled_true = {parse_term("game(move1)"), parse_term("move1(a, b)")}
        reduced = hilog_reduction([rule], settled_names, settled_true)
        assert len(reduced) == 1
        (reduced_rule,) = reduced
        assert reduced_rule.head == parse_term("winning(move1)(a)")
        assert [repr(lit) for lit in reduced_rule.body] == ["not winning(move1)(b)"]

    def test_reduction_drops_rules_with_false_settled_subgoals(self):
        rule = parse_rule("p(X) :- q(X), r(X).")
        reduced = hilog_reduction([rule], {Sym("q"), Sym("r")}, {parse_term("q(a)")})
        assert reduced == ()

    def test_reduction_handles_ground_negative_settled_literals(self):
        rule = parse_rule("p(X) :- q(X), not r(X).")
        reduced = hilog_reduction(
            [rule], {Sym("q"), Sym("r")}, {parse_term("q(a)"), parse_term("q(b)"), parse_term("r(a)")}
        )
        heads = {r.head for r in reduced}
        assert heads == {parse_term("p(b)")}
        assert all(not r.body for r in reduced)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_left_to_right_option_runs(self, strategy):
        result = modularly_stratified_for_hilog(
            EXAMPLE_63, left_to_right=True, strategy=strategy)
        assert result.is_modularly_stratified
        assert len(result.rounds) == 2  # Figure 1's own loop, not the walk


def _same_verdict(program):
    """Both strategies' verdicts on ``program``, required equal with the
    same true atoms; returns the seminaive one."""
    ground = modularly_stratified_for_hilog(program)
    fast = modularly_stratified_for_hilog(program, strategy="seminaive")
    assert fast.is_modularly_stratified is ground.is_modularly_stratified
    if ground.is_modularly_stratified:
        assert fast.model.true == ground.model.true
    return fast


class TestVerdictFromTheWalk:
    """Figure 1's verdict where the well-founded model is total but a
    component's reduction is not locally stratified, and the relevance
    instantiation that decides it is not the first alternation's
    overestimate (which reads the component's negation against the true
    atoms)."""

    @pytest.mark.parametrize("text", [
        # The overestimate blocks ``q :- not p``: no cycle would be seen.
        "p :- not q. q :- not p. p.",
        # The overestimate never reaches p(c)'s negative self-loop.
        "p(a). p(b) :- not p(a). p(c) :- p(b), not p(c).",
        # A negated lower atom bound only by a component subgoal: Figure 1's
        # relevance closure ignores it, so p(c) still reaches its self-loop.
        "r(a). p(a). p(c) :- p(X), not r(X), not p(c).",
    ])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_total_model_rejected(self, text, strategy):
        program = parse_program(text)
        assert hilog_well_founded_model(program).is_total()
        result = modularly_stratified_for_hilog(program, strategy=strategy)
        assert not result.is_modularly_stratified
        assert "locally stratified" in result.reason

    def test_lower_negation_the_reduction_evaluates_prunes(self):
        # not r(X) is ground once e(X) is matched: the reduction drops the
        # instance for X = a, so p(c)'s self-loop is never instantiated.
        result = _same_verdict(parse_program(
            "r(a). p(a). e(a). p(c) :- e(X), not r(X), not p(c)."))
        assert result.is_modularly_stratified

    def test_components_sharing_a_stratum_settle_in_turn(self):
        # s/1 reads p/1 in the same walk stratum, but Figure 1 settles p
        # first and s(a) :- p(a), not s(a) dies with the false p(a).
        result = _same_verdict(parse_program(
            "g. p(a) :- not p(b). p(b) :- g. s(a) :- p(a), not s(a)."))
        assert result.is_modularly_stratified
        assert not result.model.is_true(parse_term("s(a)"))

    def test_a_cycle_the_reduction_breaks_is_figure_1s_to_decide(self):
        # b, q and p are one component of the rules, but the empty c kills
        # b's rule in Figure 1's first reduction: q settles true before p,
        # and p(q)'s negative self-loop dies with not q(q).
        result = _same_verdict(parse_program("""
            b(q). r(a).
            b(X) :- r(X), c(X), p(X).  c(X) :- c(X).
            q(X) :- b(X).  p(X) :- q(X), not q(X), not p(X).
        """))
        assert result.is_modularly_stratified

    def test_a_name_with_two_arities_is_one_component(self):
        # Figure 1 settles p/1 and p/2 together, so p(b) :- not p(a, a) is
        # instantiated and feeds p(d)'s self-loop.
        result = _same_verdict(parse_program(
            "p(a, a). p(b) :- not p(a, a). p(d) :- p(b), not p(d)."))
        assert not result.is_modularly_stratified

    @pytest.mark.parametrize("program", [
        EXAMPLE_63,
        hilog_game_program({"m": random_dag_edges(120, 300, seed=7)}),
        datahilog_closure_program({"g": chain_edges(30)}),
        hilog_closure_program({"g": chain_edges(30)}),
    ], ids=["example-6.3", "game-dag-120", "datahilog-closure",
            "hilog-closure"])
    def test_seminaive_verdict_grounds_nothing(self, program, monkeypatch):
        ground = modularly_stratified_for_hilog(program)

        def refuse(*_args, **_kwargs):
            raise AssertionError("the seminaive verdict grounded")

        for module, name in ((modular, "relevant_ground_program"),
                             (grounding, "relevant_ground_program"),
                             (modular, "hilog_reduction"),
                             (modular, "well_founded_model"),
                             (ground_wellfounded, "well_founded_model")):
            monkeypatch.setattr(module, name, refuse)
        fast = modularly_stratified_for_hilog(program, strategy="seminaive")
        assert fast.is_modularly_stratified and ground.is_modularly_stratified
        assert fast.model.true == ground.model.true


class TestNameOpenOrder:
    """Programs whose name-open rules Figure 1 reduces in another order than
    the walk specialises them: the walk declines and the verdict is Figure
    1's own, with or without a negation elsewhere in the program."""

    @pytest.mark.parametrize("negation", ["", " r :- not s."])
    @pytest.mark.parametrize("text, accepted", [
        # The binder b depends on the head h it binds (b has no atoms).
        ("h(X) :- b(G), G(X). b(X) :- c(G), G(X), h(X). c(k). k(a).", False),
        # ... and has atoms, which the walk finds in a single round.
        ("h(X) :- b(G), G(X). b(Y) :- c(G), G(Y), h(Y). b(k). k(k). c(j). "
         "j(k).", False),
        # Figure 1 settles p with its fact before the instance p(b) exists.
        ("p(a). X(b) :- q(X). q(p).", False),
        # h(q) is defined by instances Figure 1 meets in two rounds.
        ("h(G)(X) :- p(G), G(X). h(G)(X) :- c(G), G(X). p(X) :- c(X). "
         "c(q). q(k).", False),
        # s(q) reads h(q) before Figure 1 has met h(q)'s instance.
        ("h(G)(X) :- c(G), G(X). s(G)(X) :- p(G), G(X), h(G)(X). "
         "c(X) :- k(X). p(q). k(q). q(a).", False),
        # One binder name: every instance is met at once.
        ("h(G)(X) :- p(G), G(X). s(G)(X) :- p(G), G(X), h(G)(X). p(q). "
         "q(a).", True),
    ])
    def test_strategies_agree(self, text, accepted, negation):
        result = _same_verdict(parse_program(text + negation))
        assert result.is_modularly_stratified is accepted


#: E5's programs beyond Examples 6.3 / 6.4 and the cyclic game, which the
#: classes above run under both strategies.
E5_PROGRAMS = {
    "lemma-6.2-dag-20": hilog_game_program({"m": random_dag_edges(20, 40, seed=20)}),
    "normal-dag-20": normal_game_program(random_dag_edges(20, 40, seed=20)),
    "chain-games-12": hilog_game_program({
        "m%d" % index: chain_edges(15, "m%d_" % index) for index in range(12)}),
}


@pytest.mark.parametrize("name", sorted(E5_PROGRAMS))
def test_strategies_agree_on_e5_programs(name):
    _same_verdict(E5_PROGRAMS[name])
