"""Tests for stratification (Def 6.1) and local stratification (Def 6.2)."""

import pytest

from repro.engine.grounding import ground_over_universe, relevant_ground_program
from repro.engine.seminaive import SeminaiveUnsupported, stratify_program
from repro.hilog.herbrand import normal_herbrand_universe
from repro.hilog.parser import parse_program, parse_term
from repro.lint import lint_program
from repro.normal.classify import PredicateSignature
from repro.normal.stratification import (
    is_locally_stratified_ground,
    is_stratified,
    local_stratification_levels,
    stratification_levels,
)


def ground_full(text):
    program = parse_program(text)
    return ground_over_universe(program, normal_herbrand_universe(program))


class TestStratification:
    def test_stratified_program(self):
        program = parse_program("p(X) :- q(X), not r(X). q(a). r(b).")
        assert is_stratified(program)
        levels = stratification_levels(program)
        assert levels[PredicateSignature("p", 1)] > levels[PredicateSignature("r", 1)]
        assert levels[PredicateSignature("p", 1)] >= levels[PredicateSignature("q", 1)]

    def test_win_move_not_stratified(self):
        # Example 6.1: winning depends negatively on itself.
        program = parse_program("winning(X) :- move(X, Y), not winning(Y). move(a, b).")
        assert not is_stratified(program)

    def test_positive_recursion_is_stratified(self):
        program = parse_program("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y). e(a, b).")
        assert is_stratified(program)

    def test_even_odd_not_stratified(self):
        program = parse_program("even(X) :- not odd(X). odd(X) :- not even(X). num(a).")
        assert not is_stratified(program)

    @pytest.mark.parametrize("sub_body, stratified", [
        ("uses(P, Q), cost(Q, C)", False),   # recursion through the aggregate
        ("uses(P, Q), price(Q, C)", True),   # its non-recursive variant
    ])
    def test_aggregation_stratifies_like_negation_in_every_analysis(
            self, sub_body, stratified):
        # Regression: aggregate-condition edges were labelled positive here,
        # so the recursive program answered "stratified" while the engine
        # refused it and lint warned about the same cycle.
        program = parse_program("""
            cost(P, N) :- part(P), N = sum(C : sub(P, Q, C)).
            sub(P, Q, C) :- %s.
            part(a). uses(a, b). price(b, 3).
        """ % sub_body)
        assert is_stratified(program) == stratified
        if stratified:
            levels = stratification_levels(program)
            assert levels[PredicateSignature("cost", 2)] > levels[PredicateSignature("sub", 3)]
            assert len(stratify_program(program).strata) == 2
        else:
            with pytest.raises(SeminaiveUnsupported, match="through aggregation"):
                stratify_program(program)
        cycle_codes = {d.code for d in lint_program(program)} & {"W501", "W503", "E104"}
        assert cycle_codes == (set() if stratified else {"W503"})

    def test_stratified_implies_levels_exist(self):
        program = parse_program("a :- not b. b :- not c. c.")
        levels = stratification_levels(program)
        assert levels is not None
        assert levels[PredicateSignature("a", 0)] > levels[PredicateSignature("b", 0)]
        assert levels[PredicateSignature("b", 0)] > levels[PredicateSignature("c", 0)]


class TestLocalStratification:
    def test_full_instantiation_of_game_is_not_locally_stratified(self):
        # Example 6.1: the full instantiation contains
        # winning(a) :- move(a, a), not winning(a), so even the acyclic game
        # is not locally stratified — the reduction modulo the move facts is.
        ground = ground_full("winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c).")
        assert not is_locally_stratified_ground(ground)

    def test_reduced_game_is_locally_stratified(self):
        # Deleting the false move subgoals (here: instantiating only against
        # the true move facts via relevant grounding) leaves a locally
        # stratified program when the move relation is acyclic.
        ground = relevant_ground_program(parse_program(
            "winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c)."
        ))
        assert is_locally_stratified_ground(ground)
        levels = local_stratification_levels(ground)
        assert levels is not None
        assert levels[parse_term("winning(a)")] > levels[parse_term("winning(b)")]

    def test_win_move_cyclic_is_not_locally_stratified(self):
        # With a cyclic move relation even the reduced program has a negative cycle.
        ground = relevant_ground_program(parse_program(
            "winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, a)."
        ))
        assert not is_locally_stratified_ground(ground)
        assert local_stratification_levels(ground) is None

    def test_relevant_grounding_version(self):
        ground = relevant_ground_program(parse_program(
            "winning(X) :- move(X, Y), not winning(Y). move(a, b). move(b, c)."
        ))
        assert is_locally_stratified_ground(ground)

    def test_instantiated_self_negation(self):
        ground = ground_full("p(a) :- not p(a).")
        assert not is_locally_stratified_ground(ground)

    def test_positive_cycle_is_fine(self):
        ground = ground_full("p(a) :- q(a). q(a) :- p(a).")
        assert is_locally_stratified_ground(ground)
