"""Tests for aggregate subgoal evaluation."""

import pytest

from repro.engine.aggregates import evaluate_aggregate, group_variables
from repro.engine.seminaive import seminaive_evaluate
from repro.hilog.errors import EvaluationError
from repro.hilog.parser import parse_program, parse_rule, parse_term
from repro.hilog.subst import Substitution
from repro.hilog.terms import Num, Sym, Var


def make_rule():
    return parse_rule("contains(Mach, X, Y, N) :- N = sum(P : in(Mach, X, Y, Z, P)).")


ATOMS = [
    parse_term("in(bike, bicycle, spoke, wheel, 94)"),
    parse_term("in(bike, bicycle, wheel, null, 2)"),
    parse_term("in(bike, wheel, spoke, null, 47)"),
    parse_term("in(bike, bicycle, spoke, other, 6)"),
]


class TestGroupVariables:
    def test_parts_explosion_grouping(self):
        rule = make_rule()
        spec = rule.aggregates[0]
        # Grouped by Mach, X, Y exactly as the paper states; P (the value) and
        # Z (appears nowhere else) are not grouping variables.
        assert group_variables(spec, rule) == {Var("Mach"), Var("X"), Var("Y")}


class TestEvaluateAggregate:
    def test_sum_groups(self):
        rule = make_rule()
        spec = rule.aggregates[0]
        results = evaluate_aggregate(spec, Substitution(), ATOMS,
                                     group_vars=group_variables(spec, rule))
        summary = {}
        for subst in results:
            key = (subst.apply(Var("X")), subst.apply(Var("Y")))
            summary[key] = subst.apply(Var("N"))
        assert summary[(Sym("bicycle"), Sym("spoke"))] == Num(100)
        assert summary[(Sym("bicycle"), Sym("wheel"))] == Num(2)
        assert summary[(Sym("wheel"), Sym("spoke"))] == Num(47)

    def test_sum_with_bound_group(self):
        rule = make_rule()
        spec = rule.aggregates[0]
        subst = Substitution({Var("X"): Sym("bicycle"), Var("Y"): Sym("spoke"),
                              Var("Mach"): Sym("bike")})
        results = evaluate_aggregate(spec, subst, ATOMS,
                                     group_vars=group_variables(spec, rule))
        assert len(results) == 1
        assert results[0].apply(Var("N")) == Num(100)

    def test_empty_group_yields_nothing(self):
        rule = make_rule()
        spec = rule.aggregates[0]
        subst = Substitution({Var("X"): Sym("nonexistent")})
        assert evaluate_aggregate(spec, subst, ATOMS,
                                  group_vars=group_variables(spec, rule)) == []

    def test_count_min_max(self):
        rule = parse_rule("s(X, N) :- N = count(P : q(X, P)).")
        spec = rule.aggregates[0]
        atoms = [parse_term("q(a, 5)"), parse_term("q(a, 7)"), parse_term("q(b, 1)")]
        results = evaluate_aggregate(spec, Substitution(), atoms,
                                     group_vars=group_variables(spec, rule))
        counts = {subst.apply(Var("X")): subst.apply(Var("N")) for subst in results}
        assert counts[Sym("a")] == Num(2)
        assert counts[Sym("b")] == Num(1)

        rule_min = parse_rule("s(X, N) :- N = min(P : q(X, P)).")
        results_min = evaluate_aggregate(rule_min.aggregates[0], Substitution(), atoms,
                                         group_vars=group_variables(rule_min.aggregates[0], rule_min))
        minima = {subst.apply(Var("X")): subst.apply(Var("N")) for subst in results_min}
        assert minima[Sym("a")] == Num(5)

        rule_max = parse_rule("s(X, N) :- N = max(P : q(X, P)).")
        results_max = evaluate_aggregate(rule_max.aggregates[0], Substitution(), atoms,
                                         group_vars=group_variables(rule_max.aggregates[0], rule_max))
        maxima = {subst.apply(Var("X")): subst.apply(Var("N")) for subst in results_max}
        assert maxima[Sym("a")] == Num(7)

    def test_bound_result_acts_as_filter(self):
        rule = parse_rule("s(X) :- 2 = count(P : q(X, P)).")
        spec = rule.aggregates[0]
        atoms = [parse_term("q(a, 5)"), parse_term("q(a, 7)"), parse_term("q(b, 1)")]
        results = evaluate_aggregate(spec, Substitution(), atoms,
                                     group_vars=group_variables(spec, rule))
        values = {subst.apply(Var("X")) for subst in results}
        assert values == {Sym("a")}

    def test_non_numeric_value_raises(self):
        rule = parse_rule("s(N) :- N = sum(P : q(P)).")
        spec = rule.aggregates[0]
        with pytest.raises(EvaluationError):
            evaluate_aggregate(spec, Substitution(), [parse_term("q(abc)")],
                               group_vars=set())

    def test_count_counts_non_numeric_values(self):
        """Only ``sum``, ``min`` and ``max`` fold numbers; ``count`` counts
        the matches, whatever their values."""
        rule = parse_rule("n(N) :- N = count(X : p(X)).")
        spec = rule.aggregates[0]
        results = evaluate_aggregate(
            spec, Substitution(), [parse_term("p(a)"), parse_term("p(b)")],
            group_vars=group_variables(spec, rule))
        assert [subst.apply(Var("N")) for subst in results] == [Num(2)]
        model = seminaive_evaluate(parse_program(
            "p(a). p(b). n(N) :- N = count(X : p(X))."))
        assert parse_term("n(2)") in model.true
