"""Per-check behavior on targeted programs: true positives with accurate
spans, and the false-positive guards the checks were designed around."""

from repro.db import DatabaseSession
from repro.lint import lint_source
from repro.workloads import (
    bicycle_parts_program,
    datahilog_game_program,
    hilog_closure_program,
    hilog_game_program,
    parts_explosion_program,
    transitive_closure_program,
)
from repro.lint.linter import lint_program


def codes(text):
    return [d.code for d in lint_source(text)]


def spans(text, code):
    return [
        (d.span.line, d.span.column)
        for d in lint_source(text)
        if d.code == code and d.span is not None
    ]


class TestSafety:
    def test_unsafe_head_variable(self):
        assert codes("q(a). p(X) :- q(Y).") == ["E101"]

    def test_unsafe_negation_span_points_at_literal(self):
        text = "q(a). r(a).\np(X) :- q(X), not r(Y)."
        assert spans(text, "E102") == [(2, 15)]

    def test_head_name_variables_satisfy_condition_two(self):
        # Definition 5.5 condition 2 allows negation variables bound by
        # the head *name*; the planner still flounders (E106), but the
        # rule is not E102-unsafe.
        report = lint_source("q(a). p(X)(y) :- not q(X).")
        assert [d.code for d in report.errors] == ["E106"]

    def test_nonground_fact(self):
        assert "E105" in codes("p(X).")

    def test_name_ordering_binds_predicate_variables(self):
        # closure(hilog)(X, Y): the higher-order TC program is the
        # paper's range-restricted showcase — no errors.
        report = lint_program(hilog_closure_program({"g": [("a", "b")]}))
        assert not report.has_errors()

    def test_unbound_predicate_name(self):
        assert "E103" in codes("q(a). p(X) :- q(X), Y(X).")


class TestStratification:
    def test_negation_cycle_is_warning_with_witness(self):
        report = lint_source(
            "move(a, b). move(b, a).\nwin(X) :- move(X, Y), not win(Y)."
        )
        [finding] = [d for d in report if d.code == "W501"]
        assert "win/1" in finding.message
        assert not report.has_errors()

    def test_example_6_3_cycles_through_its_name_pattern(self):
        # winning(M)/1 negates itself whatever M is: the engine serves it
        # three-valued where the move relation is cyclic, Figure 1 rejects.
        report = lint_program(hilog_game_program({"m": [("a", "b"), ("b", "a")]}))
        [finding] = [d for d in report if d.code == "W501"]
        assert "winning(M)/1 -[not]-> winning(M)/1" in finding.message
        assert not report.has_errors()

    def test_stratified_negation_is_clean(self):
        assert codes(
            "e(a, b). t(X, Y) :- e(X, Y). o(X, Y) :- e(X, Y), not t(Y, X)."
        ) == []

    def test_certain_aggregate_self_recursion_is_error(self):
        text = "base(a).\ntotal(X, N) :- base(X), N = sum(V : total(X, V))."
        assert spans(text, "E104") == [(2, 25)]

    def test_data_dependent_aggregate_recursion_is_warning(self):
        # The condition's first argument W is bound by the body, so the
        # ground instance can be acyclic (modular stratification).
        text = "next(a, b).\ns(X, N) :- next(X, W), N = sum(V : s(W, V))."
        report = lint_source(text)
        assert [d.code for d in report.errors] == []
        assert "W503" in [d.code for d in report]

    def test_parts_explosion_showcase_has_no_errors(self):
        for program in (bicycle_parts_program(),
                        parts_explosion_program(
                            {"m": {"rel": [("w", "p", 2)]}})):
            report = lint_program(program)
            assert not report.has_errors(), [d.code for d in report.errors]
            assert "W503" in [d.code for d in report]


class TestBinders:
    """W504: a name-open rule beside negation/aggregation the engine cannot
    specialise — the lint verdict and the session's mode agree."""

    CHAINED = ("registry(games). games(m). m(a, b).\n"
               "winning(M)(X) :- registry(R), R(M), M(X, Y), not winning(M)(Y).")

    def test_name_bound_through_another_name_variable(self):
        report = lint_source(self.CHAINED)
        [finding] = [d for d in report if d.code == "W504"]
        assert "binds M" in finding.message and "game(M)" in finding.hint
        assert (finding.span.line, finding.span.column) == (2, 1)
        assert not report.has_errors()
        assert DatabaseSession(self.CHAINED).mode == "recompute"

    def test_span_is_the_literal_when_the_head_name_is_ground(self):
        text = ("registry(games). games(m). m(a, b).\n"
                "won(X) :- registry(R), R(M), M(X, Y), not won(Y).")
        assert spans(text, "W504") == [(2, 30)]

    def test_guarded_rules_are_clean_and_run_on_the_engine(self):
        for program in (hilog_game_program({"m": [("a", "b")]}),
                        datahilog_game_program({"m": [("a", "b")]})):
            assert "W504" not in [d.code for d in lint_program(program)]
            assert DatabaseSession(program).mode == "wellfounded"

    def test_definite_programs_need_no_binder(self):
        assert "W504" not in codes("e(a, b). tc(R)(X, Y) :- R(X, Y).")

    def test_a_safety_error_is_not_repeated_as_a_warning(self):
        text = "m(a, b). winning(X) :- M(X, Y), not winning(Y)."
        found = codes(text)
        assert "E103" in found and "W504" not in found


class TestHygiene:
    def test_singleton_variables_reported_once_per_rule(self):
        report = lint_source("q(a, b). p(X) :- q(X, Extra).")
        [finding] = list(report)
        assert finding.code == "W201" and "Extra" in finding.message

    def test_underscore_prefix_suppresses_singleton(self):
        assert codes("q(a, b). p(X) :- q(X, _extra).") == []

    def test_duplicate_rule_alpha_equivalence(self):
        report = lint_source("q(a). p(X) :- q(X).\np(Y) :- q(Y).")
        assert [d.code for d in report] == ["W301"]

    def test_subsumed_rule(self):
        text = "q(a). r(a). p(X) :- q(X).\np(X) :- q(X), r(X)."
        assert spans(text, "W302") == [(2, 1)]

    def test_transitive_closure_is_not_subsumed(self):
        # tc(X,Z) :- e(X,Y), tc(Y,Z) shares a head and a first body
        # literal with tc(X,Y) :- e(X,Y) but is NOT an instance of it —
        # the guard against over-eager one-sided matching.
        report = lint_program(transitive_closure_program([("a", "b")]))
        assert [d.code for d in report] == []

    def test_arity_mismatch(self):
        assert "W303" in codes("q(a). q(a, b). p(X) :- q(X).")


class TestLiveness:
    def test_undefined_predicate(self):
        assert "W401" in codes("q(a). p(X) :- q(X), missing(X).")

    def test_unused_edb_relation(self):
        assert "W402" in codes("unused(a). q(b). p(X) :- q(X).")

    def test_fact_only_program_has_no_unused_warning(self):
        # A pure EDB (no proper rules) is a fact base, not dead code.
        assert codes("a(1). b(2).") == []

    def test_underivable_idb(self):
        assert "W403" in codes("q(a). p(X) :- q(X), missing(X).")

    def test_higher_order_reference_keeps_predicates_alive(self):
        # closure(P)(X, Y) :- P(X, Y): the non-ground name P may refer to
        # any binary relation, so no W402/W401 for edge/2.
        report = lint_program(hilog_closure_program({"g": [("a", "b")]}))
        assert "W402" not in [d.code for d in report]


class TestPlans:
    def test_cross_product_join(self):
        text = "q(a). r(b).\np(X, Y) :- q(X), r(Y)."
        assert spans(text, "W502") == [(2, 18)]

    def test_joined_literals_are_not_cross_products(self):
        assert codes("q(a, b). r(b, c). p(X, Z) :- q(X, Y), r(Y, Z).") == []

    def test_nonground_aggregate_name(self):
        assert "E107" in codes("q(a). p(N) :- q(V), N = sum(Z : V(Z)).")
