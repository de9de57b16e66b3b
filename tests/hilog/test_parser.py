"""Tests for the HiLog parser."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hilog.errors import ParseError
from repro.hilog.parser import parse_program, parse_query, parse_rule, parse_term
from repro.hilog.program import AggregateSpec, Literal
from repro.hilog.terms import App, CONS, NIL, Num, Sym, Var


class TestTerms:
    def test_symbol(self):
        assert parse_term("abc") == Sym("abc")

    def test_variable(self):
        assert parse_term("X") == Var("X")
        assert parse_term("Rest") == Var("Rest")

    def test_number(self):
        assert parse_term("42") == Num(42)

    def test_quoted_atom(self):
        assert parse_term("'hello world'") == Sym("hello world")

    def test_simple_application(self):
        assert parse_term("p(a, X)") == App(Sym("p"), (Sym("a"), Var("X")))

    def test_zero_arity_application(self):
        assert parse_term("p()") == App(Sym("p"), ())
        assert parse_term("p()") != Sym("p")

    def test_nested_application(self):
        term = parse_term("tc(G)(X, Y)")
        assert term == App(App(Sym("tc"), (Var("G"),)), (Var("X"), Var("Y")))

    def test_variable_as_predicate_name(self):
        assert parse_term("G(X, Y)") == App(Var("G"), (Var("X"), Var("Y")))

    def test_triple_application(self):
        term = parse_term("p(a, X)(Y)(b)")
        inner = App(Sym("p"), (Sym("a"), Var("X")))
        middle = App(inner, (Var("Y"),))
        assert term == App(middle, (Sym("b"),))

    def test_complex_paper_atom(self):
        # p(a, X)(Y)(b, f(c)(d)) from Section 2 of the paper.
        term = parse_term("p(a, X)(Y)(b, f(c)(d))")
        assert term.args[1] == App(App(Sym("f"), (Sym("c"),)), (Sym("d"),))

    def test_list_syntax(self):
        assert parse_term("[]") == NIL
        assert parse_term("[a]") == App(CONS, (Sym("a"), NIL))
        assert parse_term("[a, b]") == App(CONS, (Sym("a"), App(CONS, (Sym("b"), NIL))))

    def test_list_with_tail(self):
        assert parse_term("[X | R]") == App(CONS, (Var("X"), Var("R")))

    def test_arithmetic_expression(self):
        assert parse_term("P * M") == App(Sym("*"), (Var("P"), Var("M")))
        assert parse_term("1 + 2 * 3") == App(Sym("+"), (Num(1), App(Sym("*"), (Num(2), Num(3)))))

    def test_parenthesized_expression(self):
        assert parse_term("(1 + 2) * 3") == App(Sym("*"), (App(Sym("+"), (Num(1), Num(2))), Num(3)))

    def test_anonymous_variables_are_distinct(self):
        term = parse_term("p(_, _)")
        assert term.args[0] != term.args[1]

    def test_anonymous_variables_distinct_across_parses(self):
        # Regression: with hash-consed terms, a per-parser ``_Anon%d``
        # counter made the first ``_`` of every independent parse the very
        # same ``Var`` object, silently aliasing anonymous variables in
        # fragments combined from separate parse calls.
        first = parse_term("p(_)")
        second = parse_term("q(_)")
        assert first.args[0] is not second.args[0]
        assert first.args[0] != second.args[0]

    def test_combined_rules_from_two_parses_keep_anons_apart(self):
        from repro.hilog.program import Program

        # Two independently parsed rules, each using ``_``: combining them
        # into one program must not link their anonymous variables.
        rule_a = parse_rule("p(X) :- e(X, _).")
        rule_b = parse_rule("q(Y) :- f(_, Y).")
        anon_a = next(iter(rule_a.body[0].atom.args[1].variables()))
        anon_b = next(iter(rule_b.body[0].atom.args[0].variables()))
        assert anon_a is not anon_b
        program = Program((rule_a, rule_b))
        assert len(program.rules[0].variables() & program.rules[1].variables()) == 0

    def test_cross_parse_anon_aliasing_would_change_safety(self):
        # A head built in one parse and a body atom in another: an aliased
        # anonymous variable would make this unsafe rule look range
        # restricted (head var "bound" by the unrelated body's anon).
        head = parse_term("h(_)")
        body_atom = parse_term("b(_)")
        head_var = next(iter(head.variables()))
        body_var = next(iter(body_atom.variables()))
        assert head_var is not body_var

    def test_anonymous_variables_never_grow_the_intern_table(self):
        # Anonymous variables are fresh *uninterned* objects, and the
        # applications containing them stay uninterned too: repeated
        # parsing of ``_`` must not accrete entries in ANY table —
        # globally unique interned names would leak one Var (plus one
        # App per enclosing application) per parse.
        from repro.hilog.terms import intern_table_sizes

        parse_term("p(_, _)")
        before = intern_table_sizes()
        for _ in range(50):
            term = parse_term("p(_, _)")
        assert intern_table_sizes() == before
        # ... while remaining genuinely distinct variables.
        assert term.args[0] is not term.args[1]
        assert len(term.variables()) == 2
        # A nested application over an anon is uninterned as well (each
        # parse yields a fresh object), but a ground sibling subterm is
        # shared and canonical as usual.
        nested = parse_term("q(f(_), f(a))")
        assert parse_term("q(f(_), f(a))") is not nested
        assert parse_term("f(a)") is nested.args[1]

    def test_comments_are_skipped(self):
        program = parse_program("% a comment\np(a). /* block\ncomment */ q(b).")
        assert len(program) == 2

    def test_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse_term("p(")
        with pytest.raises(ParseError):
            parse_term("p(a) q")
        with pytest.raises(ParseError):
            parse_program("p(a)")  # missing final full stop

    def test_error_reports_location(self):
        try:
            parse_program("p(a).\nq :- .")
        except ParseError as error:
            assert error.line == 2
        else:
            raise AssertionError("expected a ParseError")


class TestRules:
    def test_fact(self):
        rule = parse_rule("p(a).")
        assert rule.is_fact()
        assert rule.head == App(Sym("p"), (Sym("a"),))

    def test_rule_with_body(self):
        rule = parse_rule("tc(G)(X, Y) :- G(X, Z), tc(G)(Z, Y).")
        assert len(rule.body) == 2
        assert all(literal.positive for literal in rule.body)

    def test_negation_keyword(self):
        rule = parse_rule("winning(X) :- move(X, Y), not winning(Y).")
        assert rule.body[1].negative
        assert rule.body[1].atom == App(Sym("winning"), (Var("Y"),))

    def test_negation_backslash_plus(self):
        rule = parse_rule("p :- \\+ q(X).")
        assert rule.body[0].negative

    def test_negation_tilde(self):
        rule = parse_rule("p :- ~q(X).")
        assert rule.body[0].negative

    def test_not_as_symbol_application(self):
        # Example 5.3 uses not(X)() as an ordinary atom.
        rule = parse_rule("not(X)() :- not X.")
        assert rule.head == App(App(Sym("not"), (Var("X"),)), ())
        assert rule.body[0].negative
        assert rule.body[0].atom == Var("X")

    def test_builtin_comparison(self):
        rule = parse_rule("big(X) :- cost(X, M), M > 3.")
        assert rule.body[1].is_builtin()

    def test_builtin_is(self):
        rule = parse_rule("total(X, N) :- cost(X, M), N is M * 2.")
        builtin = rule.body[1]
        assert builtin.is_builtin()
        assert builtin.atom.name == Sym("is")

    def test_builtin_equality_with_expression(self):
        rule = parse_rule("r(N) :- q(P, M), N = P * M.")
        assert rule.body[1].is_builtin()

    def test_aggregate(self):
        rule = parse_rule("contains(Mach, X, Y, N) :- N = sum(P : in(Mach, X, Y, Z, P)).")
        assert len(rule.aggregates) == 1
        aggregate = rule.aggregates[0]
        assert isinstance(aggregate, AggregateSpec)
        assert aggregate.op == "sum"
        assert aggregate.result == Var("N")
        assert aggregate.value == Var("P")

    def test_equality_that_is_not_an_aggregate(self):
        rule = parse_rule("p(X) :- q(Y), X = Y.")
        assert not rule.aggregates
        assert rule.body[1].is_builtin()

    def test_game_rule(self):
        rule = parse_rule("winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).")
        assert rule.head == App(App(Sym("winning"), (Var("M"),)), (Var("X"),))
        assert rule.body[2].negative


class TestProgramsAndQueries:
    def test_program(self):
        program = parse_program(
            """
            tc(G)(X, Y) :- G(X, Y).
            tc(G)(X, Y) :- G(X, Z), tc(G)(Z, Y).
            e(1, 2).
            """
        )
        assert len(program) == 3
        assert len(program.facts()) == 1

    def test_maplist_program(self):
        program = parse_program(
            """
            maplist(F)([], []).
            maplist(F)([X | R], [Y | Z]) :- F(X, Y), maplist(F)(R, Z).
            """
        )
        assert len(program) == 2

    def test_query_with_prefix(self):
        literals = parse_query("?- w(m)(a).")
        assert len(literals) == 1
        assert literals[0].positive

    def test_query_without_prefix(self):
        literals = parse_query("w(m)(X), not w(m)(Y)")
        assert len(literals) == 2
        assert literals[1].negative

    def test_query_rejects_aggregates(self):
        with pytest.raises(ParseError):
            parse_query("N = sum(P : in(a, b, c, Z, P))")

    def test_empty_program(self):
        assert len(parse_program("")) == 0


ENTRY_POINTS = [parse_program, parse_rule, parse_term, parse_query]


class TestHostileText:
    """Whatever the text, the parser answers a term or a ParseError."""

    @pytest.mark.parametrize("text, column", [("p(²).", 3), ("p(1²).", 4)])
    def test_a_digit_that_is_not_decimal_is_a_parse_error(self, text, column):
        # Regression: ``str.isdigit`` accepts ``²`` but ``int`` refuses it,
        # and the ValueError escaped the parser.
        with pytest.raises(ParseError) as info:
            parse_program(text)
        assert (info.value.line, info.value.column) == (1, column)

    def test_decimal_digits_of_any_script_are_a_number(self):
        assert parse_term("p(٣٤)") == App(Sym("p"), (Num(34),))

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() reads numbers of any length here")
    def test_a_number_too_long_for_int_is_a_parse_error(self):
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError) as info:
            parse_program("p(a).\nq(%s)." % digits)
        assert (info.value.line, info.value.column) == (2, 3)

    @pytest.mark.parametrize("opening", ["(", "p(", "[", "f(a)("])
    @pytest.mark.parametrize("parse", ENTRY_POINTS)
    def test_deep_nesting_is_a_parse_error(self, parse, opening):
        # Regression: the recursion limit raised RecursionError.
        depth = 3000
        closing = {"(": ")", "p(": ")", "[": "]", "f(a)(": ")"}[opening]
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(opening * depth + "a" + closing * depth + ".")

    @pytest.mark.parametrize("parse", ENTRY_POINTS)
    def test_a_cased_character_that_is_not_a_word_character(self, parse):
        # Regression: ``ⓐ`` is lower case but not alphanumeric, so the old
        # lexer read an empty name at it and never moved on.
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse("p(a, ⓐ).")
        assert info.value.column == 6

    @pytest.mark.parametrize("text, message, column", [
        ("p('a).", "unterminated quoted atom", 3),
        ("p('a'').", "unterminated quoted atom", 3),
        ("p(a). /* c", "unterminated block comment", 7),
        ("p(a) /*/ .", "unterminated block comment", 6),
        ("p(#).", "unexpected character '#'", 3),
        ("p(中).", "unexpected character '中'", 3),
    ])
    def test_scan_errors_name_their_cause_and_place(self, text, message, column):
        with pytest.raises(ParseError, match=message) as info:
            parse_program(text)
        assert (info.value.line, info.value.column) == (1, column)

    def test_names_of_any_script(self):
        assert parse_term("été(Ça, _x1)").args[0] == Var("Ça")
        assert parse_term("été(Ça)").name == Sym("été")
        assert parse_term("a²") == Sym("a²")


#: Characters the grammar gives a meaning to, most of them twice over.
_GRAMMAR_ALPHABET = (
    "abnotisumcXYZ_0123456789 \t\n(),.[]|:-?=<>\\+~*/%'" + "²٣ⓐǅ中é"
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(max_size=40),
    st.text(alphabet=_GRAMMAR_ALPHABET, max_size=60),
), st.sampled_from(ENTRY_POINTS))
def test_only_parse_errors_escape(text, parse):
    try:
        parse(text)
    except ParseError:
        pass
