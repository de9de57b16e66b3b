"""Source spans: parser-attached positions on rules, literals and
aggregates, their preservation through the program algebra, and
line/column information on parse errors, and spans under arbitrary
layout."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hilog.errors import ParseError
from repro.hilog.parser import parse_program, parse_rule
from repro.hilog.pretty import format_program
from repro.hilog.program import Rule, Span
from repro.hilog.terms import Sym, Var
from repro.workloads.random_programs import (
    random_nonstratified_program,
    random_range_restricted_program,
)


class TestParserSpans:
    def test_rule_spans_point_at_rule_starts(self):
        program = parse_program("e(a, b).\n  tc(X, Y) :- e(X, Y).\n")
        spans = [rule.span for rule in program.rules]
        assert spans == [Span(1, 1), Span(2, 3)]

    def test_literal_spans_point_at_body_literals(self):
        [rule] = parse_program(
            "tc(X, Z) :- e(X, Y), tc(Y, Z), not cut(X, Z)."
        ).rules
        assert [literal.span for literal in rule.body] == [
            Span(1, 13), Span(1, 22), Span(1, 32),
        ]

    def test_negated_literal_span_starts_at_not(self):
        [rule] = parse_program("p(X) :- q(X), not r(X).").rules
        negated = rule.body[1]
        assert not negated.positive
        assert negated.span == Span(1, 15)

    def test_aggregate_span(self):
        [rule] = parse_program(
            "total(X, N) :- base(X), N = sum(V : in(X, V))."
        ).rules
        [spec] = rule.aggregates
        assert spec.span == Span(1, 25)

    def test_span_renders_as_line_colon_column(self):
        assert str(Span(3, 14)) == "3:14"

    def test_multiline_programs_track_lines(self):
        program = parse_program("a(1).\n\n\nb(X) :- a(X).\n")
        assert [rule.span for rule in program.rules] == [Span(1, 1), Span(4, 1)]

    def test_a_newline_inside_a_quoted_atom_counts(self):
        # Regression: the line count skipped newlines inside quoted atoms,
        # so every later line number was one short.
        program = parse_program("p('a\nb').\nq.")
        assert [rule.span for rule in program.rules] == [Span(1, 1), Span(3, 1)]

    def test_newlines_inside_block_comments_count(self):
        program = parse_program("p. /* one\ntwo\n */ q :- /*\n*/ r.")
        [_p, q] = program.rules
        assert q.span == Span(3, 5)
        assert q.body[0].span == Span(4, 4)


class TestSpanPreservation:
    def _rule(self):
        [rule] = parse_program("p(X) :- q(X), not r(X).").rules
        return rule

    def test_substitute_preserves_spans(self):
        from repro.hilog.subst import Substitution

        rule = self._rule()
        ground = rule.substitute(Substitution({Var("X"): Sym("a")}))
        assert ground.span == rule.span
        assert [l.span for l in ground.body] == [l.span for l in rule.body]

    def test_rename_apart_preserves_spans(self):
        rule = self._rule()
        renamed = rule.rename_apart([0])
        assert renamed.span == rule.span
        assert [l.span for l in renamed.body] == [l.span for l in rule.body]

    def test_rename_apart_preserves_aggregate_spans(self):
        [rule] = parse_program(
            "total(X, N) :- base(X), N = sum(V : in(X, V))."
        ).rules
        renamed = rule.rename_apart([0])
        assert [a.span for a in renamed.aggregates] == \
            [a.span for a in rule.aggregates]

    def test_negate_preserves_literal_span(self):
        rule = self._rule()
        literal = rule.body[0]
        assert literal.negate().span == literal.span

    def test_spans_do_not_affect_equality_or_hashing(self):
        with_span = parse_rule("p(X) :- q(X).")
        without = Rule(with_span.head, with_span.body)
        assert without.span is None and with_span.span is not None
        assert with_span == without
        assert hash(with_span) == hash(without)

    def test_programmatic_rules_default_to_no_span(self):
        rule = parse_rule("p(X) :- q(X).")
        rebuilt = Rule(rule.head, rule.body)
        assert rebuilt.span is None
        assert all(l.span is not None for l in rule.body)


class TestParseErrorPositions:
    @pytest.mark.parametrize("text, line", [
        ("p(a", 1),
        ("e(a, b).\nq(X) :- ,", 2),
        ("a(1).\nb(2).\nc :- .", 3),
    ])
    def test_parse_errors_carry_line(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_program(text)
        assert info.value.line == line
        assert info.value.column is not None and info.value.column >= 1

    def test_end_of_input_after_a_line_comment(self):
        # Regression: a line comment did not advance the column, so the
        # end of the text was placed where the comment began.
        with pytest.raises(ParseError) as info:
            parse_program("p(a % c")
        assert (info.value.line, info.value.column) == (1, 8)

    def test_query_aggregate_rejection_carries_position(self):
        from repro.hilog.parser import parse_query

        with pytest.raises(ParseError) as info:
            parse_query("N = sum(V : p(V))")
        assert info.value.line == 1
        assert info.value.column is not None


#: The tokens of a formatted program, for the layout property: quoted
#: atoms, names and numbers, the multi-character operators, and any other
#: single character.  Formatted text has no comments.
_FORMATTED_TOKEN = re.compile(
    r"'(?:[^']|'')*'|\w+|:-|\?-|=:=|=\\=|=<|>=|\\=|\\\+|\S")

#: Layout put between two tokens; the empty one only where the two stay
#: two tokens.
_LAYOUTS = (
    "", " ", "\n", "\t", "  \n  ", "% note\n", "/* note */",
    "/* two\nlines */", "\n% x\n\n", "\r\n",
)

#: Aggregates, builtins, lists, arithmetic and a multi-line quoted atom,
#: which the random samplers never produce.
_EXTRA_CLAUSES = (
    "total(X, N) :- base(X), N = sum(V : in(X, V)), N > 2.\n"
    "'two\nlines'(X) :- q([X, Y | T]), not r(X), Y is X * 2 + 1, "
    "\\+ s(T), ~t(X), X =< 3.\n"
)


def _position(text, offset):
    return Span(text.count("\n", 0, offset) + 1,
                offset - text.rfind("\n", 0, offset))


def _perturbed(tokens, rng):
    """The tokens joined by random layout; returns the text and the offset
    each token starts at."""
    pieces = []
    starts = []
    offset = 0
    previous = None
    for token in tokens:
        if previous is not None:
            layout = rng.choice(_LAYOUTS)
            if not layout and (
                _FORMATTED_TOKEN.findall(previous + token) != [previous, token]
                or previous.endswith("/") and token.startswith("*")
            ):
                layout = " "
            pieces.append(layout)
            offset += len(layout)
        starts.append(offset)
        pieces.append(token)
        offset += len(token)
        previous = token
    return "".join(pieces), starts


def _expected_spans(tokens, text, starts):
    """The spans of each clause and of its body items, read off the token
    sequence: a clause starts the text or follows a ``.``, a body item
    follows ``:-`` or a ``,`` outside brackets."""
    clauses = []
    depth = 0
    begins_clause = True
    for token, offset in zip(tokens, starts):
        position = _position(text, offset)
        if begins_clause:
            clauses.append((position, []))
            begins_clause = False
            after_separator = False
        elif after_separator:
            clauses[-1][1].append(position)
            after_separator = False
        if token in ("(", "["):
            depth += 1
        elif token in (")", "]"):
            depth -= 1
        elif depth == 0 and token == ".":
            begins_clause = True
        elif depth == 0 and token in (":-", ","):
            after_separator = True
    return clauses


def _check_spans(program, clauses):
    assert [rule.span for rule in program.rules] == [rule for rule, _ in clauses]
    for rule, (_span, items) in zip(program.rules, clauses):
        spans = [item.span for item in rule.body + rule.aggregates]
        assert sorted(spans) == items


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10 ** 6),
    st.booleans(),
    st.integers(min_value=0, max_value=10 ** 6),
)
def test_spans_follow_any_layout(seed, stratified, layout_seed):
    """Random layout — whitespace, newlines, ``%`` and ``/* */`` comments —
    between the tokens of a formatted program changes no rule, and every
    rule, literal and aggregate span is the line and column of the offset
    its first token starts at."""
    if stratified:
        sample = random_range_restricted_program(seed=seed, name_open=1)
    else:
        sample = random_nonstratified_program(seed=seed, name_open=1)
    text = format_program(sample) + "\n" + _EXTRA_CLAUSES
    tokens = _FORMATTED_TOKEN.findall(text)
    layout, starts = _perturbed(tokens, random.Random(layout_seed))

    program = parse_program(text)
    perturbed = parse_program(layout)
    assert perturbed == program
    assert program.rules[:len(sample.rules)] == sample.rules
    _check_spans(perturbed, _expected_spans(tokens, layout, starts))
