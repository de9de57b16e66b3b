"""Property tests: the pretty printer round-trips through the parser for
random HiLog terms, literals, rules and whole programs.

The generators cover the language's corners — nested applications of
applications (``p(a)(X)(b)``), zero-ary applications, quoted symbols,
lists (proper and partial), numbers, negation, builtin comparisons and
aggregate subgoals — while avoiding the reserved builtin names in
predicate-name positions (the printer would legitimately render those
infix)."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hilog.parser import parse_program, parse_rule, parse_term
from repro.hilog.pretty import format_program, format_rule, format_term
from repro.hilog.program import AggregateSpec, Literal, Program, Rule
from repro.hilog.program import BUILTIN_PREDICATES
from repro.hilog.terms import App, Num, Sym, Var, make_list

#: Names the parser treats specially in term positions.
_RESERVED = set(BUILTIN_PREDICATES) | {"not", "is"}

_plain_name = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda name: name not in _RESERVED
)
_quoted_name = st.text(
    alphabet=string.ascii_letters + string.digits + " +-*/.#@",
    min_size=1, max_size=8,
).filter(lambda name: not (name[:1].islower() and all(
    ch.isalnum() or ch == "_" for ch in name) and name not in _RESERVED))
_var_name = st.from_regex(r"[A-Z][a-zA-Z0-9_]{0,5}", fullmatch=True)

symbols = st.one_of(
    st.builds(Sym, _plain_name),
    st.builds(Sym, _quoted_name),
)
numbers = st.builds(Num, st.integers(min_value=0, max_value=10 ** 6))
variables = st.builds(Var, _var_name)


def _apps(children):
    """Applications — possibly of applications — over generated children."""
    return st.builds(
        App,
        st.one_of(symbols, variables, children),
        st.lists(children, min_size=0, max_size=3).map(tuple),
    )


def _lists(children):
    return st.builds(
        make_list,
        st.lists(children, min_size=0, max_size=3),
        st.one_of(st.just(None), variables).map(
            lambda tail: tail if tail is not None else __import__(
                "repro.hilog.terms", fromlist=["NIL"]).NIL
        ),
    )


terms = st.recursive(
    st.one_of(symbols, numbers, variables),
    lambda children: st.one_of(_apps(children), _lists(children)),
    max_leaves=12,
)

#: Atoms acceptable as rule heads / body literals (no bare numbers).
atoms = st.one_of(
    symbols,
    st.builds(
        App,
        st.one_of(symbols, st.builds(App, symbols, st.lists(
            st.one_of(symbols, variables), min_size=0, max_size=2).map(tuple))),
        st.lists(terms, min_size=0, max_size=3).map(tuple),
    ),
)

literals = st.builds(Literal, atoms, st.booleans())

comparisons = st.builds(
    lambda op, left, right: Literal(App(Sym(op), (left, right))),
    st.sampled_from(sorted(BUILTIN_PREDICATES)),
    st.one_of(variables, numbers),
    st.one_of(variables, numbers),
)

aggregates = st.builds(
    AggregateSpec,
    st.sampled_from(AggregateSpec.SUPPORTED_OPS),
    variables,
    st.builds(App, symbols, st.lists(
        st.one_of(symbols, variables), min_size=1, max_size=3).map(tuple)),
    variables,
)

rules = st.builds(
    Rule,
    atoms,
    st.lists(st.one_of(literals, comparisons), min_size=0, max_size=4).map(tuple),
    st.lists(aggregates, min_size=0, max_size=1).map(tuple),
)

programs = st.builds(Program, st.lists(rules, min_size=0, max_size=6).map(tuple))


@settings(max_examples=300, deadline=None)
@given(terms)
def test_term_round_trip(term):
    assert parse_term(format_term(term)) == term


@settings(max_examples=300, deadline=None)
@given(rules)
def test_rule_round_trip(rule):
    assert parse_rule(format_rule(rule)) == rule


@settings(max_examples=100, deadline=None)
@given(programs)
def test_program_round_trip(program):
    assert parse_program(format_program(program)) == program


@settings(max_examples=100, deadline=None)
@given(programs)
def test_formatting_is_deterministic_fixpoint(program):
    """Formatting a reparsed program reproduces the text exactly."""
    text = format_program(program)
    assert format_program(parse_program(text)) == text
