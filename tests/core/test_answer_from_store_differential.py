"""Differential test: the store read's identity path ≡ ``match``.

For a *linear* bound-name pattern (open arguments are distinct variables)
``matching_facts`` (:mod:`repro.engine.seminaive.relation`, the store-level
read under ``ModelReads.query`` and ``core.magic``'s ``answer_from_store``)
replaces the general ``match`` by identity tests at the ground positions.
Whatever the path, the answers must be exactly

    sorted((a for a in store if match(pattern, a) is not None), key=repr)

over a plain :class:`RelationStore` and over an epoch's base ⊕ delta view —
a frozen base under a :class:`Delta` whose additions sit under *other* index
keys and whose removals hide base facts — the case where the fetch
over-returns and the ground positions must still be tested.  A spy on the
matcher checks which path ran: linear patterns make zero ``match`` calls,
the others still go through it.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.magic.evaluate import answer_from_store
from repro.db import DatabaseSession
from repro.engine.seminaive import relation
from repro.engine.seminaive.relation import Delta, RelationStore, StoreView, matching_facts
from repro.hilog.parser import parse_term
from repro.hilog.program import Literal
from repro.hilog.terms import App, Var, fresh_var
from repro.hilog.unify import match

UNIVERSE = [parse_term(text) for text in (
    ["tc(%s, %s)" % (x, y) for x in ("a1", "a", "b") for y in ("a1", "a", "b", "c")]
    + ["e(a, b)", "e(b, c)", "e(c, c)", "e(a1, a)"]
    + ["p(f(a), a)", "p(f(b), a)", "p(f(a), b)", "p(a, a)", "p(g(a), a)"]
    + ["n(1, a)", "n(1, b)", "n(2, a)", "n('1', a)"]
    + ["winning(m1)(a)", "winning(m1)(b)", "winning(m2)(a)"]
    + ["m1(a, b)", "m2(a, c)", "m1(b, a)", "m1(a, b, c)", "rain", "q()"]
)]

#: The patterns the issue names, then some neighbours of each.
REQUIRED = [
    "tc(X, X)", "p(f(X), a)", "tc(a1, _)", "e(X, Y)", "n(1, X)",
    "winning(m1)(X)", "M(a, X)",
]
NEIGHBOURS = [
    "tc(a1, X)", "tc(X, a1)", "tc(_, _)", "tc(X, Y)", "tc(zz, X)", "tc(a1, c)",
    "p(X, a)", "p(f(X), Y)", "p(f(a), X)", "n(X, a)", "n('1', X)", "n(2, b)",
    "winning(M)(a)", "winning(M)(X)", "M(a, b)", "m1(a, X)", "m1(X, Y, Z)",
    "unknown(X)", "q()", "rain", "X",
]


def _is_linear(pattern):
    """The rule under test, restated: a ground name applied to arguments
    whose non-ground members are distinct variables."""
    if pattern.is_ground() or not isinstance(pattern, App):
        return False
    if not pattern.name.is_ground():
        return False
    opened = [arg for arg in pattern.args if not arg.is_ground()]
    return (all(isinstance(arg, Var) for arg in opened)
            and len({id(arg) for arg in opened}) == len(opened))


def _plain(facts):
    store = RelationStore()
    for atom in facts:
        store.add(atom)
    return store


def _overlaid(base_facts, *batches):
    """The view an epoch reads: a frozen base under the delta that netted
    the ``(added, removed)`` batches, as ``EpochManager.publish_delta``
    builds it."""
    delta = Delta()
    for added, removed in batches:
        for atom in removed:
            delta.record_remove(atom)
        for atom in added:
            delta.record_add(atom)
    delta.freeze()
    return StoreView((_plain(base_facts).freeze(), delta.added),
                     minus=delta.removed)


def _check(store, pattern):
    """Answers equal the oracle's; returns the number of ``match`` calls
    ``matching_facts`` made."""
    expected = sorted(
        (atom for atom in store if match(pattern, atom) is not None), key=repr)
    with mock.patch.object(relation, "match", wraps=match) as spy:
        answers = matching_facts(store, pattern)
    assert list(answers) == expected
    assert [repr(atom) for atom in answers] == [repr(a) for a in expected]
    if _is_linear(pattern) or pattern.is_ground():
        assert spy.call_count == 0
    else:
        # every answer of a non-linear pattern went through the matcher
        assert spy.call_count >= len(expected)
    return spy.call_count


def _stores():
    base = UNIVERSE[::2]
    rest = UNIVERSE[1::2]
    return {
        "plain": _plain(UNIVERSE),
        "overlay": _overlaid(base, (rest[::2], base[::3])),
        "overlay-additions-only": _overlaid(base, (rest, ())),
        "empty": _plain(()),
    }


@pytest.mark.parametrize("text", REQUIRED + NEIGHBOURS)
@pytest.mark.parametrize("shape", sorted(_stores()))
def test_named_patterns(shape, text):
    _check(_stores()[shape], parse_term(text))


def test_linear_patterns_skip_match_and_the_rest_do_not():
    store = _stores()["overlay"]
    for text in ("tc(a1, _)", "e(X, Y)", "n(1, X)", "winning(m1)(X)", "tc(_, _)"):
        assert _is_linear(parse_term(text)), text
        assert _check(store, parse_term(text)) == 0
    for text in ("tc(X, X)", "p(f(X), a)", "M(a, X)", "winning(M)(a)", "X"):
        assert not _is_linear(parse_term(text)), text
        assert _check(store, parse_term(text)) > 0


def test_overlay_fetch_over_returns_and_ground_positions_still_filter():
    # The base index answers tc(a1, _) exactly; the overlay appends its whole
    # tc/2 bucket (additions under other keys) and a tombstone hides one base
    # fact, so only the identity test at position 0 keeps tc(b, c) out.
    a1_b, a1_c, b_c, a_a = (parse_term(t) for t in
                            ("tc(a1, b)", "tc(a1, c)", "tc(b, c)", "tc(a, a)"))
    store = _overlaid([a1_b, a1_c], ([b_c, a_a], [a1_c]))
    pattern = parse_term("tc(a1, X)")
    fetched = store.fetch(pattern.name, 2, (0,), pattern.args[0])
    assert set(fetched) == {a1_b, b_c, a_a}
    assert _check(store, pattern) == 0
    # the same read through the ``core.magic`` wrapper, which adds the
    # interpretation restricted to the answers
    result = answer_from_store(store, (Literal(pattern), Literal(b_c, False)))
    assert result.answers == (a1_b,)
    assert result.relevant_atoms == result.interpretation.true == frozenset([a1_b])
    assert result.call_patterns == (pattern,) and result.ground_rules == 0


def test_model_reads_query_is_the_store_read():
    session = DatabaseSession(
        "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y). e(a, b). e(b, c).")
    for text in ("tc(a, X)", "tc(X, X)", "M(a, X)", "tc(a, c)", "tc(c, a)"):
        pattern = parse_term(text)
        assert session.query(text) == matching_facts(session.store, pattern)
        _check(session.store, pattern)


def test_fresh_variables_are_distinct_and_one_variable_twice_is_not():
    store = _plain(UNIVERSE)
    blank = fresh_var("_")
    name = parse_term("tc")
    assert _check(store, App(name, (fresh_var("_"), fresh_var("_")))) == 0
    assert _check(store, App(name, (blank, blank))) > 0


_names = st.sampled_from(
    ["tc", "e", "p", "n", "m1", "winning(m1)", "winning(M)", "M", "unknown"]
).map(parse_term)
_args = st.one_of(
    st.sampled_from(["a1", "a", "b", "c", "1", "'1'", "f(a)", "f(X)", "g(Y)",
                     "X", "Y", "Z"]).map(parse_term),
    st.builds(fresh_var, st.just("_")),
)
_patterns = st.builds(App, _names, st.lists(_args, max_size=3).map(tuple))
_subsets = st.lists(st.sampled_from(UNIVERSE), unique=True)


@settings(max_examples=300, deadline=None)
@given(_patterns, _subsets)
def test_random_patterns_over_plain_stores(pattern, facts):
    _check(_plain(facts), pattern)


@settings(max_examples=300, deadline=None)
@given(_patterns, _subsets, _subsets, _subsets)
def test_random_patterns_over_overlaid_stores(pattern, base, added, removed):
    # Batches report exact model diffs: additions are new to the base,
    # removals come from it.
    added = [atom for atom in added if atom not in base]
    removed = [atom for atom in removed if atom in base]
    _check(_overlaid(base, (added, removed)), pattern)
    # the same view reached in two batches netted into one delta
    _check(_overlaid(base, (added, ()), ((), removed)), pattern)
