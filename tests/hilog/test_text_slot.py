"""The canonical-text slot: every interned term is rendered once.

:func:`repro.hilog.pretty.format_term` keeps its result in the term's
``_text`` slot and ``Term.__repr__`` reads the slot first.  The properties
under test:

* cached text ≡ a fresh render by the same printer with the cache bypassed
  at every level, over the printer's corners (quoted and keyword symbols,
  numbers, lists, infix arithmetic in argument and in name position, nested
  names, fresh ``_`` variables);
* ground terms still round-trip to the *same object*;
* a second ``repr`` performs no render;
* a term evicted by :func:`collect_terms` takes its text with it, and
  the rebuilt term renders identically;
* two threads racing the first render of one term get the same string.
"""

import threading

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hilog import pretty
from repro.hilog.parser import parse_term
from repro.hilog.pretty import format_term
from repro.hilog.terms import (
    App,
    Num,
    Sym,
    collect_terms,
    fresh_var,
    make_list,
)

from test_roundtrip_properties import symbols, variables

_corner_symbols = st.sampled_from(
    ["not", "is", "0A", "123", "it's", "B c", "=<", "$nil", "+"]
).map(Sym)
_numbers = st.builds(Num, st.integers(min_value=0, max_value=10 ** 6))
_fresh = st.builds(fresh_var, st.sampled_from(["_", "_Anon1_1"]))
_leaves = st.one_of(symbols, _corner_symbols, _numbers)


def _arithmetic(children):
    return st.builds(
        lambda op, left, right: App(Sym(op), (left, right)),
        st.sampled_from("+-*/"), children, children,
    )


def _compound(children, tails):
    args = st.lists(children, min_size=0, max_size=3).map(tuple)
    nested_name = st.builds(App, symbols, args)      # winning(m)(x)
    infix_name = _arithmetic(children)               # (a * b)(x)
    return st.one_of(
        st.builds(App, st.one_of(symbols, nested_name, infix_name), args),
        _arithmetic(children),
        st.builds(make_list, st.lists(children, max_size=3)),
        st.builds(make_list, st.lists(children, min_size=1, max_size=3),
                  tails),                            # [H | T]
    )


ground_terms = st.recursive(
    _leaves, lambda children: _compound(children, children), max_leaves=10)
open_terms = st.recursive(
    st.one_of(_leaves, variables, _fresh),
    lambda children: _compound(children, st.one_of(variables, _fresh)),
    max_leaves=10,
)


def _uncached(term):
    """The printer with the cache bypassed at every level: subterm renders
    inside ``_render_term`` go through the module's ``format_term`` name."""
    with mock.patch.object(pretty, "format_term", pretty._render_term):
        return pretty._render_term(term)


@settings(max_examples=300, deadline=None)
@given(st.one_of(ground_terms, open_terms))
def test_cached_text_equals_fresh_render(term):
    text = format_term(term)
    assert text == _uncached(term)
    assert repr(term) is text and str(term) is text and term._text is text
    assert format_term(term) is text


@settings(max_examples=300, deadline=None)
@given(ground_terms)
def test_ground_terms_round_trip_to_the_same_object(term):
    assert parse_term(repr(term)) is term


@settings(max_examples=100, deadline=None)
@given(st.one_of(ground_terms, open_terms))
def test_second_repr_performs_no_render(term):
    first = repr(term)
    with mock.patch.object(pretty, "_render_term",
                           wraps=pretty._render_term) as spy:
        assert repr(term) is first
        assert format_term(term) is first
        assert sorted([term, term], key=repr) == [term, term]
    assert spy.call_count == 0


def test_first_render_fills_the_slot_of_every_subterm():
    term = parse_term("slot_probe(winning(slot_m)(slot_x), [slot_h | T])")
    assert not hasattr(term, "_text")
    with mock.patch.object(pretty, "_render_term",
                           wraps=pretty._render_term) as spy:
        text = repr(term)
    assert text == "slot_probe(winning(slot_m)(slot_x), [slot_h | T])"
    assert spy.call_count > 1
    assert term.args[0]._text == "winning(slot_m)(slot_x)"
    assert term.args[0].name._text == "winning(slot_m)"


def test_non_terms_are_still_rejected():
    with pytest.raises(TypeError, match="not a Term"):
        format_term("tc(a, b)")


def test_evicted_term_takes_its_text_and_rebuilds_identically():
    source = "evict_probe(t17, [x1, 'Q q' | Tail], 2 + k)"
    doomed = parse_term(source)
    text = repr(doomed)
    assert doomed._text is text
    del doomed
    stats = collect_terms()
    assert stats["evicted"]["app"] >= 1
    rebuilt = parse_term(source)
    # a fresh canonical object: the old text went with the old term
    assert not hasattr(rebuilt, "_text")
    assert repr(rebuilt) == text == _uncached(rebuilt)


def test_racing_first_renders_agree():
    term = parse_term("race_probe(r1, [r2, 'R r'], r3 * 2)")
    assert not hasattr(term, "_text")
    render = pretty._render_term
    inside = threading.Barrier(2)
    top_level_renders = []

    def meet_inside(subject):
        if subject is term:
            # both threads found the slot empty; neither has stored yet
            top_level_renders.append(threading.get_ident())
            inside.wait(10)
        return render(subject)

    results = {}

    def reader(slot):
        results[slot] = repr(term)

    with mock.patch.object(pretty, "_render_term", meet_inside):
        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
            assert not thread.is_alive()
    assert len(set(top_level_renders)) == 2
    assert results[0] == results[1] == "race_probe(r1, [r2, 'R r'], r3 * 2)"
    assert term._text == results[0]
