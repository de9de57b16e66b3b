"""The one fact-source protocol against a naive ``set`` of atoms.

:mod:`repro.engine.seminaive.relation` has three implementations of
``fetch`` / ``spill`` / ``all_facts`` / ``in`` — the indexed
:class:`RelationStore`, the indicator-bucketed :class:`FactBuckets` and the
:class:`StoreView` read view.  Every shape the engine composes from them is
driven here by one random add/remove script and compared, question by
question, with the plain set the script leaves behind: what a fetch may
over-return (the rest of its indicator) and what it never may (a fact of
another indicator, a removed or masked fact, a miss).
"""

import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.seminaive.relation import (
    Delta,
    FactBuckets,
    RelationStore,
    StoreView,
    candidates,
    predicate_indicator,
)
from repro.hilog.errors import FrozenStoreError
from repro.hilog.parser import parse_term
from repro.hilog.subst import Substitution
from repro.hilog.terms import (
    App,
    Sym,
    Var,
    collect_generation,
    intern_generation,
    intern_table_sizes,
    outermost_symbol,
    register_pin_provider,
    unregister_pin_provider,
)
from repro.hilog.unify import match

UNIVERSE = [parse_term(text) for text in (
    "e(a, b)", "e(a, c)", "e(b, c)", "e(1, a)", "e(2, a)", "e(1, 1)",
    "t(a, b, c)", "t(a, b, d)", "t(b, b, c)", "t(1, b, 2)",
    "winning(m1)(a)", "winning(m2)(a)", "winning(m1)(b)", "losing(m1)(a)",
    "f(a)", "winning(a)",
    "p", "p()", "q", "q(a)", "rain",
)]
INDICATORS = sorted(
    {predicate_indicator(atom) for atom in UNIVERSE}
    | {(parse_term("absent"), 2), (parse_term("e"), 3)},
    key=repr,
)
ARGUMENTS = sorted(
    {arg for atom in UNIVERSE if isinstance(atom, App) for arg in atom.args},
    key=repr,
)
SYMBOLS = [None] + [parse_term(name) for name in
                    ("e", "t", "winning", "losing", "p", "m1", "absent")]

#: Every shape the engine builds; the mutable ones run the script directly.
SHAPES = ["store", "frozen-store", "buckets", "masked-view", "layered-view"]
EXACT = {"store", "frozen-store"}  # shapes whose fetch honours the key

_ops = st.lists(
    st.tuples(st.booleans(), st.sampled_from(UNIVERSE)), max_size=40)
_atoms = st.lists(st.sampled_from(UNIVERSE), unique=True)


def _run(script, target, model):
    """Apply ``(add?, atom)`` steps to ``target`` and the naive ``model``,
    holding each mutator's return value to the model's."""
    for adding, atom in script:
        if adding:
            assert target.add(atom) is (atom not in model)
            model[atom] = None
        else:
            assert target.remove(atom) is (atom in model)
            model.pop(atom, None)


def _check(source, facts, exact, reachable=()):
    """Every question of the protocol, ``source`` against the set ``facts``;
    ``reachable`` are further atoms it holds without showing (a mask)."""
    facts = set(facts)

    # membership, length, iteration
    for atom in UNIVERSE:
        assert (atom in source) is (atom in facts), atom
    assert len(source) == len(facts)
    listed = list(source)
    assert len(listed) == len(facts) and set(listed) == facts

    # fetch: empty positions, one bare key (Num among them), a tuple key
    for name, arity in INDICATORS:
        of_indicator = {atom for atom in facts
                        if predicate_indicator(atom) == (name, arity)}
        keys = [((), None)]
        keys += [((i,), value) for i in range(max(arity, 0)) for value in ARGUMENTS]
        if arity >= 2:
            keys += [((0, arity - 1), pair)
                     for pair in itertools.product(ARGUMENTS[:4], repeat=2)]
        for positions, key in keys:
            wanted = {
                atom for atom in of_indicator
                if (key if len(positions) != 1 else (key,))
                == tuple(atom.args[i] for i in positions)
            } if positions else of_indicator
            got = source.fetch(name, arity, positions, key)
            assert len(set(got)) == len(got)
            assert wanted <= set(got) <= of_indicator, (name, arity, positions, key)
            if exact:
                assert set(got) == wanted

    # spill: by arity, by outermost symbol (winning(M)(X))
    for arity in (-1, 0, 1, 2, 3):
        for symbol in SYMBOLS:
            wanted = {
                atom for atom in facts
                if predicate_indicator(atom)[1] == arity
                and (symbol is None or outermost_symbol(atom) is symbol)
            }
            got = source.spill(arity, symbol)
            assert len(set(got)) == len(got) and set(got) == wanted

    everything = source.all_facts()
    assert len(everything) == len(facts) and set(everything) == facts

    # candidates: ground name (with and without an index), open name,
    # bare variable (free and bound), propositions; p and p() stay apart
    empty = Substitution()
    X = Var("X")
    for text, subst, positions in [
        ("e(X, Y)", empty, ()), ("e(a, Y)", empty, (0,)),
        ("e(1, 1)", empty, (0, 1)), ("t(a, X, Y)", empty, (0,)),
        ("winning(m1)(X)", empty, ()), ("M(X, Y)", empty, ()),
        ("winning(M)(X)", empty, ()), ("M(a)", empty, (0,)),
        ("X", empty, ()), ("X", Substitution({X: parse_term("p")}), ()),
        ("X", Substitution({X: parse_term("q(a)")}), ()),
        ("p", empty, ()), ("p()", empty, ()), ("absent(X)", empty, ()),
    ]:
        pattern = parse_term(text)
        wanted = {atom for atom in facts
                  if match(subst.apply(pattern), atom) is not None}
        got = candidates(source, pattern, subst, positions)
        assert wanted <= set(got) <= facts, text
    p, p0 = parse_term("p"), parse_term("p()")
    assert set(source.fetch(p, -1, (), None)) == facts & {p}
    assert set(source.fetch(p, 0, (), None)) == facts & {p0}

    roots = set(source.pin_roots())
    assert facts <= roots and set(reachable) <= roots


def _assert_frozen(target, present, absent):
    """Whatever would change a frozen set raises; a no-op stays one."""
    with pytest.raises(FrozenStoreError):
        target.add(absent)
    with pytest.raises(FrozenStoreError):
        target.remove(present)
    assert target.add(present) is False and target.remove(absent) is False
    assert present in target and absent not in target and len(target) == 1


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=60, deadline=None)
@given(script=_ops, hidden=_atoms)
def test_every_shape_answers_like_a_set(shape, script, hidden):
    model = {}
    half = len(script) // 2
    if shape in ("store", "frozen-store", "buckets"):
        source = FactBuckets() if shape == "buckets" else RelationStore()
        _run(script[:half], source, model)
        # the indexes these fetches build are maintained by the second half
        _check(source, model, shape in EXACT)
        _run(script[half:], source, model)
        if shape == "frozen-store":
            source.freeze()
        _check(source, model, shape in EXACT)
        return

    _run(script, FactBuckets(), model)
    facts = list(model)
    if shape == "masked-view":
        # base ⊕ delta: a frozen store that still holds the masked atoms, a
        # frozen bucket layer on top, the mask a frozen bucket set
        hidden = [atom for atom in hidden if atom not in model]
        base = RelationStore(facts[0::2] + hidden).freeze()
        source = StoreView((base, FactBuckets(facts[1::2]).freeze()),
                           minus=FactBuckets(hidden).freeze())
        _check(source, model, False, reachable=hidden)
        with pytest.raises(FrozenStoreError):
            source.add(UNIVERSE[0])
        return

    # three layers, the last one mutable and written through the view
    lower = RelationStore(facts[0::3]), FactBuckets(facts[1::3])
    top = RelationStore()
    source = StoreView(lower + (top,))
    for atom in facts[2::3]:
        assert source.add(atom) is True
    for atom in facts:
        assert source.add(atom) is False
    assert set(top) == set(facts[2::3])
    _check(source, model, False)


@settings(max_examples=40, deadline=None)
@given(facts=_atoms)
def test_bulk_constructors_agree_with_one_by_one(facts):
    one_by_one = RelationStore()
    for atom in facts:
        one_by_one.add(atom)
    groups = {}
    for atom in facts:
        groups.setdefault(predicate_indicator(atom), []).append(atom)
    bulk = RelationStore.from_groups(groups.items())
    copy = one_by_one.snapshot()
    for store in (bulk, copy, FactBuckets(facts), FactBuckets(facts + facts)):
        _check(store, facts, isinstance(store, RelationStore))
    assert list(bulk) == list(copy)
    # a snapshot shares nothing with its source
    for atom in facts:
        one_by_one.remove(atom)
    _check(copy, facts, True)
    assert copy.add(parse_term("fresh(x)")) and len(one_by_one) == 0


def test_frozen_instances_refuse_every_mutator():
    present, absent = parse_term("e(a, b)"), parse_term("e(b, c)")
    store = RelationStore([present]).freeze()
    assert store.frozen
    _assert_frozen(store, present, absent)
    with pytest.raises(FrozenStoreError):
        store.adopt(RelationStore())
    assert store.fetch(present.name, 2, (0,), present.args[0]) == [present]

    buckets = FactBuckets([present]).freeze()
    _assert_frozen(buckets, present, absent)
    assert buckets.copy().add(absent)  # a copy is unfrozen

    delta = Delta()
    delta.record_add(present)
    delta.record_remove(absent)
    delta.freeze()
    for record, atoms in ((delta.record_add, (absent, parse_term("e(c, d)"))),
                          (delta.record_remove, (present, parse_term("e(c, d)")))):
        for atom in atoms:
            with pytest.raises(FrozenStoreError):
                record(atom)
    assert (set(delta.added), set(delta.removed)) == ({present}, {absent})
    thawed = delta.copy()
    thawed.record_remove(present)
    assert present in delta.added and present not in thawed.added

    # a view is as frozen as its top layer, and read-only under a mask
    with pytest.raises(FrozenStoreError):
        StoreView((RelationStore(), buckets)).add(absent)
    with pytest.raises(FrozenStoreError):
        StoreView((RelationStore(),), minus=FactBuckets()).add(absent)


def test_delta_cancels_both_ways_and_copies_apart():
    a, b = parse_term("e(a, b)"), parse_term("e(b, c)")
    delta = Delta()
    delta.record_add(a)
    delta.record_remove(b)
    assert (len(delta), set(delta.added), set(delta.removed)) == (2, {a}, {b})
    assert set(delta.pin_roots()) == {a, b}
    assert delta.touches([(a.name, 2)]) and not delta.touches([(a.name, 3)])
    clone = delta.copy()
    clone.record_remove(a)  # cancels the addition
    clone.record_add(b)     # cancels the removal
    assert clone.is_empty() and len(clone) == 0
    assert not clone.added.has_facts(a.name, 2)
    assert (set(delta.added), set(delta.removed)) == ({a}, {b})


def test_masked_view_filters_the_lower_layer_and_appends_the_top():
    """base ⊕ delta on one small example: a removed base fact is hidden from
    every question, the additions' whole bucket is appended to a keyed
    fetch, and both are still pinned."""
    base = RelationStore(
        parse_term(t) for t in ("e(a, b)", "e(a, c)", "p(x)")).freeze()
    e_ab, e_ac, e_bd, p_x = (
        parse_term(t) for t in ("e(a, b)", "e(a, c)", "e(b, d)", "p(x)"))
    view = StoreView((base, FactBuckets([e_bd])), minus=FactBuckets([e_ab, p_x]))
    e, a = e_ab.name, e_ab.args[0]
    assert e_ac in view and e_bd in view
    assert e_ab not in view and p_x not in view and len(view) == 2
    assert sorted(map(str, view)) == ["e(a, c)", "e(b, d)"]
    assert view.fetch(e, 2, (0,), a) == [e_ac, e_bd]  # over-returns e(b, d)
    assert view.facts(e, 2) == [e_ac, e_bd]
    assert view.fetch(p_x.name, 1, (), None) == []
    assert sorted(map(str, view.all_facts())) == ["e(a, c)", "e(b, d)"]
    assert view.spill(1, None) == []
    assert {e_ab, e_ac, e_bd, p_x} <= set(view.pin_roots())
    assert e_ab in base and e_bd not in base  # the base is untouched


class TestEmptiedRelations:
    def test_name_churn_leaves_no_relation_index_entry_or_pin(self):
        keep = parse_term("keep(a, b)")
        a, b = keep.args
        store = RelationStore([keep])
        def pins():  # held here: the registry keeps providers weakly
            return store.pin_roots()

        handle = register_pin_provider(pins)
        try:
            gc.collect()
            collect_generation()
            before = intern_table_sizes()
            with intern_generation():
                churned = [App(Sym("e%d" % i), (a, b)) for i in range(20000)]
                for atom in churned:
                    assert store.add(atom)
                assert store.stats()["relations"] == 20001
                for atom in churned:
                    assert store.remove(atom)
                del churned, atom
            assert store.stats() == {"relations": 1, "facts": 1, "indexes": 0}
            assert store.spill(2, None) == [keep]
            assert list(store.pin_roots()) == [keep]
            collect_generation()
            assert intern_table_sizes() == before
        finally:
            unregister_pin_provider(handle)

    def test_dropped_indicator_comes_back_with_a_lazy_index(self):
        first, second = parse_term("e(a, b)"), parse_term("e(a, c)")
        e, a = first.name, first.args[0]
        store = RelationStore([first, parse_term("f(a)")])
        assert store.fetch(e, 2, (0,), a) == [first]
        assert store.relation(e, 2).index_count() == 1
        assert store.remove(first)
        assert store.relation(e, 2) is None and len(store) == 1
        assert store.fetch(e, 2, (0,), a) == () and store.spill(2, None) == ()
        assert store.add(second)
        assert store.relation(e, 2).index_count() == 0
        assert store.fetch(e, 2, (0,), a) == [second]
        assert store.relation(e, 2).index_count() == 1
        assert store.stats()["relations"] == 2
