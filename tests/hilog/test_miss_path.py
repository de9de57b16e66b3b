"""Tests for the one application miss path (:func:`repro.hilog.terms._new_app`).

``App(...)`` validates and :func:`~repro.hilog.terms.intern_app` trusts its
caller, but both reach the same miss body, which fills an application's
memoized slots from its children.  The invariants under test:

* a structure built through ``intern_app`` and the same structure built
  through ``App(...)`` are one object, and its groundness, depth,
  indicator and freshness equal an independent recursive computation;
* a structure over a fresh (uninterned) variable stays out of the
  application table, however it was built;
* threads racing to build the same new structures — through
  ``intern_app``, ``App(...)`` and the parser — get one object each.
"""

import itertools
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hilog import terms
from repro.hilog.parser import parse_term
from repro.hilog.terms import App, Num, Sym, Var, fresh_var, intern_app

_names = st.sampled_from(["p", "q", "f", "g", "a", "b"])

#: Term shapes: leaves ``("sym", name)``, ``("num", n)``, ``("var", name)``
#: and ``("fresh", k)`` (the ``k``-th fresh variable of an example), and
#: applications ``("app", name_shape, [arg_shapes])`` whose name may
#: itself be an application.
_shapes = st.recursive(
    st.one_of(
        st.tuples(st.just("sym"), _names),
        st.tuples(st.just("num"), st.integers(-3, 3)),
        st.tuples(st.just("var"), st.sampled_from(["X", "Y"])),
        st.tuples(st.just("fresh"), st.integers(0, 1)),
    ),
    lambda children: st.tuples(
        st.just("app"), children, st.lists(children, max_size=3)),
    max_leaves=10,
)


def _build(shape, fresh, construct):
    """The term of ``shape``, every application made by ``construct``."""
    kind = shape[0]
    if kind == "sym":
        return Sym(shape[1])
    if kind == "num":
        return Num(shape[1])
    if kind == "var":
        return Var(shape[1])
    if kind == "fresh":
        return fresh[shape[1]]
    name = _build(shape[1], fresh, construct)
    return construct(name, tuple(_build(arg, fresh, construct)
                                 for arg in shape[2]))


def _expected(shape):
    """``(ground, depth, fresh)`` of ``shape``, computed from the shape."""
    kind = shape[0]
    if kind != "app":
        return kind in ("sym", "num"), 0, kind == "fresh"
    children = [_expected(shape[1])] + [_expected(arg) for arg in shape[2]]
    return (all(ground for ground, _depth, _fresh in children),
            1 + max(depth for _ground, depth, _fresh in children),
            any(fresh for _ground, _depth, fresh in children))


def _pairs(shape, term):
    """``(shape, term)`` for ``term`` and each of its subterms."""
    yield shape, term
    if shape[0] == "app":
        yield from _pairs(shape[1], term.name)
        for arg_shape, arg in zip(shape[2], term.args):
            yield from _pairs(arg_shape, arg)


@given(_shapes)
@settings(max_examples=300, deadline=None)
def test_trusted_and_validating_constructors_agree(shape):
    fresh = [fresh_var("_F0"), fresh_var("_F1")]
    trusted = _build(shape, fresh, intern_app)
    validated = _build(shape, fresh, App)
    for sub_shape, term in _pairs(shape, trusted):
        ground, depth, is_fresh = _expected(sub_shape)
        assert term._ground is ground and term.is_ground() is ground
        assert term.depth() == depth
        assert term._fresh is is_fresh
        if type(term) is not App:
            assert term.indicator == (term, -1)
            continue
        assert term.indicator == (term.name, len(term.args))
        key = (term.name,) + term.args
        if is_fresh:
            # Uninterned, and so is its indicator.
            assert key not in terms._APP_INTERN
            shared = terms._INDICATORS.get(term.name, {}).values()
            assert all(term.indicator is not tuple_ for tuple_ in shared)
        else:
            assert terms._APP_INTERN[key] is term
            assert term.indicator is terms._INDICATORS[term.name][
                len(term.args)]
    if type(trusted) is App and trusted._fresh:
        assert validated is not trusted
        assert repr(validated) == repr(trusted)
    else:
        assert validated is trusted


_RACE = itertools.count()


def test_racing_threads_build_one_object_per_structure():
    """Four threads build the same 300 new structures, one constructor
    each (two through the parser), while the interpreter switches threads
    every microsecond; each structure must come out as one object."""
    tag = "race%d" % next(_RACE)
    count = 300
    texts = ["%s(k%d, f(k%d), g(%s))" % (tag, i, i, tag) for i in range(count)]

    def by_intern_app(i):
        k = Sym("k%d" % i)
        name = Sym(tag)
        return intern_app(name, (k, intern_app(Sym("f"), (k,)),
                                 intern_app(Sym("g"), (name,))))

    def by_app(i):
        k = Sym("k%d" % i)
        name = Sym(tag)
        return App(name, (k, App(Sym("f"), (k,)), App(Sym("g"), (name,))))

    builders = [by_intern_app, by_app, lambda i: parse_term(texts[i]),
                lambda i: parse_term(texts[i])]
    barrier = threading.Barrier(len(builders), timeout=30)
    built = [None] * len(builders)

    def run(slot):
        barrier.wait()
        built[slot] = [builders[slot](i) for i in range(count)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in range(len(builders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(count):
        objects = {id(terms_of[i]) for terms_of in built}
        assert len(objects) == 1, texts[i]
        term = built[0][i]
        assert repr(term) == texts[i]
        assert term.args[1] is App(Sym("f"), (Sym("k%d" % i),))
