"""Tests for generation-scoped intern-table eviction
(:mod:`repro.hilog.terms`).

The invariants under test:

* terms born while no generation is open are *immortal* — no collection
  ever touches them;
* terms born inside a generation are evicted by :func:`collect_generation`
  exactly when the pin set (explicit pins + registered providers) cannot
  reach them, and rebuilding an evicted structure yields a fresh canonical
  object (the identity invariant ``a == b`` iff ``a is b`` holds for every
  term still reachable);
* pinned survivors stay in their birth pool and become evictable as soon
  as they stop being pinned;
* an application built *after* its mortal children's generation closed is
  swept together with them (generation propagation), never left dangling;
* collection refuses to run while any generation is open.
"""

import gc

import pytest

from repro.hilog import terms
from repro.hilog.errors import GenerationError
from repro.hilog.parser import parse_term
from repro.hilog.terms import (
    App,
    Num,
    Sym,
    Var,
    begin_generation,
    collect_generation,
    current_generation,
    end_generation,
    intern_generation,
    intern_generation_sizes,
    intern_table_sizes,
    register_pin_provider,
    unregister_pin_provider,
)


def _total():
    return sum(intern_table_sizes().values())


def _interned(term):
    """Whether ``term`` is still the canonical interned object."""
    if type(term) is App:
        return terms._APP_INTERN.get((term.name,) + term.args) is term
    if type(term) is Num:
        return terms._NUM_INTERN.get(term.value) is term
    if type(term) is Var:
        return terms._VAR_INTERN.get(term.name) is term
    return terms._SYM_INTERN.get(term.name) is term


class TestGenerationLifecycle:
    def test_begin_end_nesting(self):
        assert current_generation() == 0
        outer = begin_generation()
        assert current_generation() == outer
        inner = begin_generation()
        assert current_generation() == inner
        end_generation(inner)
        assert current_generation() == outer
        end_generation(outer)
        assert current_generation() == 0

    def test_end_closes_younger_generations_too(self):
        outer = begin_generation()
        begin_generation()
        end_generation(outer)
        assert current_generation() == 0

    def test_end_unopened_generation_raises(self):
        with pytest.raises(GenerationError):
            end_generation(10 ** 9)

    def test_collect_while_open_raises(self):
        gen = begin_generation()
        try:
            with pytest.raises(GenerationError):
                collect_generation()
        finally:
            end_generation(gen)
        collect_generation()  # fine once closed

    def test_context_manager(self):
        with intern_generation() as gen:
            assert current_generation() == gen
            fresh = Sym("ctx_fresh_sym_1")
        assert current_generation() == 0
        collect_generation()
        assert not _interned(fresh)


class TestEviction:
    def test_immortal_terms_survive_collection(self):
        immortal = parse_term("immortal_fact(c1, 42)")
        collect_generation()
        assert _interned(immortal)
        assert _interned(immortal.name)

    def test_unpinned_generation_terms_are_evicted(self):
        with intern_generation():
            transient = parse_term("gen_fact(fresh_c17, 99991)")
        before = _total()
        stats = collect_generation()
        # The application, the fresh symbols and the fresh number all go
        # (shared pre-existing structure, if any, stays).
        assert stats["evicted_total"] >= 3
        assert _total() < before
        assert not _interned(transient)

    def test_rebuilt_after_eviction_is_fresh_canonical_object(self):
        with intern_generation():
            old = parse_term("rebuildable(x_c1)")
        collect_generation()
        new = parse_term("rebuildable(x_c1)")
        assert new is not old
        assert hash(new) == hash(old)  # deterministic structural formula
        assert _interned(new)
        # ... and the new object is now the canonical one for everybody.
        assert parse_term("rebuildable(x_c1)") is new

    def test_pins_keep_whole_subterm_closure(self):
        with intern_generation():
            kept = parse_term("pin_root(pin_child(pin_leaf), 424243)")
        collect_generation(pins=[kept])
        assert _interned(kept)
        assert _interned(kept.args[0])
        assert _interned(kept.args[0].args[0])
        assert _interned(kept.args[1])
        # reparse finds the very same objects
        assert parse_term("pin_root(pin_child(pin_leaf), 424243)") is kept

    def test_survivors_are_evicted_once_unpinned(self):
        with intern_generation():
            kept = parse_term("survivor(s_c9)")
        collect_generation(pins=[kept])
        assert _interned(kept)
        collect_generation()  # no pins this time
        assert not _interned(kept)

    def test_shared_immortal_children_are_untouched(self):
        leaf = Sym("shared_leaf")  # immortal
        with intern_generation():
            parent = App(Sym("mortal_parent_sym"), (leaf,))
        collect_generation()
        assert not _interned(parent)
        assert _interned(leaf)

    def test_app_in_younger_generation_keeps_mortal_child_sweepable(self):
        # Inside a younger open generation, an application over an older
        # mortal child records a generation at least as young as every
        # child, so one unrestricted sweep handles both atomically and
        # never leaves a dangling reference.
        with intern_generation():
            child = Sym("late_child_sym")
        with intern_generation():
            parent = App(Sym("late_parent_sym"), (child,))
        assert parent._gen >= child._gen
        collect_generation()
        assert not _interned(parent)
        assert not _interned(child)

    def test_top_level_reacquisition_promotes_to_immortal(self):
        # The documented contract: terms *obtained* while no generation is
        # open are immortal.  A cache hit on a generational twin must
        # therefore promote it (and its subterms), or a later collection
        # would evict the object behind the top-level holder's back.
        with intern_generation():
            born = parse_term("promoted(p_c1, 88321)")
        held = parse_term("promoted(p_c1, 88321)")  # top-level hit
        assert held is born
        collect_generation()  # no pins — yet the held term must survive
        assert _interned(held)
        assert _interned(held.args[0])
        assert _interned(held.args[1])
        assert parse_term("promoted(p_c1, 88321)") is held

    def test_hits_inside_generations_do_not_promote(self):
        # Promotion is a top-level-only courtesy: re-obtaining a mortal
        # term inside a generation keeps it sweepable, or session churn
        # (whose parses all run inside generations) could never reclaim
        # recurring constants after retraction.
        with intern_generation():
            born = parse_term("unpromoted(u_c1)")
        with intern_generation():
            again = parse_term("unpromoted(u_c1)")
        assert again is born
        collect_generation()
        assert not _interned(born)

    def test_fresh_variables_and_their_apps_stay_out_of_the_tables(self):
        from repro.hilog.terms import fresh_var

        anon = fresh_var("_AnonT_1")
        wrapped = App(Sym("fresh_wrap"), (anon,))
        assert not _interned(wrapped)
        # Identity-distinct even from a same-named interned variable.
        named = Var("_AnonT_1")
        assert named is not anon and named != anon
        # Building over the same fresh var twice gives two objects.
        assert App(Sym("fresh_wrap"), (anon,)) is not wrapped

    def test_collect_sweeps_every_closed_generation(self):
        with intern_generation():
            a = Sym("gen_specific_a")
        with intern_generation():
            b = Sym("gen_specific_b")
        collect_generation()
        assert not _interned(a)
        assert not _interned(b)

    def test_pinned_term_keeps_a_child_born_in_another_generation(self):
        # A pinned App may reference a child born in an older generation;
        # the sweep must reach it through the parent or the App would be
        # left dangling (and the child's identity split on rebuild).
        with intern_generation():
            child = Sym("cross_gen_child")
        with intern_generation():
            parent = App(Sym("cross_gen_parent"), (child,))
        collect_generation(pins=[parent])
        assert _interned(child)
        assert _interned(parent)
        # Probe identity from inside a generation (a top-level probe would
        # promote the pair to immortal — the documented top-level promise).
        with intern_generation():
            assert App(Sym("cross_gen_parent"), (Sym("cross_gen_child"),)) is parent
        collect_generation()  # unrestricted: both evictable together now
        assert not _interned(child)
        assert not _interned(parent)

    def test_top_level_app_over_mortal_children_is_immortal(self):
        # Building at top level over a generational child promotes the
        # child and interns the application immortally — the same promise
        # the intern-hit path honors.
        with intern_generation():
            atom = parse_term("handed_out(h_c1)")
        wrapper = App(Sym("audit_wrap"), (atom,))
        assert wrapper._gen == 0
        collect_generation()
        assert _interned(wrapper)
        assert _interned(atom)
        assert App(Sym("audit_wrap"), (atom,)) is wrapper


class TestAccounting:
    def test_generation_sizes_track_births_and_eviction(self):
        with intern_generation() as gen:
            kept = Sym("acct_kept")
            Sym("acct_dropped")
        sizes = intern_generation_sizes()
        assert sizes[gen] == 2
        collect_generation(pins=[kept])
        sizes = intern_generation_sizes()
        assert sizes.get(gen, 0) == 1
        collect_generation()
        assert gen not in intern_generation_sizes()

    def test_generation_sizes_sum_to_table_sizes(self):
        with intern_generation():
            parse_term("sumcheck(a1, b2, 77321)")
        assert sum(intern_generation_sizes().values()) == _total()
        collect_generation()
        assert sum(intern_generation_sizes().values()) == _total()


class TestRegistries:
    def test_pin_provider_guards_and_unregisters(self):
        held = []

        def provider():
            return list(held)

        handle = register_pin_provider(provider)
        try:
            with intern_generation():
                held.append(parse_term("provider_kept(p_c3)"))
            collect_generation()
            assert _interned(held[0])
            kept = held.pop()
            collect_generation()
            assert not _interned(kept)
        finally:
            unregister_pin_provider(handle)

    def test_dead_provider_is_dropped(self):
        with intern_generation():
            doomed = Sym("weak_provider_sym")

        def provider():
            return [doomed]

        register_pin_provider(provider)
        del provider
        gc.collect()
        collect_generation()
        assert not _interned(doomed)
