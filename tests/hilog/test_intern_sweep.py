"""Tests for the reference-count sweep of the intern tables
(:func:`repro.hilog.terms.collect_terms`).

The invariants under test:

* a term nothing outside the tables holds is evicted, and with it every
  subterm only it held — one sweep frees a whole dead structure;
* a held term — by a store, a parent, a program, a substitution, a local
  variable, or only through
  one of its indicator tuples — survives, together with its whole subterm
  closure, and a reparse returns the very same object;
* rebuilding an evicted structure yields a fresh canonical object (the
  identity invariant ``a == b`` iff ``a is b`` holds for every term still
  reachable);
* the references the tables alone account for are pinned per kind of term,
  so a change in what ``sys.getrefcount`` reports fails here instead of
  evicting live terms;
* where the counts do not read true (a count off by any amount, no
  ``sys.getrefcount``, no GIL), a sweep evicts nothing, warns and says so;
* an intern miss on another thread does not wait for the sweep's pass;
* a lock-free intern hit that takes a term between the sweep's count and
  its delete keeps the term canonical.

A term is observed without being held through its rendered text: the
printer fills a term's ``_text`` slot, so a reparse that comes back without
one is a fresh object and the old one was evicted.
"""

import gc
import sys
import threading
import warnings

from sys import getrefcount

import pytest

from repro.db import DatabaseSession
from repro.hilog import terms
from repro.hilog.parser import parse_program, parse_term
from repro.hilog.subst import Substitution
from repro.hilog.terms import (
    App,
    Num,
    Sym,
    Var,
    collect_terms,
    fresh_var,
    intern_table_sizes,
)
from repro.serve import ServingSession


def _interned(term):
    """Whether ``term`` is still the canonical interned object."""
    if type(term) is App:
        return terms._APP_INTERN.get((term.name,) + term.args) is term
    if type(term) is Num:
        return terms._NUM_INTERN.get(term.value) is term
    if type(term) is Var:
        return terms._VAR_INTERN.get(term.name) is term
    return terms._SYM_INTERN.get(term.name) is term


def _rendered(text):
    """Parse ``text`` and render it, marking the object (and its subterms)
    with their text; the term is dropped on return."""
    repr(parse_term(text))


def _reparse_is_fresh(text):
    """Whether parsing ``text`` builds a new object: a term that survived
    since :func:`_rendered` would come back with its text."""
    return not hasattr(parse_term(text), "_text")


class TestEviction:
    def test_unheld_terms_are_evicted(self):
        _rendered("gone_fact(fresh_c17, 99991)")
        before = intern_table_sizes()
        stats = collect_terms()
        # The application, the fresh symbols and the fresh number all go
        # (shared pre-existing structure, if any, stays), and the stats
        # count exactly what the tables lost.
        assert stats["evicted_total"] >= 4
        assert stats["evicted_total"] == sum(stats["evicted"].values())
        assert stats["sizes"] == intern_table_sizes()
        assert {kind: before[kind] - stats["sizes"][kind] for kind in before} \
            == stats["evicted"]
        assert _reparse_is_fresh("gone_fact(fresh_c17, 99991)")

    def test_one_sweep_frees_whole_dead_structures(self):
        gc.collect()  # nothing dies behind the counts below
        collect_terms()
        before = intern_table_sizes()
        for index in range(300):
            parse_term("sw_p%d(sw_q%d(sw_r%d), sw_s)" % (index, index, index))
        stats = collect_terms()
        assert stats["evicted"]["app"] == 600
        assert stats["evicted"]["sym"] == 901
        assert stats["sizes"] == intern_table_sizes() == before

    def test_term_held_only_by_a_local_survives(self):
        local = parse_term("local_only(lo_c1, 515151)")
        collect_terms()
        assert _interned(local)
        assert parse_term("local_only(lo_c1, 515151)") is local

    def test_rebuilt_after_eviction_is_fresh_canonical_object(self):
        _rendered("rebuildable(x_c1)")
        collect_terms()
        new = parse_term("rebuildable(x_c1)")
        assert not hasattr(new, "_text")
        # Terms hash by identity: a dict built after the rebuild finds the
        # term a reparse returns.
        assert {new: "rebuilt"}[parse_term("rebuildable(x_c1)")] == "rebuilt"
        assert _interned(new)
        # ... and the new object is now the canonical one for everybody.
        assert parse_term("rebuildable(x_c1)") is new

    def test_held_term_keeps_whole_subterm_closure(self):
        kept = parse_term("held_root(held_child(held_leaf), 424243)")
        collect_terms()
        assert _interned(kept)
        assert _interned(kept.args[0])
        assert _interned(kept.args[0].args[0])
        assert _interned(kept.args[1])
        # reparse finds the very same objects
        assert parse_term("held_root(held_child(held_leaf), 424243)") is kept

    def test_survivor_is_evicted_once_dropped(self):
        kept = parse_term("survivor(s_c9)")
        repr(kept)
        collect_terms()
        assert _interned(kept)
        del kept
        collect_terms()
        assert _reparse_is_fresh("survivor(s_c9)")

    def test_shared_held_children_are_untouched(self):
        leaf = Sym("shared_leaf")
        repr(App(Sym("dropped_parent_sym"), (leaf,)))
        collect_terms()
        assert _interned(leaf)
        assert not hasattr(App(Sym("dropped_parent_sym"), (leaf,)), "_text")

    def test_held_indicator_keeps_its_name(self):
        # Only an indicator tuple is held, and it holds the name: the
        # application goes, the name stays the canonical object.
        indicator = App(Sym("ind_name"), (Sym("ind_x"),)).indicator
        own = Sym("ind_own").indicator  # (symbol, -1)
        collect_terms()
        assert indicator[0] is Sym("ind_name")
        assert App(Sym("ind_name"), (Sym("ind_y"),)).indicator is indicator
        assert own[0] is Sym("ind_own")

    def test_unheld_variables_are_evicted(self):
        _rendered("var_holder(SweepOnlyVar)")
        assert "SweepOnlyVar" in terms._VAR_INTERN
        collect_terms()
        assert "SweepOnlyVar" not in terms._VAR_INTERN

    def test_dead_name_leaves_no_indicator_entry(self):
        # A name used at two arities is held only by its two applications'
        # indicator tuples: once both applications go, the name goes too,
        # and so does its ``_INDICATORS`` entry.
        _rendered("dead_name_f(dn_a)")
        _rendered("dead_name_f(dn_a, dn_b)")

        def has_entry():
            return any(type(name) is Sym and name.name == "dead_name_f"
                       for name in terms._INDICATORS)

        assert has_entry()
        collect_terms()
        assert not has_entry()
        assert "dead_name_f" not in terms._SYM_INTERN

    def test_program_keeps_its_rule_constants(self):
        program = parse_program(
            "prog_head(X) :- prog_edge(X, prog_only_c), not prog_neg(X, 31337).")
        collect_terms()
        (rule,) = program.rules
        constant = rule.body[0].atom.args[1]
        number = rule.body[1].atom.args[1]
        assert _interned(rule.head) and _interned(rule.body[1].atom)
        assert Sym("prog_only_c") is constant
        assert Num(31337) is number

    def test_substitution_keeps_its_bindings(self):
        binding = Substitution({Var("SubstX"): parse_term("subst_val(sv_c1)")})
        collect_terms()
        value = binding.apply(Var("SubstX"))
        assert _interned(value) and _interned(value.args[0])
        assert parse_term("subst_val(sv_c1)") is value

    def test_fresh_variables_and_their_apps_stay_out_of_the_tables(self):
        anon = fresh_var("_AnonT_1")
        wrapped = App(Sym("fresh_wrap"), (anon,))
        assert not _interned(wrapped)
        # Identity-distinct even from a same-named interned variable.
        named = Var("_AnonT_1")
        assert named is not anon and named != anon
        # Building over the same fresh var twice gives two objects.
        assert App(Sym("fresh_wrap"), (anon,)) is not wrapped
        # Their indicators stay out of the shared table too.
        assert wrapped.indicator is not App(Sym("fresh_wrap"), (anon,)).indicator
        assert Sym("fresh_wrap") not in terms._INDICATORS


class TestCounts:
    def test_table_refs_are_pinned_per_kind(self):
        # Each term below is held by this frame's local only; getrefcount
        # adds its argument.  The rest are the tables' own: the value slot,
        # a symbol's or variable's ``(term, -1)`` indicator, and for a
        # name its ``_INDICATORS`` key plus one per arity tuple.
        variable, symbol, number = Var("RcVar"), Sym("rc_sym"), Num(918273)
        application = App(Sym("rc_f"), (Sym("rc_leaf"),))
        assert getrefcount(variable) - 2 == terms._table_refs(variable) == 2
        assert getrefcount(symbol) - 2 == terms._table_refs(symbol) == 2
        assert getrefcount(number) - 2 == terms._table_refs(number) == 2
        assert getrefcount(application) - 2 == terms._table_refs(application) == 1

        sym_name = Sym("rc_name")
        app_name = App(Sym("rc_g"), (symbol,))
        for name in (sym_name, app_name):
            App(name, (symbol,))
            App(name, (symbol, symbol))
        del name
        collect_terms()  # the four applications go, their names stay
        assert getrefcount(sym_name) - 2 == terms._table_refs(sym_name) == 5
        assert getrefcount(app_name) - 2 == terms._table_refs(app_name) == 4
        assert set(terms._INDICATORS[sym_name]) == {1, 2}


class TestCalibration:
    def test_counts_read_true_and_probes_leave_nothing(self):
        before = intern_table_sizes()
        indicators = len(terms._INDICATORS)
        assert terms._counts_exact()
        assert intern_table_sizes() == before
        assert len(terms._INDICATORS) == indicators

    def test_a_count_off_by_any_amount_evicts_nothing(self, monkeypatch):
        # Shift every count the sweep reads.  The wrapper's own frame adds
        # a reference, so which shift reads true is found, not assumed:
        # exactly one does, and every other one evicts nothing, not even a
        # term nobody holds, and keeps a term held from one place.
        real = sys.getrefcount
        exact = []
        for shift in range(-3, 4):
            monkeypatch.setattr(terms, "getrefcount",
                                lambda obj, shift=shift: real(obj) + shift)
            monkeypatch.setattr(terms, "_COUNTS_EXACT", None)
            held = parse_term("calib_held(ch_c%d)" % shift)
            _rendered("calib_dropped(cd_c%d)" % shift)
            before = intern_table_sizes()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                stats = collect_terms()
            assert _interned(held) and _interned(held.args[0])
            if stats["exact_counts"]:
                exact.append(shift)
                assert not caught
                assert _reparse_is_fresh("calib_dropped(cd_c%d)" % shift)
            else:
                assert stats["evicted_total"] == 0
                assert stats["sizes"] == intern_table_sizes() == before
                assert [w.category for w in caught] == [RuntimeWarning]
            del held
        assert len(exact) == 1

    @pytest.mark.parametrize("lacking", ["getrefcount", "gil"])
    def test_no_getrefcount_or_no_gil_evicts_nothing(self, monkeypatch, lacking):
        _rendered("no_count(nc_c1)")
        before = intern_table_sizes()
        monkeypatch.setattr(terms, "_COUNTS_EXACT", None)
        if lacking == "getrefcount":
            monkeypatch.setattr(terms, "getrefcount", None)
        else:
            monkeypatch.setattr(sys, "_is_gil_enabled", lambda: False,
                                raising=False)
        with pytest.warns(RuntimeWarning):
            stats = collect_terms()
        assert stats["exact_counts"] is False
        assert stats["evicted_total"] == 0
        assert intern_table_sizes() == before
        monkeypatch.undo()
        collect_terms()
        assert _reparse_is_fresh("no_count(nc_c1)")


class TestAccounting:
    def test_table_sizes_track_births_and_eviction(self):
        gc.collect()
        gc.disable()  # nothing else dies behind the exact counts below
        try:
            collect_terms()
            before = intern_table_sizes()
            term = parse_term("acct_f(acct_a, 77321, AcctV)")
            born = intern_table_sizes()
            assert {kind: born[kind] - before[kind] for kind in before} \
                == {"var": 1, "sym": 2, "num": 1, "app": 1}
            del term
            stats = collect_terms()
        finally:
            gc.enable()
        assert stats["evicted"] == {"var": 1, "sym": 2, "num": 1, "app": 1}
        assert stats["sizes"] == intern_table_sizes() == before


class TestRace:
    def test_hit_between_count_and_delete_puts_the_entry_back(self, monkeypatch):
        # Simulate the lock-free hit of another thread: the moment the sweep
        # has counted the target as unheld, something takes it.
        _rendered("race_target_sym")
        taken = []
        table_refs = terms._table_refs

        def hit_after_count(term):
            if not taken and type(term) is Sym and term.name == "race_target_sym":
                taken.append(Sym("race_target_sym"))
            return table_refs(term)

        monkeypatch.setattr(terms, "_table_refs", hit_after_count)
        collect_terms()
        monkeypatch.undo()
        assert taken and hasattr(taken[0], "_text")
        assert _interned(taken[0])
        assert Sym("race_target_sym") is taken[0]

    def test_app_hit_between_count_and_delete_puts_the_entry_back(self, monkeypatch):
        # The same race on an application: the entry is keyed by its name
        # and arguments, and putting it back keeps its children too.
        _rendered("race_app(ra_c1)")
        taken = []
        table_refs = terms._table_refs

        def hit_after_count(term):
            if (not taken and type(term) is App
                    and getattr(term.name, "name", None) == "race_app"):
                taken.append(App(Sym("race_app"), (Sym("ra_c1"),)))
            return table_refs(term)

        monkeypatch.setattr(terms, "_table_refs", hit_after_count)
        collect_terms()
        monkeypatch.undo()
        assert taken and hasattr(taken[0], "_text")
        assert _interned(taken[0]) and _interned(taken[0].args[0])
        assert parse_term("race_app(ra_c1)") is taken[0]

    def test_miss_on_another_thread_does_not_wait_for_the_pass(self, monkeypatch):
        # Mid-pass, another thread interns a new structure: it gets the
        # intern lock while the sweep is still counting.
        done = threading.Event()
        table_refs = terms._table_refs

        def build():
            parse_term("mid_sweep_miss(msm_c1)")
            done.set()

        def miss_mid_pass(term):
            if not hasattr(miss_mid_pass, "thread") and _interned(term):
                miss_mid_pass.thread = threading.Thread(target=build)
                miss_mid_pass.thread.start()
                assert done.wait(10)
            return table_refs(term)

        monkeypatch.setattr(terms, "_table_refs", miss_mid_pass)
        collect_terms()
        monkeypatch.undo()
        miss_mid_pass.thread.join(10)
        assert done.is_set()

    def test_reader_threads_keep_identity_while_collect_runs(self):
        # Readers parse atoms of the model, and atoms absent from it, while
        # the writer sweeps: every answer is the stored atom itself, and an
        # atom a reader holds stays the canonical object.
        chain = " ".join("e(rc%d, rc%d)." % (i, i + 1) for i in range(30))
        errors = []
        with ServingSession("tc(X, Y) :- e(X, Y). " + chain) as serving:
            stored = {repr(atom): atom for atom in serving.session.store}

            def read(offset):
                try:
                    for _ in range(20):
                        for i in range(30):
                            text = "tc(rc%d, rc%d)" % (i, i + 1)
                            with serving.reader() as reader:
                                (answer,) = reader.query(text)
                                assert answer is stored[text]
                            absent = parse_term("tc(rc%d, gone%d)" % (i, offset))
                            assert parse_term(repr(absent)) is absent
                except BaseException as error:  # reported on the main thread
                    errors.append(error)

            readers = [threading.Thread(target=read, args=(n,)) for n in range(3)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # switch threads inside the sweep
            try:
                for thread in readers:
                    thread.start()
                sweeps = 0
                while any(thread.is_alive() for thread in readers):
                    serving.collect().result(10)
                    sweeps += 1
            finally:
                for thread in readers:
                    thread.join(30)
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert not errors, errors[0]
        assert sweeps >= 1
