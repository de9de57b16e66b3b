"""The overestimate as a maintained view: the engine's delete-rederive
step, as the alternation calls it, against the recompute it replaced.

From the second alternation on, ``_alternate_stratum`` patches the one
overestimate layer by delete-rederive instead of rebuilding it — the same
:func:`~repro.engine.seminaive.engine.delete_rederive` a session's DRed
calls.  Every test here runs the real walk with that step wrapped
(:func:`checked_shrinks`):
after **each** alternation the patched layer must equal ``Γ(U_k)`` computed
from scratch — ``evaluate_stratum`` into a fresh store over the same
``under`` / ``over_extra`` — and the final model must be the ground
oracle's.  Hand-written families cover the shapes the step has branches
for; a hypothesis property covers random non-stratified programs.

A well-founded session's cone step alternates too: its first overestimate
is the restore half of the same step over the cone
(:func:`checked_cone_overestimates`), its later alternations are the
walk's.  The last section holds every one of them to ``Γ(U_k)`` over the
session's stores, write after write.
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.semantics import well_founded_for_hilog
from repro.db import DatabaseSession
from repro.engine.seminaive import engine
from repro.engine.seminaive import plan as plan_module
from repro.engine.seminaive import seminaive_well_founded
from repro.engine.seminaive import wellfounded
from repro.engine.seminaive.engine import evaluate_stratum
from repro.engine.seminaive.relation import RelationStore, StoreView
from repro.hilog.errors import GroundingError
from repro.hilog.parser import parse_program, parse_term
from repro.hilog.pretty import format_program
from repro.hilog.program import Program, Rule
from repro.hilog.terms import App
from repro.workloads.games import hilog_game_program, normal_game_program
from repro.workloads.graphs import chain_edges, cycle_edges
from repro.workloads.random_programs import random_nonstratified_program


@contextlib.contextmanager
def checked_shrinks():
    """Run the walk with every call of the shared deletion step held to the
    from-scratch overestimate; yields the list of ``(overdeleted,
    rederived, removed, over_extra size)`` the calls reported."""
    shrink = wellfounded.delete_rederive
    log = []

    def checked(plans, layer, seeds, old, new, keep, limits):
        rounds, overdeleted, removed = shrink(
            plans, layer, seeds, old, new, keep, limits
        )
        under, over_extra, top = old.store.layers
        assert top is layer and not keep
        fresh = RelationStore()
        evaluate_stratum(
            plans.stratum, StoreView((under, over_extra, fresh)), limits,
            negation_store=under,
        )
        assert set(layer) == set(fresh)
        assert not any(atom in under for atom in layer)
        log.append((overdeleted, overdeleted - len(removed), len(removed),
                    len(over_extra)))
        return rounds, overdeleted, removed

    with mock.patch.object(wellfounded, "delete_rederive", checked):
        yield log


def _checked_model(program, **caps):
    """The semi-naive model of ``program``, every shrink checked, held to
    the ground oracle; returns ``(result, shrink log)``."""
    with checked_shrinks() as log:
        result = seminaive_well_founded(program, **caps)
    oracle = well_founded_for_hilog(program, strategy="ground")
    assert result.true == oracle.true
    assert result.undefined == oracle.undefined
    return result, log


class TestHandWrittenFamilies:
    def test_path_game_only_ever_deletes(self):
        # A path has no alternative moves: nothing over-deleted comes back.
        edges = chain_edges(12)
        result, log = _checked_model(normal_game_program(edges))
        assert result.is_total() and result.alternations == len(log) + 1 >= 5
        assert all(rederived == 0 for _o, rederived, _r, _e in log)
        # Every position with a move starts possibly winning; the losing
        # ones are what the shrinks took out.
        losing = len(edges) - len(result.derived)
        assert sum(removed for _o, _d, removed, _e in log) == losing > 0

    def test_alternative_moves_are_overdeleted_and_rederived(self):
        # a's move to b dies when b is proven; its move into the e/f cycle
        # keeps it possibly winning.
        program = normal_game_program(
            [("a", "b"), ("b", "c"), ("a", "e"), ("e", "f"), ("f", "e")]
        )
        result, log = _checked_model(program)
        assert parse_term("winning(a)") in result.undefined
        assert (1, 1, 0, 0) in log

    def test_positive_recursion_restores_a_head_through_another_atom(self):
        # win(d) is over-deleted first (its move to b dies) and no rule
        # rederives it from what is left; win(a), over-deleted after it,
        # survives through the e/f cycle, and the seeded fixpoint then
        # brings win(d) back through the positive ``boost`` rule.
        program = parse_program("""
            win(X) :- move(X, Y), not win(Y).
            win(X) :- boost(X, Y), win(Y).
            move(d, b). move(a, b). move(b, c).
            move(a, e). move(e, f). move(f, e).
            boost(d, a). boost(g, d).
        """)
        probed = []
        probe = engine.plan_satisfiable

        def spy(plan, sources, atom):
            found = probe(plan, sources, atom)
            if found:
                probed.append(atom)
            return found

        with mock.patch.object(engine, "plan_satisfiable", spy):
            result, log = _checked_model(program)
        assert {"win(a)", "win(d)", "win(g)"} <= set(map(repr, result.undefined))
        # All three were taken out and all three came back ...
        assert (3, 3, 0, 0) in log
        # ... win(a) by a rederivation probe, the other two behind it.
        assert probed == [parse_term("win(a)")]

    def test_positive_loop_inside_the_component_does_not_keep_itself_alive(self):
        # up(a) and up(b) support each other; once their only outside
        # support dies both must go, not rederive one another.
        program = parse_program("""
            up(X) :- base(X), not down(X).
            up(X) :- link(X, Y), up(Y).
            down(X) :- base(X), not blocked(X).
            blocked(X) :- gate(X), not up(X), never(X).
            base(a). link(a, b). link(b, a). gate(a).
        """)
        result, log = _checked_model(program)
        assert parse_term("down(a)") in result.true
        assert not {"up(a)", "up(b)"} & set(map(repr, result.true | result.undefined))
        assert (2, 0, 2, 0) in log

    def test_uncertain_lower_strata_stay_in_the_overestimate(self):
        # The lower game's cycle leaves m2(a, u0) undefined; the upper game
        # alternates down a path that hangs off it.
        edges = " ".join("bridge(%s, %s)." % edge for edge in chain_edges(9, "u"))
        program = parse_program("""
            win1(X) :- m1(X, Y), not win1(Y).
            m1(a, b). m1(b, a).
            m2(X, Y) :- bridge(X, Y), not win1(a).
            m2(X, Y) :- bridge(X, Y), sure(X).
            sure(u3). sure(u4). sure(u5). sure(u6). sure(u7). sure(u8).
            win2(X) :- m2(X, Y), not win2(Y).
        """ + edges)
        result, log = _checked_model(program)
        assert parse_term("m2(u1, u2)") in result.undefined
        assert parse_term("win2(u8)") in result.true
        assert len(log) >= 2 and all(extra > 0 for _o, _d, _r, extra in log)
        assert any(removed for _o, _d, removed, _e in log)

    def test_name_open_instances_shrink_like_any_stratum(self):
        games = {
            "m1": cycle_edges(4) + [("c1", "out"), ("t0", "c0"), ("t1", "t0")],
            "m2": chain_edges(7) + [("n2", "n6")],
        }
        result, log = _checked_model(hilog_game_program(games))
        assert result.true and result.alternations >= 4
        assert any(overdeleted for overdeleted, _d, _r, _e in log)

    def test_several_negations_of_one_instance_proven_together(self):
        program = parse_program("""
            p(X) :- n(X), not a(X), not b(X).
            a(X) :- n(X), not c(X).
            b(X) :- n(X), not c(X).
            c(X) :- n(X), not p(X), z(X).
            n(1). z(2).
        """)
        result, log = _checked_model(program)
        assert result.is_total() and parse_term("p(1)") not in result.true
        assert log == [(1, 0, 1, 0)]


class TestCaps:
    def test_the_cap_trips_inside_the_first_over_phase(self):
        # 19 moves and 19 possibly-winning positions: the facts fit under
        # the cap, the overestimate built over them does not.
        program = normal_game_program(chain_edges(19))
        with pytest.raises(GroundingError, match="exceeded 37 facts"):
            seminaive_well_founded(program, max_facts=37)

    def test_a_shrinking_overestimate_never_trips_it_again(self):
        program = normal_game_program(chain_edges(19))
        result, log = _checked_model(program, max_facts=38)
        assert result.alternations == len(log) + 1 > 5
        assert result.true == seminaive_well_founded(program).true


#: Sampler shapes for the property: the agreement harness's small one and
#: one large enough that most samples over-delete and many rederive (no
#: oracle grounds these, so size is cheap).
SHAPES = {
    "small": dict(n_predicates=4, n_constants=3, n_facts=8, n_rules=5,
                  cycle_length=2),
    "large": dict(n_predicates=5, n_constants=5, n_facts=20, n_rules=7,
                  cycle_length=3),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10**6),
       multi_negation=st.integers(min_value=0, max_value=3))
def test_every_alternation_leaves_the_from_scratch_overestimate(
        shape, seed, multi_negation, isolate_example):
    with isolate_example():
        program = random_nonstratified_program(
            seed=seed, multi_negation=multi_negation, **SHAPES[shape]
        )
        with checked_shrinks():
            try:
                seminaive_well_founded(program)
            except GroundingError:
                pass


def test_random_programs_do_reach_the_shrink_step():
    """The property above is only as good as its sampler."""
    shrinks = overdeleted = rederived = 0
    for seed in range(30):
        program = random_nonstratified_program(
            seed=seed, multi_negation=seed % 3, **SHAPES["large"]
        )
        with checked_shrinks() as log:
            seminaive_well_founded(program)
        shrinks += len(log)
        overdeleted += sum(entry[0] for entry in log)
        rederived += sum(entry[1] for entry in log)
    assert shrinks >= 30 and overdeleted >= 100 and rederived >= 20


WIN_MOVE = format_program(normal_game_program(
    cycle_edges(6) + chain_edges(8) + [("n3", "c2"), ("c4", "n5")]
))
EXAMPLE_6_3 = format_program(hilog_game_program({
    "m1": cycle_edges(5) + chain_edges(6) + [("n2", "c1")],
    "m2": chain_edges(5),
}))


@pytest.mark.parametrize("text, edge", [
    (WIN_MOVE, "move(n%d, c%d)."), (EXAMPLE_6_3, "m1(n%d, c%d)."),
])
def test_no_plan_is_compiled_once_the_session_is_open(text, edge):
    """One path, no knob: the flipped variants and the head-entry plans are
    compiled with the strata (and memoised with a specialisation), never by
    an alternation."""
    session = DatabaseSession(text)
    assert session.mode == "wellfounded"
    with mock.patch.object(
            plan_module, "_compile_registers",
            wraps=plan_module._compile_registers) as compiled:
        for step in range(10):
            fact = edge % (step % 5 + 1, step % 4)
            session.insert(fact)
            session.retract(fact)
        assert compiled.call_count == 0
    session.check()


# -- the cone step of a well-founded session ----------------------------------

@contextlib.contextmanager
def checked_cone_overestimates():
    """Run sessions with the cone step's first overestimate — the restore
    half of delete-rederive over the cone — held to ``Γ(U_0)`` from
    scratch; yields the list of the overestimate layers' sizes."""
    restore = wellfounded.rederive
    log = []

    def checked(plans, target, candidates, new, keep, limits):
        rounds = restore(plans, target, candidates, new, keep, limits)
        under, undefined, layer = target.layers
        assert new.store is target and new.negation is under and not keep
        fresh = RelationStore()
        evaluate_stratum(
            plans.stratum, StoreView((under, undefined, fresh)), limits,
            negation_store=under,
        )
        assert set(layer) == set(fresh)
        log.append(len(layer))
        return rounds

    with mock.patch.object(wellfounded, "rederive", checked):
        yield log


def _checked_writes(program, toggles):
    """Toggle each of ``toggles`` on a session of ``program`` with every
    alternation of every cone step checked, and the model after each write
    held to a fresh walk; returns ``(overestimates, shrinks)`` logged."""
    rules = [rule for rule in program.rules if not rule.is_fact()]
    session = DatabaseSession(program)
    with checked_cone_overestimates() as overestimates, \
            checked_shrinks() as shrinks:
        for atom in toggles:
            if atom in session.edb():
                session.retract(atom)
            else:
                session.insert(atom)
            walked = seminaive_well_founded(Program(tuple(rules) + tuple(
                Rule(fact) for fact in sorted(session.edb(), key=repr))))
            assert session.true == walked.true
            assert session.undefined == walked.undefined
    return overestimates, shrinks


class TestConeSteps:
    def test_path_game_writes(self):
        program = normal_game_program(chain_edges(12))
        overestimates, shrinks = _checked_writes(program, [
            parse_term(text) for text in (
                "move(n12, n13)", "move(n6, n2)", "move(n12, n13)",
                "move(n3, n4)", "move(n6, n2)", "move(n3, n4)",
            )
        ])
        assert len(overestimates) == 6 and len(shrinks) >= 6

    def test_cycle_writes_and_asserted_positions(self):
        program = normal_game_program(
            cycle_edges(5) + chain_edges(4) + [("n2", "c1")])
        overestimates, shrinks = _checked_writes(program, [
            parse_term(text) for text in (
                "move(c1, out)", "winning(c3)", "move(c1, out)",
                "move(n4, c0)", "winning(c3)", "move(c0, c1)",
            )
        ])
        assert any(overestimates) and any(entry[0] for entry in shrinks)

    def test_name_open_instance_writes(self):
        program = hilog_game_program({
            "m1": cycle_edges(4) + [("c1", "out"), ("t0", "c0")],
            "m2": chain_edges(6),
        })
        _checked_writes(program, [
            parse_term(text) for text in (
                "m1(c1, out)", "m2(n6, n7)", "m1(t1, t0)", "m1(c1, out)",
            )
        ])


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10**6),
       multi_negation=st.integers(min_value=0, max_value=3),
       data=st.data())
def test_every_cone_alternation_leaves_the_from_scratch_overestimate(
        shape, seed, multi_negation, data, isolate_example):
    with isolate_example():
        program = random_nonstratified_program(
            seed=seed, multi_negation=multi_negation, **SHAPES[shape]
        )
        facts = [rule.head for rule in program.facts()]
        toggles = facts + [App(atom.name, atom.args[::-1]) for atom in facts]
        try:
            _checked_writes(program, data.draw(
                st.lists(st.sampled_from(toggles), min_size=1, max_size=8)))
        except GroundingError:
            pass


def test_random_sessions_do_reach_the_cone_shrink():
    """The property above is only as good as its sampler."""
    overestimated = shrinks = overdeleted = 0
    for seed in range(20):
        program = random_nonstratified_program(
            seed=seed, multi_negation=seed % 3, **SHAPES["large"]
        )
        facts = [rule.head for rule in program.facts()]
        over, shrink = _checked_writes(program, facts[:4] + facts[:2])
        overestimated += sum(over)
        shrinks += len(shrink)
        overdeleted += sum(entry[0] for entry in shrink)
    assert overestimated >= 100 and shrinks >= 30 and overdeleted >= 30
