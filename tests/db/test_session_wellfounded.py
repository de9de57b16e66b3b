"""Property tests for sessions over *non-stratified* programs.

These programs used to be bounced to the Figure-1 grounding fallback —
which outright rejects them once a ground negation loop appears — so a
session over a cyclic win/move game either crawled or failed.  They now
route through the semi-naive well-founded fallback: the session maintains
the three-valued well-founded model under insert/retract/transaction
churn — its three-valued strata by the cone step, which re-alternates only
the atoms a write can reach — and every step is compared against a
from-scratch ground oracle (and the session's own ``check()``).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.modular import perfect_model_for_hilog
from repro.core.semantics import hilog_well_founded_model
from repro.db import DatabaseSession, modes
from repro.engine.seminaive import SeminaiveUnsupported, seminaive_well_founded
from repro.hilog.errors import GroundingError
from repro.hilog.parser import parse_program, parse_term
from repro.hilog.pretty import format_program
from repro.hilog.program import Program, Rule
from repro.hilog.terms import App, Sym
from repro.obs.trace import EvaluationTracer, tracing
from repro.workloads.games import (
    datahilog_game_program,
    hilog_game_program,
    normal_game_program,
)
from repro.workloads.graphs import chain_edges, cycle_edges, random_dag_edges
from repro.workloads.random_programs import random_nonstratified_program

WIN_MOVE_RULES = """
    winning(X) :- move(X, Y), not winning(Y).
"""

#: Win/move plus a stratified stratum reading the (possibly undefined)
#: game atoms — the strata-mixing shape the alternating evaluator handles.
MIXED_RULES = """
    winning(X) :- move(X, Y), not winning(Y).
    drawn(X) :- node(X), not winning(X), not losing(X).
    losing(X) :- node(X), not winning(X).
"""

NODES = ("a", "b", "c", "d")


def _atom(name, *args):
    return App(Sym(name), tuple(Sym(a) for a in args))


def _ops():
    """Candidate facts to toggle: every possible move edge plus node tags
    (cycles form and break constantly along a random trajectory)."""
    moves = [_atom("move", x, y) for x in NODES for y in NODES if x != y]
    nodes = [_atom("node", x) for x in NODES]
    return st.lists(st.sampled_from(moves + nodes), min_size=1, max_size=20)


def _oracle(rules_text, edb):
    """Ground-oracle partition of the accumulated program."""
    program = parse_program(rules_text)
    full = Program(program.rules + tuple(Rule(atom) for atom in sorted(edb, key=repr)))
    model = hilog_well_founded_model(full)
    return model.true, model.undefined


def _toggle_and_compare(rules_text, operations):
    session = DatabaseSession(rules_text)
    assert session.mode == "wellfounded"
    for atom in operations:
        if atom in session.edb():
            summary = session.retract(atom)
        else:
            summary = session.insert(atom)
        assert summary.mode == "wellfounded"
        true, undefined = _oracle(rules_text, session.edb())
        assert session.true == true
        assert session.undefined == undefined
        assert session.is_total() == (not undefined)
    assert session.check()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ops())
def test_win_move_session_agrees_with_ground_oracle(operations):
    _toggle_and_compare(WIN_MOVE_RULES, operations)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ops())
def test_mixed_strata_session_agrees_with_ground_oracle(operations):
    _toggle_and_compare(MIXED_RULES, operations)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ops(), st.integers(min_value=1, max_value=4))
def test_batched_transactions_agree(operations, batch):
    session = DatabaseSession(WIN_MOVE_RULES)
    for start in range(0, len(operations), batch):
        chunk = operations[start:start + batch]
        with session.transaction() as txn:
            staged = set(session.edb())
            for atom in chunk:
                if atom in staged:
                    txn.retract(atom)
                    staged.discard(atom)
                else:
                    txn.insert(atom)
                    staged.add(atom)
        true, undefined = _oracle(WIN_MOVE_RULES, session.edb())
        assert session.true == true
        assert session.undefined == undefined
    assert session.check()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ops())
def test_summaries_track_the_undefined_partition(operations):
    """Replaying the summaries' four diffs reconstructs the maintained
    true/undefined partitions exactly."""
    session = DatabaseSession(WIN_MOVE_RULES)
    true = set(session.true)
    undefined = set(session.undefined)
    for atom in operations:
        if atom in session.edb():
            summary = session.retract(atom)
        else:
            summary = session.insert(atom)
        true |= set(summary.added)
        true -= set(summary.removed)
        undefined |= set(summary.undefined_added)
        undefined -= set(summary.undefined_removed)
        assert true == session.true
        assert undefined == session.undefined


def test_value_and_query_on_partial_model():
    session = DatabaseSession(WIN_MOVE_RULES)
    session.insert("move(a, b). move(b, a). move(c, a). move(d, e).")
    assert session.value("winning(a)") == "undefined"
    assert session.value("winning(d)") == "true"
    assert session.value("winning(e)") == "false"
    assert not session.ask("winning(a)")  # undefined is not certainly true
    # Queries answer from the certainly-true store.
    assert {repr(a) for a in session.query("winning(X)")} == {"winning(d)"}
    stats = session.stats()
    assert stats["mode"] == "wellfounded"
    assert stats["undefined_facts"] == 3
    assert stats["wellfounded_updates"] == 1


# -- Example 6.3 on the engine: name-open rules specialised by a binder ------

EXAMPLE_63 = "winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y)."


def _assert_is_the_well_founded_model(session, rules_text=EXAMPLE_63):
    true, undefined = _oracle(rules_text, session.edb())
    assert session.true == true and session.undefined == undefined
    assert session.check()


def _figure_1_is_never_entered(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the Figure-1 fallback ran")

    monkeypatch.setattr(modes, "perfect_model_for_hilog", refuse)


@pytest.mark.parametrize("make, winning", [
    (hilog_game_program, "winning(%s)(%s)"),
    (datahilog_game_program, "winning(%s, %s)"),
])
def test_parameterized_games_run_on_the_engine(monkeypatch, make, winning):
    _figure_1_is_never_entered(monkeypatch)
    # The ledger's ``hilog-recompute`` data model: two games over DAGs.
    program = make({"m1": random_dag_edges(10, 20, seed=1),
                    "m2": random_dag_edges(10, 20, seed=2)})
    session = DatabaseSession(program)
    assert session.mode == "wellfounded" and session.is_total()
    assert session.true == perfect_model_for_hilog(program).true
    summary = session.insert("m1(n9, n10).")
    assert summary.mode == "wellfounded"
    assert session.value(winning % ("m1", "n9")) == "true"
    _assert_is_the_well_founded_model(
        session, format_program(Program(tuple(program.proper_rules()))))
    monkeypatch.undo()
    with pytest.raises(SeminaiveUnsupported):
        DatabaseSession(program, strategy="incremental")
    assert DatabaseSession(program, strategy="recompute").mode == "recompute"


def test_hilog_game_on_a_cycle_is_served_three_valued(monkeypatch):
    """What the Figure-1 fallback could never serve: it raised
    ``StratificationError`` opening a session on a cyclic move relation
    and failed the batch of a write that closed a cycle."""
    _figure_1_is_never_entered(monkeypatch)
    cycle = cycle_edges(4)
    session = DatabaseSession(hilog_game_program(
        {"m1": cycle + [("c1", "out")], "m2": cycle_edges(3, "d")}
    ))
    assert session.mode == "wellfounded"
    # m2 is a pure cycle: undefined from the start; m1's escape resolves it.
    assert session.value("winning(m2)(d0)") == "undefined"
    assert [session.value("winning(m1)(c%d)" % i) for i in range(4)] == \
        ["false", "true", "false", "true"]
    _assert_is_the_well_founded_model(session)

    summary = session.retract("m1(c1, out).")  # closes the cycle
    assert parse_term("winning(m1)(c1)") in summary.removed
    assert {repr(a) for a in summary.undefined_added} == \
        {"winning(m1)(c%d)" % i for i in range(4)}
    assert session.value("winning(m1)(c1)") == "undefined"
    assert not session.ask("winning(m1)(c1)")
    _assert_is_the_well_founded_model(session)

    summary = session.insert("m1(c1, out).")  # breaks it again
    assert len(summary.undefined_removed) == 4
    assert session.value("winning(m1)(c1)") == "true"
    _assert_is_the_well_founded_model(session)

    session.insert("m2(d0, sink).")
    assert session.value("winning(m2)(d0)") == "true" and session.is_total()
    _assert_is_the_well_founded_model(session)


def test_binder_churn_recompiles_once_per_binder_write():
    session = DatabaseSession(hilog_game_program(
        {"m1": chain_edges(4), "m2": chain_edges(3, "b")}
    ))
    tracer = EvaluationTracer()
    with tracing(tracer):
        session.insert("m1(n4, n5).")
        session.retract("m2(b0, b1).")
        assert tracer.events("specialise") == []  # edge writes reuse every plan

        summary = session.insert("game(m3). m3(x, y). m3(y, z).")
        assert parse_term("winning(m3)(y)") in summary.added
        assert len(tracer.events("specialise")) == 1
        _assert_is_the_well_founded_model(session)

        before = {a for a in session.true if repr(a).startswith("winning(m2)")}
        assert before
        summary = session.retract("game(m2).")
        assert before <= set(summary.removed)
        assert len(tracer.events("specialise")) == 2
        assert session.query("winning(m2)(X)") == ()
        _assert_is_the_well_founded_model(session)

        session.insert("m3(z, w).")
        assert len(tracer.events("specialise")) == 2


def test_a_write_that_would_resettle_a_head_is_refused_and_rolled_back():
    session = DatabaseSession("""
        winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
        result(X) :- winning(m1)(X).
        game(m2). m1(a, b). m2(a, b).
    """)
    assert session.mode == "wellfounded"
    before = session.true
    with pytest.raises(SeminaiveUnsupported, match="re-settled"):
        session.insert("game(m1).")  # winning(m1)/1 was read as empty
    assert session.true == before
    assert parse_term("game(m1)") not in session.edb()
    assert session.check()
    session.insert("m2(b, c).")
    assert session.value("winning(m2)(b)") == "true" and session.check()


def test_instances_count_against_max_facts():
    program = "on(P)(X) :- rel(P), P(X), not off(X).\n" + \
        " ".join("rel(r%d)." % i for i in range(6))
    session = DatabaseSession(program, max_facts=8)
    assert session.mode == "wellfounded"
    session.insert("rel(r6). rel(r7).")
    before = session.true
    with pytest.raises(GroundingError):
        session.insert("rel(r8).")
    assert session.true == before and session.check()


# -- the cone step: a write re-alternates what it can reach ------------------

def _with_facts(rules, edb):
    return Program(rules.rules + tuple(Rule(atom) for atom in sorted(edb, key=repr)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10**6),
       multi_negation=st.integers(min_value=0, max_value=2),
       name_open=st.integers(min_value=0, max_value=1),
       data=st.data())
def test_every_write_leaves_the_model_a_fresh_walk_computes(
        seed, multi_negation, name_open, data):
    """The net under per-stratum maintenance: fifteen toggles of the
    program's facts and their argument-reversed twins, each held to a fresh
    walk of the whole program, and a sampled one to the ground oracle."""
    program = random_nonstratified_program(
        seed=seed, multi_negation=multi_negation, name_open=name_open)
    rules = Program(tuple(program.proper_rules()))
    facts = [rule.head for rule in program.facts()]
    toggles = list(dict.fromkeys(
        facts + [App(atom.name, atom.args[::-1]) for atom in facts]))
    session = DatabaseSession(program)
    assert session.mode == "wellfounded"
    sampled = data.draw(st.integers(min_value=0, max_value=14))
    for step in range(15):
        atom = data.draw(st.sampled_from(toggles))
        if atom in session.edb():
            session.retract(atom)
        else:
            session.insert(atom)
        walked = seminaive_well_founded(_with_facts(rules, session.edb()))
        assert session.true == walked.true
        assert session.undefined == walked.undefined
        if step == sampled:
            oracle = hilog_well_founded_model(_with_facts(rules, session.edb()))
            assert oracle.true == walked.true
            assert oracle.undefined == walked.undefined


def _agrees_with_the_oracle(session, rules_text):
    true, undefined = _oracle(rules_text, session.edb())
    assert session.true == true and session.undefined == undefined
    assert session.check()


def test_the_cone_joins_read_the_atoms_the_write_makes_possible():
    """q(a) and r(a) both become possible in one write, so the instance
    ``p(a) :- q(a), r(a)`` is found only by a join that reads the cone
    itself.  Joined over what was possible before, p(a) stays out of the
    cone, the write's delta misses it and w(a) above keeps its old value."""
    rules = """
        q(X) :- s(X), not t(X).
        r(X) :- s(X), not t(X).
        p(X) :- q(X), r(X).
        t(X) :- u(X), not p(X).
        w(X) :- v(X), not p(X).
    """
    session = DatabaseSession(rules + "v(a).")
    assert session.strategies() == ("alternating", "dred")
    assert session.ask("w(a)")
    summary = session.insert("s(a).")
    assert {"p(a)", "q(a)", "r(a)"} <= set(map(repr, summary.added))
    assert "w(a)" in map(repr, summary.removed)
    _agrees_with_the_oracle(session, rules)


def test_the_cone_joins_read_the_atoms_the_write_made_impossible():
    """Both positive lower atoms of ``p(a)``'s one instance go in one
    batch: each anchor reads the other only among the atoms that just
    stopped being possible."""
    rules = """
        p(X) :- e(X), f(X), not q(X).
        q(X) :- g(X), not p(X).
    """
    session = DatabaseSession(rules + "e(a). f(a).")
    assert session.ask("p(a)")
    summary = session.retract("e(a). f(a).")
    assert "p(a)" in map(repr, summary.removed)
    _agrees_with_the_oracle(session, rules)


def test_an_asserted_atom_in_the_cone_stays_true():
    """The write puts the asserted winning(b) in its cone, where no rule
    derives it any more: only the assertion keeps it true.  Asserting an
    undefined atom makes it true, and retracting it lets the cone decide."""
    session = DatabaseSession(WIN_MOVE_RULES + "move(c, d). winning(b).")
    summary = session.insert("move(b, c).")
    assert session.value("winning(b)") == "true"
    assert "winning(b)" not in map(repr, summary.removed)
    _agrees_with_the_oracle(session, WIN_MOVE_RULES)

    session.insert("move(e, f). move(f, e).")
    assert session.value("winning(e)") == "undefined"
    summary = session.insert("winning(e).")
    assert {repr(a) for a in summary.undefined_removed} == \
        {"winning(e)", "winning(f)"}
    assert session.value("winning(e)") == "true"
    assert session.value("winning(f)") == "false"
    _agrees_with_the_oracle(session, WIN_MOVE_RULES)

    summary = session.retract("winning(b).")
    assert session.value("winning(b)") == "false"
    _agrees_with_the_oracle(session, WIN_MOVE_RULES)


def test_several_negations_of_one_instance_proven_by_one_write():
    """The alternation's named regression on the session path: the write
    proves a(1) and b(1) in one alternation of the cone, and each anchor
    must read the other against the old underestimate, or p(1) is left
    undefined."""
    rules = """
        p(X) :- n(X), not a(X), not b(X).
        a(X) :- n(X), not c(X).
        b(X) :- n(X), not c(X).
        c(X) :- n(X), not p(X), z(X).
    """
    session = DatabaseSession(rules + "z(2).")
    session.insert("n(1).")
    assert session.value("p(1)") == "false" and session.is_total()
    _agrees_with_the_oracle(session, rules)


def test_a_lower_atom_flipping_undefined_to_false_reaches_the_strata_above():
    """winning(a) goes from undefined to false — no true atom changes below
    — and the strata reading it are two-valued after the write: they must
    take the cone step all the same, as they read an atom that *was*
    undefined."""
    session = DatabaseSession(
        MIXED_RULES + "move(a, b). move(b, a). node(a). node(b).")
    assert session.strategies() == ("alternating",) * 3
    assert session.value("losing(a)") == "undefined"
    summary = session.retract("move(a, b).")
    assert session.value("winning(a)") == "false"
    assert "winning(a)" in map(repr, summary.undefined_removed)
    assert "winning(a)" not in map(repr, summary.removed)
    assert session.value("losing(a)") == "true"
    assert session.value("drawn(a)") == "false"
    assert session.is_total()
    assert session.strategies() == ("alternating", "dred", "dred")
    _agrees_with_the_oracle(session, MIXED_RULES)


def test_a_write_reports_the_strata_and_the_cone_it_reached():
    session = DatabaseSession(MIXED_RULES + """
        move(a, b). move(b, a). move(c, d). node(a). node(b). node(c).
    """)
    tracer = EvaluationTracer()
    with tracing(tracer):
        summary = session.insert("move(d, e).")
    assert summary.mode == "wellfounded" and summary.strata_touched == 3
    assert session.stats()["alternating_updates"] == 3
    (span,) = tracer.events("maintenance")
    cones = tracer.events("cone")
    assert len(cones) == 3
    assert span["cone"] == sum(cone["atoms"] for cone in cones) > 0
    assert span["alternations"] == sum(cone["alternations"] for cone in cones)
    assert {repr(a) for a in summary.added} == \
        {"move(d, e)", "winning(d)", "losing(c)"}
    assert {repr(a) for a in summary.removed} == {"winning(c)"}


def test_a_restored_session_walks_once_then_maintains(tmp_path):
    directory = str(tmp_path / "data")
    session = DatabaseSession(WIN_MOVE_RULES + "move(a, b). move(b, a).",
                              path=directory)
    session.close()
    restored = DatabaseSession.open(directory)
    assert restored.strategies() == ()
    restored.insert("move(b, c).")
    assert restored.stats()["rebuilds"] == 1
    assert restored.strategies() == ("alternating",)
    restored.retract("move(b, c).")
    assert restored.stats()["rebuilds"] == 1
    assert restored.stats()["alternating_updates"] == 1
    _agrees_with_the_oracle(restored, WIN_MOVE_RULES)
    restored.close()


def test_a_write_costs_its_cone_not_the_walk():
    """On a path of 200 positions a move at the far end flips every
    position behind it — a cone of 200 — while a move into the start
    reaches one position and costs a small fraction of a walk."""
    from repro.engine.seminaive import EXECUTION_STATS

    program = normal_game_program(chain_edges(199, "n"))
    session = DatabaseSession(program)
    before = EXECUTION_STATS.snapshot()
    seminaive_well_founded(program)
    walk = EXECUTION_STATS.diff(before)
    tracer = EvaluationTracer()
    with tracing(tracer):
        session.insert("move(n199, n200).")
        before = EXECUTION_STATS.snapshot()
        session.insert("move(x, n0).")
        head = EXECUTION_STATS.diff(before)
    assert [cone["atoms"] for cone in tracer.events("cone")] == [200, 1]
    assert head["candidates"] * 20 < walk["candidates"]
    _agrees_with_the_oracle(session, WIN_MOVE_RULES)
