"""Property tests for sessions over *non-stratified* programs.

These programs used to be bounced to the Figure-1 grounding fallback —
which outright rejects them once a ground negation loop appears — so a
session over a cyclic win/move game either crawled or failed.  They now
route through the semi-naive well-founded fallback: the session maintains
the three-valued well-founded model under insert/retract/transaction
churn, and every step is compared against a from-scratch ground oracle
(and the session's own ``check()``).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.modular import perfect_model_for_hilog
from repro.core.semantics import hilog_well_founded_model
from repro.db import DatabaseSession, modes
from repro.engine.seminaive import SeminaiveUnsupported
from repro.hilog.errors import GroundingError
from repro.hilog.parser import parse_program, parse_term
from repro.hilog.pretty import format_program
from repro.hilog.program import Program, Rule
from repro.hilog.terms import App, Sym
from repro.obs.trace import EvaluationTracer, tracing
from repro.workloads.games import datahilog_game_program, hilog_game_program
from repro.workloads.graphs import chain_edges, cycle_edges, random_dag_edges

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
