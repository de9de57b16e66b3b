"""Unit tests for :mod:`repro.db`: sessions, transactions, maintenance
strategies, session-backed queries, and the disaster fallbacks."""

import pytest

from repro.core.magic.evaluate import answer_from_store, magic_evaluate
from repro.db import (
    DRED,
    RECOMPUTE,
    DatabaseSession,
    SessionError,
    SessionIntegrityError,
    open_session,
)
from repro.hilog.errors import GroundingError
from repro.hilog.parser import parse_program, parse_query, parse_term
from repro.workloads.closure import hilog_closure_program, transitive_closure_program
from repro.workloads.games import datahilog_game_program, normal_game_program
from repro.workloads.graphs import chain_edges, random_dag_edges

TC = """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    e(a, b). e(b, c).
"""

STRATIFIED = """
    reach(X) :- source(X).
    reach(Y) :- reach(X), e(X, Y).
    unreached(X) :- node(X), not reach(X).
    source(a).
    node(a). node(b). node(c). node(d).
    e(a, b). e(b, c).
"""


class TestSessionBasics:
    def test_materializes_perfect_model(self):
        session = DatabaseSession(TC)
        assert session.mode == "incremental"
        assert session.ask("tc(a, c)")
        assert not session.ask("tc(c, a)")
        assert session.check()

    def test_insert_maintains_model(self):
        session = DatabaseSession(TC)
        summary = session.insert("e(c, d).")
        assert summary.inserted == 1
        assert parse_term("tc(a, d)") in set(summary.added)
        assert session.ask("tc(a, d)")
        assert session.check()

    def test_retract_maintains_model(self):
        session = DatabaseSession(TC)
        summary = session.retract("e(b, c).")
        assert summary.retracted == 1
        assert parse_term("tc(a, c)") in set(summary.removed)
        assert not session.ask("tc(a, c)")
        assert session.ask("tc(a, b)")
        assert session.check()

    def test_duplicate_insert_and_missing_retract_are_noops(self):
        session = DatabaseSession(TC)
        assert session.insert("e(a, b).").inserted == 0
        assert session.retract("e(z, z).").retracted == 0
        assert session.check()

    def test_insert_of_already_derived_fact_survives_retraction(self):
        session = DatabaseSession(TC)
        session.insert("tc(a, c).")  # already derived; now asserted too
        session.retract("tc(a, c).")
        assert session.ask("tc(a, c)")  # still rule-derived
        session.retract("e(b, c).")
        assert not session.ask("tc(a, c)")
        assert session.check()

    def test_asserted_idb_fact_persists_without_rule_support(self):
        session = DatabaseSession(TC)
        session.insert("tc(c, z).")
        assert session.ask("tc(c, z)")
        assert session.check()
        session.retract("tc(c, z).")
        assert not session.ask("tc(c, z)")
        assert session.check()

    def test_non_ground_updates_rejected(self):
        session = DatabaseSession(TC)
        with pytest.raises(GroundingError):
            session.insert(parse_term("e(a, X)"))

    def test_rules_in_updates_rejected(self):
        session = DatabaseSession(TC)
        with pytest.raises(ValueError):
            session.insert("p(X) :- q(X).")

    def test_conflicting_batch_rejected(self):
        session = DatabaseSession(TC)
        with pytest.raises(ValueError):
            session.update(inserts="e(x, y).", retracts="e(x, y).")

    def test_open_session_helper(self):
        session = open_session(TC)
        assert session.ask("tc(a, c)")


class TestStrategies:
    def test_tc_is_dred(self):
        assert DatabaseSession(TC).strategies() == (DRED,)

    def test_nonrecursive_join_is_dred(self):
        session = DatabaseSession("""
            hop2(X, Y) :- e(X, Z), e(Z, Y).
            e(a, b). e(b, c). e(a, c).
        """)
        assert session.strategies() == (DRED,)
        session.insert("e(c, d).")
        session.retract("e(b, c).")
        assert session.check()
        assert session.stats()["dred_updates"] == 2

    def test_dred_keeps_a_fact_with_a_second_derivation(self):
        # hop2(a, c) has two derivations; retracting one leaves the other.
        session = DatabaseSession("""
            hop2(X, Y) :- e(X, Z), e(Z, Y).
            e(a, b1). e(b1, c). e(a, b2). e(b2, c).
        """)
        hop = parse_term("hop2(a, c)")
        summary = session.retract("e(a, b1).")
        assert session.ask("hop2(a, c)") and hop not in summary.removed
        summary = session.retract("e(a, b2).")
        assert not session.ask("hop2(a, c)") and hop in summary.removed
        assert session.check()

    def test_stratified_negation_uses_dred(self):
        session = DatabaseSession(STRATIFIED)
        assert session.strategies() == (DRED, DRED)
        session.retract("e(a, b).")
        assert session.ask("unreached(b)")
        session.insert("e(a, c).")
        assert session.ask("reach(c)")
        assert not session.ask("unreached(c)")
        assert session.check()

    def test_aggregates_use_stratum_recompute(self):
        session = DatabaseSession("""
            total(X, N) :- node(X), N = sum(P : weight(X, Y, P)).
            node(a). node(b).
            weight(a, u, 3). weight(a, v, 4). weight(b, u, 5).
        """)
        assert RECOMPUTE in session.strategies()
        session.insert("weight(a, w, 10).")
        assert session.ask("total(a, 17)")
        session.retract("weight(b, u, 5).")
        assert not session.query("total(b, N)")
        assert session.check()

    def test_untouched_strata_are_skipped(self):
        session = DatabaseSession("""
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            other(X) :- base(X).
            e(a, b). base(u).
        """)
        summary = session.insert("base(v).")
        assert summary.strata_touched == 1
        summary = session.insert("e(b, c).")
        assert summary.strata_touched == 1
        assert session.check()

    def test_higher_order_definite_session_is_incremental(self):
        session = DatabaseSession(
            hilog_closure_program({"g1": chain_edges(4), "g2": chain_edges(3, "m")})
        )
        assert session.mode == "incremental"
        session.insert("graph(g3). g3(x, y). g3(y, z).")
        assert session.query("tc(g3)(x, Z)") == (
            parse_term("tc(g3)(x, y)"), parse_term("tc(g3)(x, z)"),
        )
        session.retract("g1(n1, n2).")
        assert session.check()


class TestRecomputeMode:
    def test_win_move_routes_through_wellfounded_fallback(self):
        # Win/move recurses through negation inside its component, so the
        # incremental machinery declines — but the session now lands on the
        # semi-naive well-founded fallback, not the grounding path.
        session = DatabaseSession(normal_game_program([("a", "b"), ("b", "c")]))
        assert session.mode == "wellfounded"
        assert session.is_total()
        assert session.ask("winning(b)")
        session.insert("move(c, d).")
        assert session.ask("winning(c)")
        assert not session.ask("winning(b)")  # b's move now leads to a winner
        assert session.check()

    def test_recompute_strategy_forces_mode(self):
        session = DatabaseSession(TC, strategy="recompute")
        assert session.mode == "recompute"
        session.insert("e(c, d).")
        assert session.ask("tc(a, d)")
        assert session.check()

    def test_unevaluable_update_rolls_back(self):
        # Figure 1 owns the verdict: under auto the engine serves this game
        # three-valued (tests/db/test_session_wellfounded.py).
        session = DatabaseSession(
            datahilog_game_program({"m": [("a", "b")]}), strategy="recompute"
        )
        assert session.mode == "recompute"
        before = session.true
        with pytest.raises(Exception):
            session.insert("m(b, a).")  # cycle: not modularly stratified
        assert session.true == before
        assert parse_term("m(b, a)") not in session.edb()

    @pytest.mark.parametrize("strategy", ["bogus", "incremental", "wellfounded"])
    def test_unknown_strategy_rejected(self, strategy):
        """``"auto"`` and ``"recompute"`` are the only strategies: the mode
        labels ``"incremental"`` and ``"wellfounded"`` describe a walked
        session, and select nothing."""
        with pytest.raises(ValueError):
            DatabaseSession(TC, strategy=strategy)


class TestTransactions:
    def test_batched_commit(self):
        session = DatabaseSession(TC)
        with session.transaction() as txn:
            txn.insert("e(c, d). e(d, f).")
            txn.retract("e(a, b).")
        assert session.ask("tc(b, f)")
        assert not session.ask("tc(a, b)")
        assert session.check()

    def test_last_operation_wins_within_batch(self):
        session = DatabaseSession(TC)
        with session.transaction() as txn:
            txn.insert("e(c, d).")
            txn.retract("e(c, d).")
        assert not session.ask("e(c, d)")
        with session.transaction() as txn:
            txn.retract("e(a, b).")
            txn.insert("e(a, b).")
        assert session.ask("e(a, b)")
        assert session.check()

    def test_exception_rolls_back(self):
        session = DatabaseSession(TC)
        with pytest.raises(RuntimeError):
            with session.transaction() as txn:
                txn.insert("e(x, y).")
                raise RuntimeError("abort")
        assert not session.ask("e(x, y)")

    def test_explicit_commit_returns_summary(self):
        session = DatabaseSession(TC)
        txn = session.transaction().insert("e(c, d).")
        summary = txn.commit()
        assert summary.inserted == 1
        assert txn.result is summary

    def test_nested_transaction_rejected(self):
        session = DatabaseSession(TC)
        with session.transaction() as txn:
            txn.insert("e(c, d).")
            with pytest.raises(SessionError, match="already open"):
                session.transaction()
        # the rejected open left the committed batch intact...
        assert session.ask("tc(a, d)")
        # ...and a closed transaction releases the slot
        with session.transaction() as txn:
            txn.insert("e(d, e).")
        assert session.ask("tc(a, e)")

    def test_reentrant_open_after_rollback_allowed(self):
        session = DatabaseSession(TC)
        txn = session.transaction().insert("e(x, y).")
        with pytest.raises(SessionError):
            session.transaction()
        txn.rollback()
        session.transaction().insert("e(c, d).").commit()
        assert session.ask("tc(a, d)") and not session.ask("e(x, y)")

    def test_closed_transaction_rejects_staging_and_recommit(self):
        session = DatabaseSession(TC)
        txn = session.transaction().insert("e(c, d).")
        txn.commit()
        with pytest.raises(SessionError, match="already committed"):
            txn.insert("e(d, e).")
        with pytest.raises(SessionError, match="already committed"):
            txn.commit()
        rolled = session.transaction()
        rolled.rollback()
        rolled.rollback()  # idempotent
        with pytest.raises(SessionError, match="rolled back"):
            rolled.retract("e(a, b).")

    def test_dropped_transaction_releases_slot(self):
        session = DatabaseSession(TC)
        txn = session.transaction()
        txn.insert("e(x, y).")
        del txn  # never committed — dropping it must not wedge the session
        session.transaction().insert("e(c, d).").commit()
        assert session.ask("tc(a, d)")


class TestQueries:
    def test_bound_query_from_store(self):
        session = DatabaseSession(transitive_closure_program(chain_edges(10)))
        answers = session.query("tc(n3, Y)")
        assert len(answers) == 7
        assert all(repr(a).startswith("tc(n3,") for a in answers)

    def test_query_reflects_maintenance(self):
        session = DatabaseSession(TC)
        assert len(session.query("tc(X, Y)")) == 3
        session.insert("e(c, d).")
        assert len(session.query("tc(X, Y)")) == 6

    def test_magic_evaluate_store_path(self):
        # ``magic_evaluate(store=)`` is gone; ``answer_from_store`` is the
        # function it dispatched to.
        program = transitive_closure_program(chain_edges(8))
        session = DatabaseSession(program)
        query = parse_query("tc(n2, Y)")
        stored = answer_from_store(session.store, query)
        plain = magic_evaluate(program, query)
        assert stored.answers == plain.answers
        assert stored.ground_rules == 0

    def test_conjunctive_query_answers_first_atom(self):
        # magic_evaluate's contract: answers are the true instances of the
        # *first* query atom; the store path preserves it for any shape.
        session = DatabaseSession(TC)
        answers = session.query("tc(a, X), tc(X, c)")
        assert parse_term("tc(a, b)") in answers

    def test_conjunctive_query_on_aggregate_program(self):
        # Aggregate programs reject the evaluating query paths, but the
        # session's maintained total model answers any shape from the store.
        session = DatabaseSession("""
            total(S) :- node(X), S = sum(V : val(X, V)).
            node(a). val(a, 4). val(a, 6).
        """)
        assert session.query("total(S), S > 1") == (parse_term("total(10)"),)
        assert session.query("not missing") == ()

    def test_ask_requires_ground(self):
        session = DatabaseSession(TC)
        with pytest.raises(GroundingError):
            session.ask("tc(a, X)")

    def test_atoms_held_from_an_earlier_summary_survive_collect(self):
        # Regression: a sweep used to evict the atoms of a retracted fact
        # although the caller still held them from the insert's summary, so
        # re-inserting the fact built twins the held atoms never matched.
        session = DatabaseSession("tc(X, Y) :- e(X, Y).")
        held = session.insert("e(x1, y1).").added
        session.retract("e(x1, y1).")
        session.collect()
        new = session.insert("e(x1, y1).").added
        assert len(held) == len(new) == 2
        assert all(old is atom for old, atom in zip(held, new))
        assert held[0] in session.query("e(x1, Y)")


    def test_rule_constants_survive_collect(self):
        # The compiled rules hold their constants: a sweep before any fact
        # mentions them keeps them canonical, so a later fact joins.
        session = DatabaseSession(
            "p(X) :- e(X, rule_only_c), not q(X, 80808). q(b1, 80808).")
        session.collect()
        session.insert("e(a1, rule_only_c). e(b1, rule_only_c).")
        assert session.query("p(X)") == (parse_term("p(a1)"),)
        assert session.check()


class TestIntrospection:
    def test_collect_returns_the_sweep_stats(self):
        from repro.hilog.terms import _SYM_INTERN, intern_table_sizes

        session = DatabaseSession(TC)
        session.insert("e(st_x, st_y).")
        session.retract("e(st_x, st_y).")
        stats = session.collect()
        assert set(stats) == {"evicted", "evicted_total", "sizes", "exact_counts"}
        assert stats["exact_counts"] is True
        assert stats["evicted_total"] == sum(stats["evicted"].values())
        assert stats["sizes"] == intern_table_sizes()
        # The retracted fact's constants were held by nothing.
        assert "st_x" not in _SYM_INTERN and "st_y" not in _SYM_INTERN

    def test_stats_and_model(self):
        session = DatabaseSession(TC)
        session.insert("e(c, d).")
        stats = session.stats()
        assert stats["updates"] == 1
        assert stats["mode"] == "incremental"
        assert stats["facts"] == len(session)
        model = session.model()
        assert model.is_total()
        assert model.is_true(parse_term("tc(a, d)"))

    def test_facts_accessor(self):
        session = DatabaseSession(TC)
        assert len(session.facts("e", 2)) == 2
        assert len(session.facts("tc", 2)) == 3

    def test_integrity_error_reports_divergence(self):
        session = DatabaseSession(TC)
        session.store.add(parse_term("tc(z, z)"))  # corrupt behind the API
        with pytest.raises(SessionIntegrityError):
            session.check()


class TestFallbacks:
    def test_stratum_recompute_then_retract_keeps_the_alternative(self):
        from repro.db.maintenance import Delta, recompute_stratum

        session = DatabaseSession("""
            p(X) :- e(X).
            p(X) :- f(X).
            e(one). f(one).
        """)
        assert session.strategies() == (DRED,)
        # Simulate the fallback path: recompute the stratum locally.
        recompute_stratum(
            session._plans[0], session.store, Delta(), session.edb(),
            session._limits,
        )
        # Retracting one derivation's fact must keep the other alive.
        session.retract("e(one).")
        assert session.ask("p(one)")
        assert session.check()

    def test_failed_update_rolls_back_incremental_session(self):
        program = """
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
            e(a, b).
        """
        session = DatabaseSession(program, max_facts=6)
        before_true = session.true
        before_edb = session.edb()
        with pytest.raises(GroundingError):
            session.insert("e(b, c). e(c, d). e(d, f).")  # blows the cap
        assert session.edb() == before_edb
        assert session.true == before_true
        assert session.check()
        # The session stays usable for updates that fit the cap.
        session.insert("e(b, c).")
        assert session.ask("tc(a, c)")

    def test_fact_cap_admits_a_model_of_exactly_max_facts(self):
        """The cap counts facts: ``r(d)``'s second derivation is not an
        eighth fact.  One fact fewer is still refused and rolled back."""
        rules = "r(X) :- e(a, X).  r(Y) :- r(X), e(X, Y)."
        three_edges = "e(a, b). e(a, c). e(b, d). " + rules
        assert len(DatabaseSession(three_edges + " e(c, d).", max_facts=7).true) == 7
        session = DatabaseSession(three_edges, max_facts=7)
        session.insert("e(c, d).")
        assert len(session.true) == 7 and session.check()

        with pytest.raises(GroundingError):
            DatabaseSession(three_edges + " e(c, d).", max_facts=6)
        session = DatabaseSession(three_edges, max_facts=6)
        before = session.true
        with pytest.raises(GroundingError):
            session.insert("e(c, d).")
        assert session.true == before and len(before) == 6 and session.check()

    @pytest.mark.parametrize("mode, rules", [
        ("incremental", "reach(Y) :- reach(X), e(X, Y)."),
        ("wellfounded", "reach(Y) :- reach(X), e(X, Y), not cut(Y).  "
                        "cut(Y) :- e(Y, Y), not reach(Y)."),
    ])
    @pytest.mark.parametrize("shape", ["thin", "fat"])
    def test_fact_cap_is_met_once_a_round(self, mode, rules, shape):
        """Inserting ``e(a, b)`` makes ``reach`` grow below ``b``: down a
        chain, one fact a round, or over a fan, nine facts in one round.
        The cap is met once per round, so a write that crosses it in a late
        round or partway through the fat one is refused all the same, and
        leaves the EDB and the model as they were; a model of exactly
        ``max_facts`` facts is accepted.  The well-founded session's
        ``reach`` alternates, so its write takes the cone step."""
        if shape == "thin":
            edges = " ".join("e(%s, %s)." % pair for pair in zip("bcdefghi", "cdefghij"))
            size = 19
        else:
            edges = " ".join("e(b, c%d)." % i for i in range(1, 10))
            size = 21
        program = "reach(a). " + edges + " " + rules
        session = DatabaseSession(program, strategy="auto", max_facts=size)
        assert session.mode == mode
        if mode == "wellfounded":
            assert session.strategies() == ("alternating",)
        session.insert("e(a, b).")
        assert len(session.true) == size and session.check()

        for cap in (size - 1, 16):
            session = DatabaseSession(program, strategy="auto", max_facts=cap)
            before, edb = session.true, session.edb()
            with pytest.raises(GroundingError, match="exceeded %d facts" % cap):
                session.insert("e(a, b).")
            assert session.true == before and session.edb() == edb
            assert session.check()

    def test_swap_at_the_fact_cap_keeps_the_delta_whole(self):
        """A batch that swaps ``e(a)`` for ``e(b)`` one fact below the cap
        publishes exactly the swapped model.  DRed deletes a stratum's lost
        facts before it inserts the new ones, so no step overshoots the cap
        and no stratum falls back."""
        session = DatabaseSession(
            "p(X, Y) :- e(X), f(Y).  q(X, Y) :- p(X, Y).  e(a). f(1). f(2). f(3).",
            max_facts=11,
        )
        assert len(session.true) == 10
        summary = session.update("e(b).", "e(a).")
        assert session.stats()["stratum_fallbacks"] == 0
        assert session.check()
        expected = {"e(b)"} | {
            "%s(b, %d)" % (name, n) for name in "pq" for n in (1, 2, 3)
        }
        assert {repr(atom) for atom in summary.added} == expected
        assert len(summary.removed) == 7 and len(session.true) == 10

    def test_rebuild_path_reports_accurate_diff(self, monkeypatch):
        import repro.db.session as session_module

        session = DatabaseSession(TC)

        def explode(*_args, **_kwargs):
            raise GroundingError("synthetic maintenance failure")

        # Both the incremental step and the stratum-local fallback must
        # fail before the whole-model rebuild path runs.
        monkeypatch.setattr(session_module, "dred_update", explode)
        monkeypatch.setattr(session_module, "recompute_stratum", explode)
        summary = session.insert("e(c, d).")
        monkeypatch.undo()
        assert summary.mode == "rebuild"
        assert parse_term("tc(a, d)") in set(summary.added)
        assert summary.removed == ()
        assert session.ask("tc(a, d)")
        assert session.check()


class TestStreams:
    def test_dag_closure_churn_agrees_with_scratch(self):
        from repro.workloads.streams import edge_churn_stream, replay

        edges = random_dag_edges(20, 40, seed=2)
        session = DatabaseSession(transitive_closure_program(edges))
        stream = edge_churn_stream(edges, operations=15, seed=2)
        replay(session, stream, verify=True)

    def test_win_move_stream_stays_correct(self):
        from repro.workloads.streams import replay, win_move_stream

        edges = random_dag_edges(12, 24, seed=4)
        session = DatabaseSession(datahilog_game_program({"m": edges}))
        stream = win_move_stream(12, edges, operations=8, seed=4)
        replay(session, stream, verify=True)
