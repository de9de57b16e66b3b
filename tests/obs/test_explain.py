"""Derivation-provenance explain: trees re-verify, witnesses close loops."""

import pytest

from repro.db import DatabaseSession
from repro.engine.seminaive import EXECUTION_STATS
from repro.hilog.parser import parse_program, parse_term
from repro.hilog.pretty import format_term
from repro.obs.explain import (
    Derivation,
    ExplainError,
    explain_atom,
    verify_derivation,
)

TC = """
    e(n0, n1). e(n1, n2). e(n2, n3).
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
"""

GAME = """
    winning(X) :- move(X, Y), not winning(Y).
    move(a, b). move(b, a).    % 2-cycle: undefined
    move(c, a).                % enters the cycle: undefined
    move(n0, n1). move(n1, n2).% line: n1 wins, n0 and n2 lose
"""


def _session_explain(session, text):
    tree = session.explain(text)
    assert verify_derivation(tree, session.store, edb=session.edb(),
                             undefined=session.undefined)
    return tree


class TestTrueAtoms:
    def test_edb_fact_is_a_leaf(self):
        session = DatabaseSession(TC)
        tree = _session_explain(session, "e(n0, n1)")
        assert tree.kind == "edb" and not tree.children
        assert tree.meta == {}

    def test_derived_atom_recurses_to_edb(self):
        session = DatabaseSession(TC)
        tree = _session_explain(session, "tc(n0, n3)")
        assert tree.kind == "rule"
        # n0->n3 takes three hops: depth tracks the chain.
        assert tree.depth() == 4
        leaves = []

        def collect(node):
            if not node.children:
                leaves.append(node)
            for child in node.children:
                collect(child)

        collect(tree)
        assert all(leaf.kind == "edb" for leaf in leaves)
        assert [format_term(leaf.atom) for leaf in leaves] == [
            "e(n0, n1)", "e(n1, n2)", "e(n2, n3)",
        ]

    def test_trees_stay_valid_after_updates(self):
        session = DatabaseSession(TC)
        session.insert("e(n3, n4).")
        _session_explain(session, "tc(n0, n4)")
        session.retract("e(n1, n2).")
        tree = session.explain("tc(n0, n4)")
        assert tree.kind == "false"

    def test_chain_200_explains_and_verifies(self):
        edges = " ".join("e(n%d, n%d)." % (i, i + 1) for i in range(200))
        session = DatabaseSession(edges + """
            tc(X, Y) :- e(X, Y).
            tc(X, Y) :- e(X, Z), tc(Z, Y).
        """)
        tree = _session_explain(session, "tc(n0, n200)")
        # 200 hops: one rule node per hop plus one EDB leaf per hop.
        assert tree.depth() == 201
        assert tree.size() == 400

    def test_left_linear_chain_is_explained_through_the_indexes(self):
        depth = 200
        edges = " ".join("e(n%d, n%d)." % (i, i + 1) for i in range(depth))
        session = DatabaseSession(
            edges + "reach(n0). reach(Y) :- reach(X), e(X, Y).")
        before = EXECUTION_STATS.snapshot()
        tree = _session_explain(session, "reach(n%d)" % depth)
        spent = EXECUTION_STATS.diff(before)
        assert tree.depth() == depth + 1
        # Per hop: one indexed fetch of e(X, n) on its second argument and
        # one probe of reach(X) — never a scan of either relation.
        assert 0 < spent["fetches"] <= 4 * depth
        assert spent["candidates"] <= 4 * depth

    def test_depth_600_explains_serialises_and_verifies(self):
        depth = 600
        edges = " ".join("e(n%d, n%d)." % (i, i + 1) for i in range(depth))
        session = DatabaseSession(
            edges + "reach(n%d). reach(X) :- e(X, Y), reach(Y)." % depth)
        tree = _session_explain(session, "reach(n0)")
        assert (tree.depth(), tree.size()) == (depth + 1, 2 * depth + 1)
        payload = tree.to_dict()
        for _hop in range(depth):
            assert payload["kind"] == "rule"
            payload = payload["children"][1]
        assert payload == {"atom": "reach(n%d)" % depth, "kind": "edb"}
        assert tree.to_json().count('"kind"') == 2 * depth + 1

    def test_negation_leaf_in_stratified_program(self):
        session = DatabaseSession("""
            node(a). node(b). edge(a, b).
            isolated(X) :- node(X), not connected(X).
            connected(X) :- edge(X, Y).
            connected(Y) :- edge(X, Y).
        """)
        tree = _session_explain(session, "isolated(a)")
        # 'a' has an outgoing edge, so it is connected, not isolated.
        assert tree.kind == "false"

    def test_builtin_leaf(self):
        session = DatabaseSession("""
            n(1). n(2). n(3).
            big(X) :- n(X), X > 1.
        """)
        tree = _session_explain(session, "big(2)")
        kinds = [child.kind for child in tree.children]
        assert kinds == ["edb", "builtin"]


HILOG_GAME = """
    winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
    game(m1). m1(a, b). m1(b, c). m1(c, d). m1(a, d).
"""


@pytest.mark.parametrize("strategy, mode, program, kinds", [
    ("auto", "incremental", TC, {"edb", "rule"}),
    ("auto", "wellfounded", GAME, {"edb", "rule", "undefined"}),
    ("auto", "wellfounded", HILOG_GAME, {"edb", "rule"}),
    ("auto", "wellfounded", HILOG_GAME + "m1(d, c). game(m2). m2(x, y).",
     {"edb", "rule", "undefined"}),
    ("recompute", "recompute", HILOG_GAME, {"edb", "rule"}),
])
def test_every_atom_of_the_model_explains_in_every_mode(
        strategy, mode, program, kinds):
    session = DatabaseSession(program, strategy=strategy)
    assert session.mode == mode
    atoms = sorted(session.true | session.undefined, key=repr)
    assert {_session_explain(session, atom).kind for atom in atoms} == kinds


class TestFalseAndErrors:
    def test_false_atom(self):
        session = DatabaseSession(TC)
        tree = _session_explain(session, "tc(n3, n0)")
        assert tree.kind == "false" and not tree.children

    def test_nonground_atom_rejected(self):
        program = parse_program(TC)
        from repro.engine.seminaive import seminaive_evaluate

        result = seminaive_evaluate(program)
        with pytest.raises(ExplainError):
            explain_atom(parse_term("tc(n0, X)"), program, result.store)

    def test_session_rejects_non_atom_text(self):
        from repro.hilog.errors import ParseError

        session = DatabaseSession(TC)
        with pytest.raises((ExplainError, ParseError)):
            session.explain("tc(n0, n1) :- e(n0, n1)")


class TestUndefinedAtoms:
    def test_loop_witness_closes_the_cycle(self):
        session = DatabaseSession(GAME)
        assert session.value("winning(a)") == "undefined"
        tree = _session_explain(session, "winning(a)")
        assert tree.kind == "undefined" and tree.rule is not None

        def find_loop(node):
            if node.kind == "loop":
                return node
            for child in node.children:
                found = find_loop(child)
                if found is not None:
                    return found
            return None

        loop = find_loop(tree)
        assert loop is not None
        cycle = loop.meta["cycle"]
        assert cycle[0] == cycle[-1]
        assert set(cycle) <= {"winning(a)", "winning(b)"}

    def test_chain_into_cycle(self):
        session = DatabaseSession(GAME)
        assert session.value("winning(c)") == "undefined"
        tree = _session_explain(session, "winning(c)")
        assert tree.kind == "undefined"

    def test_true_atoms_in_three_valued_model_still_explain(self):
        session = DatabaseSession(GAME)
        tree = _session_explain(session, "winning(n1)")
        assert tree.kind == "rule"
        assert [child.kind for child in tree.children] == [
            "edb", "negation",
        ]


class TestVerifier:
    def test_rejects_fabricated_edb(self):
        session = DatabaseSession(TC)
        fake = Derivation(parse_term("e(n9, n9)"), "edb")
        with pytest.raises(ExplainError):
            verify_derivation(fake, session.store, edb=session.edb())

    def test_rejects_wrong_rule_instance(self):
        session = DatabaseSession(TC)
        tree = session.explain("tc(n0, n2)")
        # Re-point the root at an atom its instance does not derive.
        forged = Derivation(parse_term("tc(n0, n3)"), "rule",
                            rule=tree.rule, children=tree.children)
        with pytest.raises(ExplainError):
            verify_derivation(forged, session.store, edb=session.edb())

    def test_rejects_loop_that_does_not_close(self):
        session = DatabaseSession(GAME)
        loop = Derivation(parse_term("winning(a)"), "loop")
        with pytest.raises(ExplainError):
            # no 'undefined' ancestor carrying winning(a) on the chain
            verify_derivation(loop, session.store, edb=session.edb(),
                              undefined=session.undefined)

    def test_rejects_false_claim_on_true_atom(self):
        session = DatabaseSession(TC)
        fake = Derivation(parse_term("tc(n0, n1)"), "false")
        with pytest.raises(ExplainError):
            verify_derivation(fake, session.store, edb=session.edb())


class TestPlumbing:
    def test_to_dict_is_json_ready(self):
        import json

        session = DatabaseSession(TC)
        payload = session.explain("tc(n0, n2)").to_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["kind"] == "rule"
        assert round_tripped["atom"] == "tc(n0, n2)"
        assert "rule" in round_tripped and "children" in round_tripped

    def test_to_json_is_the_encoding_of_to_dict(self):
        import json

        session = DatabaseSession(GAME)
        for atom in sorted(session.true | session.undefined, key=repr):
            tree = session.explain(atom)
            assert tree.to_json() == json.dumps(tree.to_dict())

    def test_explain_atom_outside_a_session(self):
        program = parse_program(TC)
        from repro.engine.seminaive import seminaive_evaluate

        result = seminaive_evaluate(program)
        tree = explain_atom(parse_term("tc(n0, n3)"), program, result.store,
                            edb=frozenset(a for a in result.store
                                          if format_term(a).startswith("e(")))
        assert tree.kind == "rule" and tree.depth() == 4

    def test_size_and_depth(self):
        leaf = Derivation(parse_term("a"), "edb")
        root = Derivation(parse_term("b"), "rule", children=(leaf,))
        assert (root.size(), root.depth()) == (2, 2)
