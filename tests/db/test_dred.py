"""A session's delete-rederive: the engine's shared step, as
:func:`repro.db.maintenance.dred_update` calls it.

The alternating fixpoint calls the same deletion and insertion halves
(``tests/engine/test_overestimate_maintenance.py`` checks every one of its
calls); here the session's path is held to the ground oracle on the shapes
the two callers share, and its work to being a function of the input alone.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core.modular import perfect_model_for_hilog
from repro.db import DatabaseSession
from repro.db.modes import with_facts
from repro.hilog.parser import parse_program

#: Replays a DAG-closure churn stream, then a win/move churn stream — the
#: game with a positive recursion, whose rederivation probes depend on the
#: order the cone is walked in, and strata reading the three-valued game,
#: whose probes depend on the order undefined atoms are stored in — in
#: single and paired moves, and prints the executor's counters.
REPLAY = """
import json
from repro.db import DatabaseSession
from repro.engine.seminaive import EXECUTION_STATS
from repro.hilog.parser import parse_program
from repro.hilog.pretty import format_program
from repro.workloads.closure import transitive_closure_program
from repro.workloads.games import normal_game_program
from repro.workloads.graphs import random_dag_edges, random_graph_edges
from repro.workloads.streams import edge_churn_stream, replay

def work(session, stream):
    before = EXECUTION_STATS.snapshot()
    replay(session, stream)
    assert session.check()
    return EXECUTION_STATS.diff(before)

edges = random_dag_edges(30, 60, seed=11)
closure = work(DatabaseSession(transitive_closure_program(edges)),
               edge_churn_stream(edges, operations=16, seed=11))
moves = random_graph_edges(30, 45, seed=13)
links = random_graph_edges(30, 20, seed=12)
game = DatabaseSession(
    format_program(normal_game_program(moves))
    + "winning(X) :- link(X, Y), move(Y, Z), winning(Y)."
    + "losing(X) :- move(Y, X), not winning(X)."
    + "duel(X, Y) :- move(X, Y), not winning(Y)."
    + "threat(X) :- duel(X, Y), link(Y, Z), not losing(Z)."
    + " ".join("link(%s, %s)." % link for link in links))
assert game.mode == "wellfounded"
games = [work(game, edge_churn_stream(moves, relation="move", operations=12,
                                      batch=batch, seed=11))
         for batch in (1, 2)]
print(json.dumps([closure] + games))
"""


def _oracle_agrees(session, rules):
    expected = perfect_model_for_hilog(
        with_facts(parse_program(rules), session.edb()), strategy="ground"
    )
    return session.true == expected.true


@pytest.mark.parametrize("rules, batch", [
    # Both negated atoms are asserted in one batch ...
    ("p(X) :- q(X), not r(X), not s(X).", "r(a). s(a)."),
    # ... or derived, in a lower stratum, from one assertion.
    ("p(X) :- q(X), not r(X), not s(X).  r(X) :- t(X).  s(X) :- t(X).",
     "t(a)."),
])
def test_several_negations_of_one_instance_proven_together(rules, batch):
    """The alternation's named regression on the session's path: an
    instance whose two negated atoms become true in the same update must be
    sought with each anchor reading the other against the *old* state —
    against the new one, both anchors miss it and ``p(a)`` outlives it."""
    session = DatabaseSession(rules + " q(a). q(b).")
    assert session.strategies()[-1] == "dred" and session.ask("p(a)")
    summary = session.insert(batch)
    assert "p(a)" in map(repr, summary.removed) and not session.ask("p(a)")
    assert session.check() and _oracle_agrees(session, rules)
    # Both negated atoms go again in one batch: the insertion half brings
    # the instance back.
    summary = session.retract(batch)
    assert "p(a)" in map(repr, summary.added)
    assert session.check() and _oracle_agrees(session, rules)


def test_work_does_not_depend_on_the_hash_seed():
    """Over-deleted facts are probed in the order they were found, a cone
    is walked in the order it was found, and a session materializes its EDB
    and its undefined atoms in ``repr`` order, so a replay — delete-rederive
    and cone steps alike — does the same work under any
    ``PYTHONHASHSEED``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    counters = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        completed = subprocess.run(
            [sys.executable, "-c", REPLAY], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        counters.append(json.loads(completed.stdout))
    assert counters[0] == counters[1]
    assert all(work["candidates"] > 0 for work in counters[0])
    assert counters[0][1]["alternations"] > 0
