"""Update-sequence builders for incremental-maintenance workloads.

The one-shot workload generators (:mod:`repro.workloads.closure`,
:mod:`repro.workloads.games`) produce static programs; this module produces
*streams of updates* against them — the scenarios a long-lived
:class:`~repro.db.session.DatabaseSession` exists for.  A stream is a list
of :class:`Update` steps, each an ``insert`` or ``retract`` of a batch of
ground facts; :func:`replay` pushes a stream through a session (optionally
verifying the maintained model against a from-scratch recomputation after
every step, as the E11 benchmark and the property tests do).

All generators are deterministic given their ``seed``.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Tuple

from repro.hilog.terms import App, Sym, Term

INSERT = "insert"
RETRACT = "retract"


class Update(NamedTuple):
    """One step of an update stream."""

    #: ``"insert"`` or ``"retract"``.
    action: str
    #: The ground atoms of the batch.
    atoms: Tuple[Term, ...]


def edge_atom(relation, source, target):
    """The ground atom ``relation(source, target)``."""
    return App(Sym(relation), (Sym(source), Sym(target)))


def _edge_atoms(relation, edges):
    return tuple(edge_atom(relation, source, target) for source, target in edges)


def insert_edges(relation, edges):
    """An ``insert`` update of edge facts."""
    return Update(INSERT, _edge_atoms(relation, edges))


def retract_edges(relation, edges):
    """A ``retract`` update of edge facts."""
    return Update(RETRACT, _edge_atoms(relation, edges))


def edge_churn_stream(base_edges, relation="e", operations=40, batch=1,
                      node_pool=None, seed=0):
    """Random single/batched edge inserts and retracts over a base edge set.

    Starts from ``base_edges`` (assumed already loaded into the session) and
    alternates randomly between inserting fresh edges drawn from
    ``node_pool`` (default: the nodes of the base edges) and retracting
    currently-present edges.  Returns a list of :class:`Update`.
    """
    rng = random.Random(seed)
    present = set(base_edges)
    if node_pool is None:
        nodes = sorted({n for edge in base_edges for n in edge})
    else:
        nodes = list(node_pool)
    stream = []
    for _ in range(operations):
        retractable = sorted(present)
        if retractable and (rng.random() < 0.5 or len(nodes) < 2):
            chosen = [retractable[rng.randrange(len(retractable))]
                      for _ in range(batch)]
            chosen = list(dict.fromkeys(chosen))
            present.difference_update(chosen)
            stream.append(retract_edges(relation, chosen))
        else:
            fresh = []
            for _ in range(batch * 4):
                if len(fresh) >= batch:
                    break
                source = nodes[rng.randrange(len(nodes))]
                target = nodes[rng.randrange(len(nodes))]
                if source != target and (source, target) not in present:
                    fresh.append((source, target))
                    present.add((source, target))
            if not fresh:
                continue
            stream.append(insert_edges(relation, fresh))
    return stream


def growing_chain_stream(start, length, relation="e", prefix="n"):
    """Extend a chain one edge at a time: ``n<start> -> ... -> n<start+length>``.

    The scenario behind the E11 headline numbers — appending to a
    transitive-closure session where every insert touches a fresh suffix.
    """
    return [
        insert_edges(relation, [("%s%d" % (prefix, i), "%s%d" % (prefix, i + 1))])
        for i in range(start, start + length)
    ]


def sliding_window_stream(edges, relation="e", window=20):
    """Stream a fixed-size window over an edge list: each step inserts the
    next edge and retracts the one falling out of the window (the classic
    stream-join churn shape)."""
    stream = []
    for index, edge in enumerate(edges):
        stream.append(insert_edges(relation, [edge]))
        if index >= window:
            stream.append(retract_edges(relation, [edges[index - window]]))
    return stream


def win_move_stream(nodes, base_edges, relation="m", operations=30, seed=0,
                    prefix="d"):
    """Edge churn over a win/move game graph, kept acyclic.

    Nodes are ``<prefix>0 .. <prefix><nodes-1>`` and every edge goes from a
    lower-numbered node to a higher one, so the game stays modularly
    stratified (a DAG) under every prefix of the stream: Figure 1 accepts
    every step, whichever session mode serves it.
    """
    rng = random.Random(seed)
    present = set(base_edges)
    stream = []
    for _ in range(operations):
        retractable = sorted(present)
        if retractable and rng.random() < 0.5:
            edge = retractable[rng.randrange(len(retractable))]
            present.discard(edge)
            stream.append(retract_edges(relation, [edge]))
        elif nodes >= 2:
            source = rng.randrange(0, nodes - 1)
            target = rng.randrange(source + 1, nodes)
            edge = ("%s%d" % (prefix, source), "%s%d" % (prefix, target))
            if edge in present:
                continue
            present.add(edge)
            stream.append(insert_edges(relation, [edge]))
    return stream


def replay(session, stream, verify=False, on_step=None):
    """Push a stream of :class:`Update` steps through a session.

    With ``verify=True`` the maintained model is checked against a
    from-scratch recomputation after every step (slow — for tests and
    benchmarks).  ``on_step(index, update, summary)`` is called after each
    step when given.  Returns the list of
    :class:`~repro.db.session.UpdateSummary` results.
    """
    summaries = []
    for index, update in enumerate(stream):
        if update.action == INSERT:
            summary = session.insert(update.atoms)
        elif update.action == RETRACT:
            summary = session.retract(update.atoms)
        else:
            raise ValueError("unknown stream action %r" % (update.action,))
        summaries.append(summary)
        if verify:
            session.check()
        if on_step is not None:
            on_step(index, update, summary)
    return summaries
