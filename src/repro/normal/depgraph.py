"""The predicate dependency graph of a normal program.

Modular stratification (paper, Section 6) is defined in terms of the
strongly connected components of the predicate dependency graph: ``P_i ⊏
P_j`` when ``P_j`` contains a rule whose body mentions a predicate defined
in ``P_i``.  The graph structure, its components and the stratification
analysis over them live in :mod:`repro.hilog.depgraph` (shared with the
production engine and the linter, which build graphs over other node
kinds); this module builds the normal-program graph, whose nodes are
:class:`repro.normal.classify.PredicateSignature`, and re-exports the shared
names.
"""

from __future__ import annotations

from repro.hilog.depgraph import DependencyGraph, strongly_connected_components
from repro.normal.classify import atom_signature

__all__ = ["DependencyGraph", "strongly_connected_components", "predicate_dependency_graph"]


def predicate_dependency_graph(program):
    """The predicate dependency graph of a normal program.

    Nodes are predicate signatures; there is an edge from the head's
    predicate to each body literal's predicate, labelled negative when the
    body literal is negative.  Aggregate conditions are negative
    dependencies: the paper treats aggregation like negation for
    stratification, because the condition's extension must be complete
    before the fold runs.
    """
    graph = DependencyGraph()
    for rule in program.rules:
        head_signature = atom_signature(rule.head)
        if head_signature is None:
            raise ValueError("not a normal program: head %r" % (rule.head,))
        graph.add_node(head_signature)
        for literal in rule.body:
            if literal.is_builtin():
                continue
            body_signature = atom_signature(literal.atom)
            if body_signature is None:
                raise ValueError("not a normal program: body atom %r" % (literal.atom,))
            graph.add_edge(head_signature, body_signature, negative=literal.negative)
        for aggregate in rule.aggregates:
            condition_signature = atom_signature(aggregate.condition)
            if condition_signature is None:
                raise ValueError(
                    "not a normal program: aggregate condition %r" % (aggregate.condition,)
                )
            graph.add_edge(head_signature, condition_signature, negative=True)
    return graph
