"""Stratification and local stratification (Definitions 6.1 and 6.2).

* A normal program is **stratified** when predicate names can be assigned
  ordinal levels such that in every rule the head's level is strictly greater
  than the level of every negatively occurring predicate and at least as
  great as the level of every positively occurring predicate.

* A normal program is **locally stratified** when the same holds for ground
  atoms over the Herbrand instantiation.  For the finite ground programs this
  reproduction works with, local stratification is equivalent to the ground
  atom dependency graph having no cycle that contains a negative edge, which
  is what :func:`is_locally_stratified_ground` checks.

Both are the one analysis of :mod:`repro.hilog.depgraph` asked of two graphs:
the predicate dependency graph and the ground atom dependency graph.
"""

from __future__ import annotations

from repro.hilog.depgraph import DependencyGraph
from repro.normal.depgraph import predicate_dependency_graph


def stratification_levels(program):
    """Assign predicate levels witnessing stratification, or return ``None``.

    A component's level is the maximum over its dependencies of (dependency
    level + 1 for negative edges — aggregate conditions included —
    dependency level for positive edges); if a negative edge stays *inside*
    a component the program is not stratified.
    """
    return predicate_dependency_graph(program).levels()


def is_stratified(program):
    """Definition 6.1: does a level assignment on predicate names exist?"""
    return stratification_levels(program) is not None


def ground_dependency_graph(ground_program):
    """The atom dependency graph of a ground program (edges head -> body atom)."""
    graph = DependencyGraph()
    for rule in ground_program.rules:
        graph.add_node(rule.head)
        for atom in rule.positive:
            graph.add_edge(rule.head, atom, negative=False)
        for atom in rule.negative:
            graph.add_edge(rule.head, atom, negative=True)
    for atom in ground_program.base:
        graph.add_node(atom)
    return graph


def is_locally_stratified_ground(ground_program):
    """Definition 6.2 on a finite ground program: no cycle through negation.

    Equivalent to: within every strongly connected component of the ground
    atom dependency graph there is no negative edge.
    """
    cycle_edges = ground_dependency_graph(ground_program).negative_cycle_edges()
    return next(cycle_edges, None) is None


def local_stratification_levels(ground_program):
    """Ground-atom levels witnessing local stratification, or ``None``.

    Provided mainly for the tests of Example 6.1: the win/move program over
    an acyclic move graph is locally stratified only "per game position"."""
    return ground_dependency_graph(ground_program).levels()
