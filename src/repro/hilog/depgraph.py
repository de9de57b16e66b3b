"""Signed dependency graphs and the one stratification analysis.

Every stratification notion in the paper — stratified and locally stratified
programs (Definitions 6.1/6.2), the components of modular stratification
(Definitions 6.3/6.4, Figure 1), the engine's indicator-level strata — asks
one question of one structure: *does a negative edge lie inside a strongly
connected component of the dependency graph, and if not, what level does
each component get?*  :class:`DependencyGraph` answers both halves
(:meth:`~DependencyGraph.negative_cycle_edges`,
:meth:`~DependencyGraph.component_levels` / :meth:`~DependencyGraph.levels`)
over an iterative Tarjan (:func:`strongly_connected_components`).

The graph is generic over hashable nodes.  What the nodes *are* — predicate
signatures, ``(name, arity)`` indicators, ground name terms, ground atoms —
and which body literals contribute edges is each caller's business, so the
builders live with the callers; this module imports nothing above
:mod:`repro.hilog`.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple,
)

Node = Hashable


class DependencyGraph:
    """A directed graph with positively/negatively labelled edges."""

    def __init__(self) -> None:
        self._nodes: Set[Node] = set()
        self._edges: Dict[Node, Set[Node]] = {}
        self._negative_edges: Set[Tuple[Node, Node]] = set()
        # (components, component_of), dropped by every mutation.
        self._components: Optional[Tuple[List[FrozenSet[Node]], Dict[Node, int]]] = None

    def add_node(self, node: Node) -> None:
        self._nodes.add(node)
        self._edges.setdefault(node, set())
        self._components = None

    def add_edge(self, source: Node, target: Node, negative: bool = False) -> None:
        self.add_node(source)
        self.add_node(target)
        self._edges[source].add(target)
        if negative:
            self._negative_edges.add((source, target))

    @property
    def nodes(self) -> FrozenSet[Node]:
        return frozenset(self._nodes)

    def successors(self, node: Node) -> FrozenSet[Node]:
        return frozenset(self._edges.get(node, ()))

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        for source, targets in self._edges.items():
            for target in targets:
                yield source, target

    def is_negative_edge(self, source: Node, target: Node) -> bool:
        return (source, target) in self._negative_edges

    def _component_index(self) -> Tuple[List[FrozenSet[Node]], Dict[Node, int]]:
        if self._components is None:
            components = strongly_connected_components(self._nodes, self.successors)
            component_of = {
                node: index
                for index, component in enumerate(components)
                for node in component
            }
            self._components = components, component_of
        return self._components

    def strongly_connected_components(self) -> List[FrozenSet[Node]]:
        """The SCCs of the graph (as frozensets), dependencies first: a
        component is listed after every component it has an edge into."""
        return self._component_index()[0]

    def condensation(self):
        """Return (components, component_of, component_edges).

        ``components`` is the SCC list from
        :meth:`strongly_connected_components`, ``component_of`` maps a node
        to its component index and ``component_edges`` maps a component index
        to the set of component indices it depends on (its successors).
        """
        components, component_of = self._component_index()
        component_edges: Dict[int, Set[int]] = {index: set() for index in range(len(components))}
        for source, target in self.edges():
            source_component = component_of[source]
            target_component = component_of[target]
            if source_component != target_component:
                component_edges[source_component].add(target_component)
        return components, component_of, component_edges

    def negative_cycle_edges(self) -> Iterator[Tuple[Node, Node]]:
        """The negative edges that lie inside a strongly connected component
        — each closes a cycle through negation — in :meth:`edges` order.
        The graph is stratified exactly when there are none."""
        _components, component_of = self._component_index()
        negative = self._negative_edges
        for edge in self.edges():
            if edge in negative and component_of[edge[0]] == component_of[edge[1]]:
                yield edge

    def component_levels(self) -> List[int]:
        """The least level of each component, by component index: at least
        the level of every component it depends on, and one more across a
        negative edge.  Edges inside a component do not count, so the
        assignment exists even when :meth:`negative_cycle_edges` does not
        come up empty (the well-founded evaluator stratifies *around* its
        negation components)."""
        components, component_of = self._component_index()
        negative = self._negative_edges
        levels: List[int] = []
        for index, component in enumerate(components):
            level = 0
            for node in component:
                for successor in self._edges[node]:
                    target = component_of[successor]
                    if target != index:
                        # Dependencies first: ``levels[target]`` is final.
                        bump = (node, successor) in negative
                        level = max(level, levels[target] + bump)
            levels.append(level)
        return levels

    def levels(self) -> Optional[Dict[Node, int]]:
        """Node levels witnessing stratification (Definition 6.1: a node's
        level is at least that of its positive successors and strictly above
        that of its negative ones), or ``None`` when a cycle runs through a
        negative edge."""
        if next(self.negative_cycle_edges(), None) is not None:
            return None
        component_levels = self.component_levels()
        _components, component_of = self._component_index()
        return {node: component_levels[index] for node, index in component_of.items()}


def strongly_connected_components(
    nodes: Iterable[Node], successors: Callable[[Node], Iterable[Node]]
) -> List[FrozenSet[Node]]:
    """Iterative Tarjan's algorithm.

    ``successors`` is a callable from node to an iterable of successor nodes.
    Returns a list of frozensets, dependencies first: Tarjan emits a
    component only after every component it can reach, so each component
    comes before all components that can reach it.
    """
    nodes = list(nodes)
    index_counter = [0]
    indices = {}
    lowlinks = {}
    on_stack = set()
    stack = []
    components = []

    for start in nodes:
        if start in indices:
            continue
        work = [(start, iter(list(successors(start))))]
        indices[start] = lowlinks[start] = index_counter[0]
        index_counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in indices:
                    indices[child] = lowlinks[child] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(list(successors(child)))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(frozenset(component))
    return components
