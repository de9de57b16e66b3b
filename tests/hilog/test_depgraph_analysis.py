"""The shared stratification analysis of :mod:`repro.hilog.depgraph`, over
random signed digraphs: negative-cycle edges, levels and component order
answer one question consistently."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hilog.depgraph import DependencyGraph

_edges = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.booleans()), max_size=24)
_isolated = st.lists(st.integers(0, 9), max_size=3)


def _graph(edges, isolated):
    graph = DependencyGraph()
    for source, target, negative in edges:
        graph.add_edge(source, target, negative=negative)
    for node in isolated:
        graph.add_node(node)
    return graph


def _reaches(graph, start, goal):
    seen, frontier = set(), [start]
    while frontier:
        node = frontier.pop()
        if node == goal:
            return True
        if node not in seen:
            seen.add(node)
            frontier.extend(graph.successors(node))
    return False


@settings(max_examples=400, deadline=None)
@given(_edges, _isolated)
def test_levels_exist_exactly_when_no_negative_edge_closes_a_cycle(edges, isolated):
    graph = _graph(edges, isolated)
    cycle_edges = list(graph.negative_cycle_edges())
    # the iterator, restated by reachability instead of components
    assert sorted(cycle_edges) == sorted(
        (source, target) for source, target in graph.edges()
        if graph.is_negative_edge(source, target) and _reaches(graph, target, source))
    levels = graph.levels()
    assert (levels is None) == bool(cycle_edges)
    if levels is None:
        return
    # Definition 6.1, edge by edge
    assert set(levels) == set(graph.nodes)
    for source, target in graph.edges():
        if graph.is_negative_edge(source, target):
            assert levels[source] > levels[target]
        else:
            assert levels[source] >= levels[target]
    # ... and the least such assignment: nothing but an edge leaving a node's
    # component raises its level
    _components, component_of, _component_edges = graph.condensation()
    for node, level in levels.items():
        assert level == max(
            (levels[target] + graph.is_negative_edge(source, target)
             for source, target in graph.edges()
             if component_of[source] == component_of[node] != component_of[target]),
            default=0)


@settings(max_examples=400, deadline=None)
@given(_edges, _isolated)
def test_components_arrive_dependencies_first(edges, isolated):
    graph = _graph(edges, isolated)
    components, component_of, component_edges = graph.condensation()
    assert components == graph.strongly_connected_components()
    assert sorted(node for component in components for node in component) \
        == sorted(graph.nodes)
    for source, target in graph.edges():
        assert component_of[target] <= component_of[source]
        assert (component_of[source] == component_of[target]) \
            == _reaches(graph, target, source)
    for index, dependencies in component_edges.items():
        assert all(dependency < index for dependency in dependencies)
    # component levels exist whatever the cycles: +1 across a negative edge
    # between components, edges inside a component do not count
    component_levels = graph.component_levels()
    for source, target in graph.edges():
        if component_of[source] != component_of[target]:
            assert component_levels[component_of[source]] >= \
                component_levels[component_of[target]] \
                + graph.is_negative_edge(source, target)


def test_adding_an_edge_after_an_analysis_is_seen():
    graph = _graph([(1, 2, True)], [])
    assert graph.levels() == {1: 1, 2: 0}
    graph.add_edge(2, 1)
    assert graph.levels() is None
    assert list(graph.negative_cycle_edges()) == [(1, 2)]
