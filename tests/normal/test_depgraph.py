"""Tests for dependency graphs and strongly connected components."""

from repro.normal.classify import PredicateSignature
from repro.normal.depgraph import (
    DependencyGraph,
    predicate_dependency_graph,
    strongly_connected_components,
)
from repro.hilog.parser import parse_program


def sig(name, arity):
    return PredicateSignature(name, arity)


class TestSCC:
    def test_single_cycle(self):
        edges = {1: [2], 2: [3], 3: [1]}
        components = strongly_connected_components([1, 2, 3], lambda n: edges.get(n, []))
        assert components == [frozenset({1, 2, 3})]

    def test_two_components_reverse_topological(self):
        edges = {1: [2], 2: []}
        components = strongly_connected_components([1, 2], lambda n: edges.get(n, []))
        # Tarjan emits the component that depends on nothing first.
        assert components[0] == frozenset({2})
        assert components[1] == frozenset({1})

    def test_self_loop(self):
        components = strongly_connected_components([1], lambda n: [1])
        assert components == [frozenset({1})]

    def test_large_chain_no_recursion_error(self):
        size = 5000
        edges = {i: [i + 1] for i in range(size)}
        components = strongly_connected_components(range(size + 1), lambda n: edges.get(n, []))
        assert len(components) == size + 1


class TestDependencyGraph:
    def test_negative_edges(self):
        graph = DependencyGraph()
        graph.add_edge("a", "b", negative=True)
        graph.add_edge("a", "c")
        assert graph.is_negative_edge("a", "b")
        assert not graph.is_negative_edge("a", "c")

    def test_condensation(self):
        graph = DependencyGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        graph.add_edge("a", "c")
        components, component_of, component_edges = graph.condensation()
        assert frozenset({"a", "b"}) in components
        assert frozenset({"c"}) in components
        ab_index = component_of["a"]
        c_index = component_of["c"]
        assert c_index in component_edges[ab_index]
        assert not component_edges[c_index]

    def test_condensation_order_dependencies_first(self):
        # ``condensation_order`` is gone: Tarjan's own emission order is the
        # dependency order it used to recompute.
        graph = DependencyGraph()
        graph.add_edge("top", "middle")
        graph.add_edge("middle", "bottom")
        order = graph.strongly_connected_components()
        positions = {next(iter(component)): index for index, component in enumerate(order)}
        assert positions["bottom"] < positions["middle"] < positions["top"]


class TestPredicateDependencyGraph:
    def test_win_move(self):
        program = parse_program("winning(X) :- move(X, Y), not winning(Y). move(a, b).")
        graph = predicate_dependency_graph(program)
        assert graph.is_negative_edge(sig("winning", 1), sig("winning", 1))
        assert not graph.is_negative_edge(sig("winning", 1), sig("move", 2))

    def test_components_of_transitive_closure(self):
        program = parse_program("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, Z), t(Z, Y). e(a, b).")
        graph = predicate_dependency_graph(program)
        order = graph.strongly_connected_components()
        assert order[0] == frozenset({sig("e", 2)})
        assert order[1] == frozenset({sig("t", 2)})

    def test_non_normal_program_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            predicate_dependency_graph(parse_program("winning(M)(X) :- game(M)."))
