"""Tests for the workload generators."""

import pytest

from repro.core.datahilog import is_datahilog
from repro.core.range_restriction import (
    is_range_restricted,
    is_strongly_range_restricted,
)
from repro.hilog.program import Program
from repro.hilog.terms import predicate_name
from repro.normal.classify import is_normal_program
from repro.normal.range_restriction import is_range_restricted_normal
from repro.workloads.games import (
    datahilog_game_program,
    hilog_game_program,
    multi_game_program,
    normal_game_program,
)
from repro.workloads.graphs import (
    chain_edges,
    cycle_edges,
    is_acyclic,
    random_dag_edges,
    random_graph_edges,
    tree_edges,
)
from repro.workloads.parts import bicycle_parts_program, random_hierarchy
from repro.workloads.random_programs import (
    random_nonstratified_program,
    random_range_restricted_program,
)


class TestGraphs:
    def test_chain(self):
        edges = chain_edges(3)
        assert edges == [("n0", "n1"), ("n1", "n2"), ("n2", "n3")]
        assert is_acyclic(edges)

    def test_cycle(self):
        edges = cycle_edges(3)
        assert len(edges) == 3
        assert not is_acyclic(edges)

    def test_tree(self):
        edges = tree_edges(depth=2, branching=2)
        assert len(edges) == 6
        assert is_acyclic(edges)

    def test_random_dag_is_acyclic(self):
        for seed in range(3):
            assert is_acyclic(random_dag_edges(20, 40, seed=seed))

    def test_random_graph_deterministic(self):
        assert random_graph_edges(10, 15, seed=7) == random_graph_edges(10, 15, seed=7)


class TestGamePrograms:
    def test_normal_game(self):
        program = normal_game_program(chain_edges(3))
        assert is_normal_program(program)
        assert is_range_restricted_normal(program)
        assert len(program.facts()) == 3

    def test_hilog_game(self):
        program = hilog_game_program({"m1": chain_edges(2), "m2": chain_edges(2, "k")})
        assert not is_normal_program(program)
        assert is_strongly_range_restricted(program)

    def test_datahilog_game(self):
        program = datahilog_game_program({"m1": chain_edges(2)})
        assert is_datahilog(program)
        assert is_strongly_range_restricted(program)

    def test_multi_game(self):
        program, names = multi_game_program([chain_edges(2), chain_edges(3)])
        assert names == ["move0", "move1"]
        assert len(program.facts()) == 2 + 2 + 3


class TestParts:
    def test_random_hierarchy_acyclic(self):
        triples = random_hierarchy(levels=4, seed=1)
        assert is_acyclic([(whole, part) for whole, part, _count in triples])

    def test_bicycle_program_parses(self):
        program = bicycle_parts_program()
        assert program.has_aggregates()


class TestRandomPrograms:
    @pytest.mark.parametrize("seed", range(5))
    def test_generated_programs_are_range_restricted_normal(self, seed):
        program = random_range_restricted_program(seed=seed)
        assert is_normal_program(program)
        assert is_range_restricted_normal(program)

    def test_determinism(self):
        assert random_range_restricted_program(seed=11) == random_range_restricted_program(seed=11)

    @pytest.mark.parametrize("seed", range(5))
    def test_name_open_rules_ride_on_the_same_normal_program(self, seed):
        normal = random_range_restricted_program(seed=seed)
        program = random_range_restricted_program(seed=seed, name_open=2)
        assert program.rules[:len(normal.rules)] == normal.rules
        extra = Program(program.rules[len(normal.rules):])
        assert not is_normal_program(program) and is_range_restricted(program)
        open_rules = list(extra.proper_rules())
        assert len(open_rules) == 2 and list(extra.facts())
        for rule in open_rules:
            assert repr(rule.body[0].atom) == "rel(N)"  # the binder
            assert not predicate_name(rule.head).is_ground()

    @pytest.mark.parametrize("seed", range(5))
    def test_multi_negation_rules_ride_on_the_same_program(self, seed):
        plain = random_nonstratified_program(seed=seed, cycle_length=2)
        program = random_nonstratified_program(
            seed=seed, cycle_length=2, multi_negation=3)
        assert program.rules[:len(plain.rules)] == plain.rules
        extra = program.rules[len(plain.rules):]
        assert len(extra) == 3 and is_range_restricted_normal(program)
        looped = {"p0", "p1"}
        for rule in extra:
            negated = rule.negative_literals()
            assert len(negated) >= 2
            assert {repr(predicate_name(lit.atom)) for lit in negated} <= looped
            assert repr(predicate_name(rule.head)) in looped

    def test_negation_modes(self):
        definite = random_range_restricted_program(seed=0, negation="none")
        assert not definite.has_negation()
        with pytest.raises(ValueError):
            random_range_restricted_program(negation="bogus")
