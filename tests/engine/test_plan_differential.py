"""The generated plan functions against the register interpreter they
replaced: on every plan of the corpus in :mod:`plan_differential` the
derived heads **and** the ``fetches`` / ``candidates`` counters must equal
what the interpreter of commit 69304a0 recorded
(``fixtures/plan_differential.json``)."""

import json
import os
import warnings

import pytest

import plan_differential
from repro.engine.seminaive import PlanSources, plan_satisfiable, run_plan
from repro.engine.seminaive.plan import compile_rule
from repro.engine.seminaive.relation import RelationStore

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "plan_differential.json")
CORPUS = dict(plan_differential.corpus())

with open(FIXTURE) as handle:
    RECORDED = json.load(handle)


def test_corpus_and_fixture_name_the_same_programs():
    assert sorted(CORPUS) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_heads_and_counters_match_the_interpreter(name):
    assert plan_differential.record_program(CORPUS[name]) == RECORDED[name]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_forwards_and_backwards_agree(name):
    """A rule run backwards from a fact finds an instance exactly when the
    rule run forwards derives that fact — for every rule and every fact of
    the model.  (Aggregate rules apart: satisfiability ignores the fold.)"""
    program = CORPUS[name]
    facts = sorted(plan_differential._model(program), key=repr)
    sources = PlanSources(RelationStore(facts))
    compared = 0
    for rule in program.proper_rules():
        if rule.aggregates:
            continue
        derived = set(run_plan(compile_rule(rule), sources))
        backwards = compile_rule(rule, from_head=True)
        for fact in facts:
            assert plan_satisfiable(backwards, sources, fact) == (fact in derived), \
                (rule, fact)
            compared += 1
    assert compared


def test_generated_source_compiles_without_warnings():
    """What ``python -W error`` would refuse, on whichever interpreter of
    the CI matrix runs this: every corpus rule's source, recompiled with
    warnings as errors."""
    compiled = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for program in CORPUS.values():
            for rule in program.proper_rules():
                for source in (compile_rule(rule).registers.source,
                               compile_rule(rule, from_head=True).registers.source):
                    compile(source, "<plan>", "exec")
                    compiled += 1
    assert compiled > 500
