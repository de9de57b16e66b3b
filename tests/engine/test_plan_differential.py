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
from repro.engine.seminaive.plan import compile_rule

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "plan_differential.json")
CORPUS = dict(plan_differential.corpus())

with open(FIXTURE) as handle:
    RECORDED = json.load(handle)


def test_corpus_and_fixture_name_the_same_programs():
    assert sorted(CORPUS) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_heads_and_counters_match_the_interpreter(name):
    assert plan_differential.record_program(CORPUS[name]) == RECORDED[name]


def test_generated_source_compiles_without_warnings():
    """What ``python -W error`` would refuse, on whichever interpreter of
    the CI matrix runs this: every corpus rule's source, recompiled with
    warnings as errors."""
    compiled = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for program in CORPUS.values():
            for rule in program.proper_rules():
                plan = compile_rule(rule, bound=frozenset(rule.head.variables()))
                for source in (compile_rule(rule).registers.source,
                               plan.registers.source):
                    compile(source, "<plan>", "exec")
                    compiled += 1
    assert compiled > 500
