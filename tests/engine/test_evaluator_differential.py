"""The one stratum walk against the two loops it replaced, in two halves
(see :mod:`evaluator_differential`): on every program of the corpus both
entry points must compute exactly the **model** they did at commit 99a4471
— same alternations, same true and undefined atoms, same refusals (the four
name-open programs apart) — as ``fixtures/evaluator_differential.json``,
which no change re-records, holds it; and do exactly the **work**
(iterations, ``fetches``, ``candidates``) that
``fixtures/evaluator_counters.json`` last recorded."""

import functools
import json
import os

import pytest

import evaluator_differential
from evaluator_differential import counter_part, model_part
from repro.engine.seminaive import seminaive_evaluate, seminaive_well_founded

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CORPUS = dict(evaluator_differential.corpus())

with open(os.path.join(FIXTURES, "evaluator_differential.json")) as handle:
    RECORDED = json.load(handle)
with open(os.path.join(FIXTURES, "evaluator_counters.json")) as handle:
    COUNTERS = json.load(handle)

STRATIFIED = sorted(
    name for name, records in RECORDED.items() if len(records["evaluate"]) > 1
)


@functools.lru_cache(maxsize=None)
def _records(name):
    return evaluator_differential.record_program(CORPUS[name])


def test_corpus_and_fixtures_name_the_same_programs():
    assert sorted(CORPUS) == sorted(RECORDED) == sorted(COUNTERS)
    assert len(STRATIFIED) > 30


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_evaluators_match_the_parent(name):
    for evaluator, record in _records(name).items():
        assert model_part(record) == model_part(RECORDED[name][evaluator])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_evaluators_do_the_recorded_work(name):
    for evaluator, record in _records(name).items():
        assert counter_part(record) == COUNTERS[name][evaluator]


def test_the_perfect_model_walk_does_at_most_the_parent_s_work():
    """No stratum of a stratified program alternates, so nothing since
    99a4471 has had a reason to move an ``evaluate`` run's iterations or
    candidates.  Its fetches may only fall: a delta round skips the variants
    whose anchor has no facts in the round's delta, a fetch that could only
    return nothing."""
    for name, records in RECORDED.items():
        parent = counter_part(records["evaluate"])
        now = COUNTERS[name]["evaluate"]
        if not parent:
            assert not now
            continue
        assert (now[0], now[2]) == (parent[0], parent[2])
        assert now[1] <= parent[1]


@pytest.mark.parametrize("name", STRATIFIED)
def test_a_stratified_program_never_alternates(name):
    """Theorem 6.1 as the code has it: on a stratified program the two
    entry points are one computation."""
    perfect = seminaive_evaluate(CORPUS[name])
    well_founded = seminaive_well_founded(CORPUS[name])
    assert not well_founded.undefined
    assert (perfect.true, perfect.strata, perfect.iterations) == \
        (well_founded.true, well_founded.strata, well_founded.iterations)
