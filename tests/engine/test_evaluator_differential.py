"""The one stratum walk against the two loops it replaced: on every
program of the corpus in :mod:`evaluator_differential` both entry points
must do exactly what they did at commit 99a4471
(``fixtures/evaluator_differential.json``) — same model, same rounds, same
``fetches`` / ``candidates``, same refusals (the four name-open programs
apart, see the recorder)."""

import json
import os

import pytest

import evaluator_differential
from repro.engine.seminaive import seminaive_evaluate, seminaive_well_founded

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "evaluator_differential.json"
)
CORPUS = dict(evaluator_differential.corpus())

with open(FIXTURE) as handle:
    RECORDED = json.load(handle)

STRATIFIED = sorted(
    name for name, records in RECORDED.items() if len(records["evaluate"]) > 1
)


def test_corpus_and_fixture_name_the_same_programs():
    assert sorted(CORPUS) == sorted(RECORDED)
    assert len(STRATIFIED) > 30


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_evaluators_match_the_parent(name):
    assert evaluator_differential.record_program(CORPUS[name]) == RECORDED[name]


@pytest.mark.parametrize("name", STRATIFIED)
def test_a_stratified_program_never_alternates(name):
    """Theorem 6.1 as the code has it: on a stratified program the two
    entry points are one computation."""
    perfect = seminaive_evaluate(CORPUS[name])
    well_founded = seminaive_well_founded(CORPUS[name])
    assert not well_founded.undefined
    assert (perfect.true, perfect.strata, perfect.iterations) == \
        (well_founded.true, well_founded.strata, well_founded.iterations)
