"""Recorder behind ``test_evaluator_differential.py``: the idiom of
:mod:`plan_differential`, one level up — run both whole-program evaluators
over a fixed corpus and record what each did.

A record is ``[iterations, alternations, fetches, candidates, |true|,
|undefined|, digest of the sorted true and undefined atoms]``, or the name
of the error the evaluator raised (``seminaive_evaluate`` refuses what is
not stratified; both refuse recursion through aggregation).  All of it is a
function of the program alone, so it compares two versions of the
evaluators exactly.  It is guarded in two halves, by two files, so that a
change in the work done can never be recorded over a change in the model:

``fixtures/evaluator_differential.json`` — **the model**
    (:func:`model_part`: ``[alternations, |true|, |undefined|, digest]``).
    The full records of commit 99a4471, where ``seminaive_evaluate`` and
    ``seminaive_well_founded`` were two loops with two result classes (the
    first had no ``alternations`` and no ``undefined``, recorded as 0) —
    except the ``well_founded`` records of the four programs with a
    name-open rule beside negation (``game-hilog``, ``game-datahilog``,
    ``game-multi``, ``handwritten``), which that commit refused and the walk
    has specialised by binder plans since; their models are held to the
    ground oracles by ``test_wellfounded_agreement.py``.  Nothing rewrites
    this file: its counter fields are history, and are not compared.

``fixtures/evaluator_counters.json`` — **the work**
    (:func:`counter_part`: ``[iterations, fetches, candidates]``).
    ``python tests/engine/evaluator_differential.py OUT.json`` writes what
    the checked-out evaluators do, these three fields only; a change that
    means to move them re-records this file and says by how much.
"""

import hashlib
import json
import sys

import plan_differential
from repro.engine.seminaive import seminaive_evaluate, seminaive_well_founded
from repro.hilog.errors import HiLogError
from repro import workloads as w

EVALUATORS = {
    "evaluate": seminaive_evaluate,
    "well_founded": seminaive_well_founded,
}


def corpus():
    """The plan corpus, plus a model large enough to need many delta
    rounds and the smallest game whose every position is undefined."""
    yield from plan_differential.corpus()
    yield "tc-chain-40", w.transitive_closure_program(w.chain_edges(40))
    yield "game-2-cycle", w.cycle_game_program(2)[0]


def _record(evaluator, program):
    try:
        result, fetches, candidates = plan_differential.counted(
            lambda: evaluator(program)
        )
    except HiLogError as error:
        return [type(error).__name__]
    undefined = getattr(result, "undefined", ())
    text = "\n".join(sorted(map(repr, result.true)) + ["--"] + sorted(map(repr, undefined)))
    return [
        result.iterations, getattr(result, "alternations", 0),
        fetches, candidates, len(result.true), len(undefined),
        hashlib.sha1(text.encode()).hexdigest()[:12],
    ]


def record_program(program):
    return {name: _record(evaluator, program) for name, evaluator in EVALUATORS.items()}


def model_part(record):
    """``[alternations, |true|, |undefined|, digest]`` of a record — or the
    refusal, which is part of the model."""
    return record if len(record) == 1 else [record[1]] + record[4:]


def counter_part(record):
    """``[iterations, fetches, candidates]`` of a record (a refusal has
    done no work worth holding it to)."""
    return [] if len(record) == 1 else [record[0], record[2], record[3]]


if __name__ == "__main__":
    lines = []
    for name, program in sorted(corpus()):
        counters = {
            evaluator: counter_part(record)
            for evaluator, record in record_program(program).items()
        }
        lines.append("%s: %s" % (
            json.dumps(name),
            json.dumps(counters, separators=(",", ":"), sort_keys=True),
        ))
    with open(sys.argv[1], "w") as out:
        out.write("{\n" + ",\n".join(lines) + "\n}\n")
