"""Recorder behind ``test_plan_differential.py``: run every join plan of a
fixed program corpus and record what the executor did.

For each program the model is computed once, then every rule's plans — the
base plan, one delta variant per positive body site and the head-entry
(``from_head``) plan — run against that model, with the whole model as the
delta.  A record is ``[derivations, digest of the sorted heads, fetches,
candidates]`` for :func:`run_plan` and ``[satisfiable facts, probes,
fetches, candidates]`` for :func:`plan_satisfiable` on the first facts the
rule head matches; both are functions of the plan and the store alone, so
they compare executors exactly (matching the head bumps no counter).

``fixtures/plan_differential.json`` holds the records of the register
*interpreter* this repository had before plans were compiled to Python
functions (commit 69304a0).  It cannot be regenerated from a later commit:
``python tests/engine/plan_differential.py OUT.json`` writes whatever the
checked-out executor does.
"""

import hashlib
import json
import sys

from repro.core.modular import perfect_model_for_hilog
from repro.core.semantics import well_founded_for_hilog
from repro.engine.seminaive import (
    EXECUTION_STATS,
    PlanSources,
    SeminaiveUnsupported,
    plan_satisfiable,
    run_plan,
    seminaive_well_founded,
)
from repro.engine.seminaive.plan import PlanError, compile_rule
from repro.engine.seminaive.relation import FactBuckets, RelationStore
from repro.hilog.errors import GroundingError
from repro.hilog.parser import parse_program
from repro.hilog.unify import match
from repro import workloads as w

#: Rederivation probes per rule (the first matching facts in repr order).
MAX_PROBES = 12

STRATIFIED_SHAPES = [
    (3, 3, 6, 4, 3, "stratified"),
    (4, 4, 10, 6, 3, "stratified"),
    (3, 5, 12, 5, 2, "stratified"),
    (5, 3, 8, 8, 3, "stratified"),
    (3, 3, 6, 4, 3, "none"),
    (4, 4, 12, 7, 4, "none"),
]
NONSTRATIFIED_SHAPES = [
    (3, 3, 6, 4, 3, 2),
    (4, 3, 8, 5, 3, 2),
    (4, 4, 10, 6, 3, 3),
    (5, 3, 8, 7, 2, 4),
    (3, 2, 4, 3, 2, 1),
]
SEEDS = range(6)

#: Shapes the generators never emit: nested argument patterns, builtins,
#: propositions, a predicate variable, a deferred builtin.
HANDWRITTEN = """
e(a, b). e(b, c). e(c, a). e(c, d). n(1). n(2). n(3). n(4).
pair(f(a, b)). pair(f(b, b)). pair(g(c)). wrap(h(f(a, b)), a).
flag. on :- flag, not off.
same(X) :- pair(f(X, X)).
first(X, Y) :- pair(f(X, Y)), e(X, Y).
deep(X) :- wrap(h(f(X, Y)), X), e(X, Y).
lt(X, Y) :- n(X), n(Y), X < Y.
succ(X, Y) :- n(X), Y is X + 1, n(Y).
eq(X, Y) :- n(X), Y = X.
big(X) :- n(X), not lt(X, 3), X >= 2.
late(X, Z) :- n(X), Z > X, n(Z).
holds(P) :- rel(P), P(a, b).
rel(e). rel(first).
reach(X, Y) :- e(X, Y).
reach(X, Z) :- reach(X, Y), e(Y, Z).
"""


def corpus():
    """``(name, program)`` pairs, in a fixed order."""
    chain = w.chain_edges(12)
    dag = w.random_dag_edges(12, 24, seed=3)
    graph = w.random_graph_edges(12, 26, seed=5)
    yield "tc-chain", w.transitive_closure_program(chain)
    yield "tc-graph", w.transitive_closure_program(graph)
    yield "tc-datahilog", w.datahilog_closure_program({"g1": chain[:6], "g2": dag[:10]})
    yield "tc-hilog", w.hilog_closure_program({"g1": chain[:6], "g2": dag[:10]})
    yield "game-dag", w.normal_game_program(dag)
    yield "game-cyclic", w.normal_game_program(graph)
    yield "game-datahilog", w.datahilog_game_program({"m1": dag[:12], "m2": graph[:12]})
    yield "game-hilog", w.hilog_game_program({"m1": dag[:12]})
    yield "game-cycle", w.cycle_game_program(7)[0]
    yield "game-line-cycle", w.line_into_cycle_game_program(4, 5)[0]
    yield "game-escape", w.cycle_with_escape_game_program(6)[0]
    yield "game-composed", w.composed_move_game_program(graph[:14])
    yield "game-multi", w.multi_game_program([dag[:8], graph[:8]], style="datahilog")[0]
    yield "parts-bicycle", w.bicycle_parts_program()
    yield "parts-random", w.parts_explosion_program(
        {"m": {"part_m": w.random_hierarchy(3, seed=2)}}
    )
    yield "handwritten", parse_program(HANDWRITTEN)
    for shape in STRATIFIED_SHAPES:
        for seed in SEEDS:
            yield "stratified-%s-%d" % ("-".join(map(str, shape)), seed), \
                w.random_range_restricted_program(
                    n_predicates=shape[0], n_constants=shape[1], n_facts=shape[2],
                    n_rules=shape[3], max_body=shape[4], negation=shape[5], seed=seed,
                )
    for shape in NONSTRATIFIED_SHAPES:
        for seed in SEEDS:
            yield "nonstratified-%s-%d" % ("-".join(map(str, shape)), seed), \
                w.random_nonstratified_program(
                    n_predicates=shape[0], n_constants=shape[1], n_facts=shape[2],
                    n_rules=shape[3], max_body=shape[4], cycle_length=shape[5],
                    seed=seed,
                )
    for seed in SEEDS:
        yield "free-negation-%d" % seed, w.random_range_restricted_program(
            n_predicates=4, n_constants=3, n_facts=8, n_rules=6,
            max_body=3, negation="free", seed=seed,
        )


def counted(thunk):
    before = EXECUTION_STATS.snapshot()
    value = thunk()
    spent = EXECUTION_STATS.diff(before)
    return value, spent["fetches"], spent["candidates"]


def _run_record(plan, sources):
    try:
        heads, fetches, candidates = counted(
            lambda: sorted(map(repr, run_plan(plan, sources)))
        )
    except GroundingError:
        return ["GroundingError"]
    digest = hashlib.sha1("\n".join(heads).encode()).hexdigest()[:12]
    return [len(heads), digest, fetches, candidates]


def _probe_record(rule, plan, sources, facts):
    probes = [fact for fact in facts if match(rule.head, fact) is not None]
    probes = probes[:MAX_PROBES]
    try:
        satisfied, fetches, candidates = counted(
            lambda: sum(plan_satisfiable(plan, sources, fact) for fact in probes)
        )
    except GroundingError:
        return ["GroundingError"]
    return [satisfied, len(probes), fetches, candidates]


def _model(program):
    """The true atoms of the program's well-founded model, through the
    register machine where it applies and the ground oracle elsewhere."""
    try:
        return seminaive_well_founded(program).true
    except SeminaiveUnsupported:
        if program.has_aggregates():
            return perfect_model_for_hilog(program).true
        return well_founded_for_hilog(program).true


def record_program(program):
    """The records of one program: its base plans, one delta variant per
    positive body site, and one head-entry probe plan per rule."""
    facts = sorted(_model(program), key=repr)
    sources = PlanSources(RelationStore(facts), FactBuckets(facts))
    records = {"facts": len(facts), "run": [], "probe": []}
    for rule in program.proper_rules():
        sites = [None] + [
            site for site, literal in enumerate(rule.body)
            if literal.positive and not literal.is_builtin()
        ]
        for site in sites:
            try:
                plan = compile_rule(rule, delta_index=site)
            except PlanError:
                records["run"].append(["PlanError"])
                continue
            records["run"].append(_run_record(plan, sources))
        try:
            plan = compile_rule(rule, from_head=True)
        except PlanError:
            records["probe"].append(["PlanError"])
            continue
        records["probe"].append(_probe_record(rule, plan, sources, facts))
    return records


def record_all():
    return {name: record_program(program) for name, program in corpus()}


if __name__ == "__main__":
    # One program per line keeps the fixture small and its diffs readable.
    lines = [
        "%s: %s" % (json.dumps(name), json.dumps(records, separators=(",", ":"), sort_keys=True))
        for name, records in sorted(record_all().items())
    ]
    with open(sys.argv[1], "w") as out:
        out.write("{\n" + ",\n".join(lines) + "\n}\n")
