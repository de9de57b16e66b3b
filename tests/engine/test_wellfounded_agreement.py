"""Differential-testing harness for the well-founded semantics.

Three independent implementations of the well-founded model are compared
atom-for-atom on random *non-stratified* normal programs (controlled
negation cycles, :func:`repro.workloads.random_programs.random_nonstratified_program`):

* the semi-naive alternating fixpoint on the register machine
  (:func:`repro.engine.seminaive.seminaive_well_founded`) — the fast path
  this harness exists to keep honest;
* the ground alternating fixpoint (``engine="alternating"``) over the
  relevance-grounded program;
* the paper-faithful ``W_P`` iteration (``engine="wp"``, Definitions
  3.3–3.5) over the same ground program.

On every sample all three must agree on the full true/undefined/false
partition (the ground engines' larger atom bases only add false atoms, so
equal true and undefined sets mean agreement on every atom).  The sampler
is biased so a sizable fraction of samples have genuinely three-valued
models — totals alone would leave the undefined bookkeeping untested.

The same partition is demanded of the **name-open** families — Example
6.3's parameterized games over DAGs and cyclic graphs, Example 6.5, random
programs with binder-guarded name variables — which the walk specialises
by binder joins and the ground oracles instantiate.

Each hypothesis example runs inside the ``isolate_example`` fixture
(``tests/conftest.py``): execution counters reset per example and the
example's terms are generation-scoped and swept, so hundreds of random
programs cannot cross-contaminate counters or intern tables.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.modular import (
    modularly_stratified_for_hilog,
    perfect_model_for_hilog,
)
from repro.core.semantics import well_founded_for_hilog
from repro.engine.grounding import relevant_ground_program
from repro.engine.seminaive import SeminaiveUnsupported, seminaive_well_founded
from repro.engine.wellfounded import well_founded_model
from repro.hilog.errors import GroundingError, StratificationError
from repro.hilog.parser import parse_program
from repro.workloads.games import (
    datahilog_game_program,
    hilog_game_program,
    multi_game_program,
)
from repro.workloads.graphs import (
    cycle_edges,
    random_dag_edges,
    random_graph_edges,
)
from repro.workloads.random_programs import (
    random_nonstratified_program,
    random_range_restricted_program,
)

#: Sample shapes: (predicates, constants, facts, rules, max body, cycle len).
#: Mirrors (and exceeds) the shape x seed coverage of the existing
#: seminaive agreement suite, but over the non-stratified class.
SHAPES = [
    (3, 3, 6, 4, 3, 2),
    (4, 3, 8, 5, 3, 2),
    (4, 4, 10, 6, 3, 3),
    (5, 3, 8, 7, 2, 4),
    (3, 2, 4, 3, 2, 1),
]


def _sample(shape, seed, multi_negation=0):
    n_predicates, n_constants, n_facts, n_rules, max_body, cycle_length = shape
    return random_nonstratified_program(
        n_predicates=n_predicates,
        n_constants=n_constants,
        n_facts=n_facts,
        n_rules=n_rules,
        max_body=max_body,
        cycle_length=cycle_length,
        seed=seed,
        multi_negation=multi_negation,
    )


def _assert_three_way_agreement(program):
    """seminaive WFS ≡ ground alternating ≡ W_P on true/undefined/false."""
    try:
        seminaive = seminaive_well_founded(program)
    except (SeminaiveUnsupported, GroundingError):
        # Outside the semi-naive class (or over the caps): the entry-point
        # fallback must still answer through the grounding oracle.
        fallback = well_founded_for_hilog(program, strategy="seminaive")
        oracle = well_founded_for_hilog(program)
        assert fallback.true == oracle.true
        assert fallback.undefined == oracle.undefined
        return None
    ground = relevant_ground_program(program)
    alternating = well_founded_model(ground, engine="alternating")
    wp = well_founded_model(ground, engine="wp")
    # The two ground engines agree with each other...
    assert alternating.true == wp.true
    assert alternating.false == wp.false
    # ...and the register-machine alternation matches their partition.
    assert seminaive.true == alternating.true
    assert seminaive.undefined == alternating.undefined
    # Everything the seminaive run never materialized is false by closed
    # world — so it must not be true/undefined in the ground base either.
    assert alternating.undefined <= seminaive.true | seminaive.undefined
    return seminaive


@pytest.mark.parametrize("shape", SHAPES, ids=[str(s) for s in SHAPES])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_wellfounded_engines_agree_on_nonstratified_programs(
        shape, seed, isolate_example):
    with isolate_example():
        _assert_three_way_agreement(_sample(shape, seed))


@pytest.mark.parametrize("shape", SHAPES[:3], ids=[str(s) for s in SHAPES[:3]])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10**6),
       multi_negation=st.integers(min_value=1, max_value=3))
def test_wellfounded_engines_agree_on_multi_negation_programs(
        shape, seed, multi_negation, isolate_example):
    """Rules with several negative literals inside the negation component:
    where one alternation can prove two negated subgoals of one rule
    instance, which a patched overestimate must find from the *old*
    underestimate (``test_overestimate_maintenance.py`` has the shape by
    hand)."""
    with isolate_example():
        program = _sample(shape, seed, multi_negation)
        seminaive = _assert_three_way_agreement(program)
        oracle = well_founded_for_hilog(program, strategy="ground")
        if seminaive is not None:
            assert seminaive.true == oracle.true
            assert seminaive.undefined == oracle.undefined


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_wellfounded_engines_agree_on_free_negation_programs(
        seed, isolate_example):
    """The unconstrained free-negation sampler, for shapes the cycle-seeded
    generator cannot produce."""
    with isolate_example():
        program = random_range_restricted_program(
            n_predicates=4, n_constants=3, n_facts=8, n_rules=6,
            max_body=3, negation="free", seed=seed,
        )
        _assert_three_way_agreement(program)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_partial_models_refute_modular_stratification(seed, isolate_example):
    """Theorem 6.1 differentially: whenever the semi-naive well-founded
    model is partial, both strategies of ``perfect_model_for_hilog`` must
    reject the program (and the seminaive strategy must reject it without
    grounding — this is its fast negative verdict)."""
    with isolate_example():
        program = _sample(SHAPES[1], seed)
        try:
            result = seminaive_well_founded(program)
        except (SeminaiveUnsupported, GroundingError):
            return
        if result.is_total():
            return
        with pytest.raises(StratificationError):
            perfect_model_for_hilog(program, strategy="seminaive")
        with pytest.raises(StratificationError):
            perfect_model_for_hilog(program)


def test_sampler_produces_partial_models():
    """The differential harness is only as good as its sampler: a healthy
    fraction of samples must have genuinely three-valued models."""
    partial = 0
    for seed in range(40):
        try:
            result = seminaive_well_founded(_sample(SHAPES[0], seed))
        except (SeminaiveUnsupported, GroundingError):
            continue
        if not result.is_total():
            partial += 1
    assert partial >= 4


# -- name-open rules: Example 6.3's families and random binder-guarded ones ---

def _game_families(edge_lists):
    games = {"m%d" % i: edges for i, edges in enumerate(edge_lists)}
    yield hilog_game_program(games)
    yield datahilog_game_program(games)
    for style in ("hilog", "datahilog"):
        yield multi_game_program(edge_lists, style=style)[0]


@pytest.mark.parametrize("seed", range(4))
def test_parameterized_games_over_dags_are_the_perfect_model(seed):
    edge_lists = [random_dag_edges(9, 16, seed=seed),
                  random_dag_edges(7, 10, seed=seed + 100)]
    for program in _game_families(edge_lists):
        result = seminaive_well_founded(program)
        assert result.is_total()
        assert result.true == perfect_model_for_hilog(program, strategy="ground").true


@pytest.mark.parametrize("seed", range(4))
def test_parameterized_games_over_cyclic_graphs_are_the_well_founded_model(seed):
    edge_lists = [random_graph_edges(8, 14, seed=seed),
                  cycle_edges(3 + seed) + [("c0", "c2")],
                  random_dag_edges(6, 8, seed=seed)]
    partial = 0
    for program in _game_families(edge_lists):
        result = seminaive_well_founded(program)
        oracle = well_founded_for_hilog(program, strategy="ground")
        assert result.true == oracle.true
        assert result.undefined == oracle.undefined
        partial += bool(result.undefined)
    assert partial


def test_example_6_5_is_refused_by_both():
    program = parse_program("""
        winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
        game(move1).
        provide(move1(a, b)) :- not winning(move1)(b).
        X :- provide(X).
    """)
    with pytest.raises(SeminaiveUnsupported):
        seminaive_well_founded(program)
    verdict = modularly_stratified_for_hilog(program)
    assert not verdict.is_modularly_stratified
    assert "already settled" in verdict.reason


@pytest.mark.parametrize("negation", ["stratified", "free", "cycle"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10**6),
       name_open=st.integers(min_value=1, max_value=3))
def test_wellfounded_engines_agree_on_name_open_programs(
        negation, seed, name_open, isolate_example):
    """Random programs x binder-guarded name variables x the same oracles
    — and Figure 1, wherever it accepts, names the same (total) model, with
    the same verdict from the walk (``strategy="seminaive"``)."""
    with isolate_example():
        if negation == "cycle":
            program = random_nonstratified_program(
                n_predicates=3, n_constants=3, n_facts=6, n_rules=3,
                max_body=2, cycle_length=2, seed=seed, name_open=name_open,
            )
        else:
            program = random_range_restricted_program(
                n_predicates=3, n_constants=3, n_facts=6, n_rules=3,
                max_body=2, negation=negation, seed=seed, name_open=name_open,
            )
        result = _assert_three_way_agreement(program)
        assert result is not None  # the sampler stays inside the engine's class
        verdict = modularly_stratified_for_hilog(program)
        if verdict.is_modularly_stratified:
            assert result.is_total() and result.true == verdict.model.true
        fast = modularly_stratified_for_hilog(program, strategy="seminaive")
        assert fast.is_modularly_stratified is verdict.is_modularly_stratified
        if fast.is_modularly_stratified:
            assert fast.model.true == verdict.model.true


def test_name_open_sampler_specialises_and_produces_partial_models():
    instances = partial = 0
    for seed in range(30):
        program = random_nonstratified_program(
            n_predicates=3, n_constants=3, n_facts=6, n_rules=3, max_body=2,
            cycle_length=2, seed=seed, name_open=2,
        )
        result = seminaive_well_founded(program)
        derived = [a for a in result.true | result.undefined
                   if repr(a).startswith("q")]
        instances += bool(derived)
        partial += any(repr(a).startswith("q") for a in result.undefined)
    assert instances >= 15 and partial >= 3
