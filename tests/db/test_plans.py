"""The premise :func:`repro.db.plans.maintenance_plans` rests on: the delta
plans of every stratum a session's walk visits compile, so no walked
stratum lacks maintenance plans.  Held over both random samplers, with
name-open rules, compiled as a session compiles them (one stratum per
strongly connected component, negation cycles admitted)."""

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.seminaive.engine import (
    Limits,
    SeminaiveUnsupported,
    compile_delta_plans,
)
from repro.engine.seminaive.wellfounded import compile_strata, evaluate_strata
from repro.hilog.program import Program
from repro.workloads.random_programs import (
    random_nonstratified_program,
    random_range_restricted_program,
)


@pytest.mark.parametrize("negation", ["stratified", "free", "cycle"])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10**6),
       name_open=st.integers(min_value=0, max_value=2))
def test_every_walked_stratum_compiles_its_delta_plans(
        negation, seed, name_open, isolate_example):
    with isolate_example():
        if negation == "cycle":
            program = random_nonstratified_program(seed=seed,
                                                   name_open=name_open)
        else:
            program = random_range_restricted_program(
                negation=negation, seed=seed, name_open=name_open)
        rules = Program(tuple(program.proper_rules()))
        facts = sorted((rule.head for rule in program.facts()), key=repr)
        try:
            compiled = compile_strata(rules, allow_unstratified=True,
                                      by_component=True)
            walk = evaluate_strata(compiled, facts, Limits()).walk
        except SeminaiveUnsupported:
            return  # outside the walk's class: a session evaluates by Figure 1
        for stratum, _alternating, _names in walk:
            if not stratum.has_aggregates:
                compile_delta_plans(stratum)
