"""Semi-naive bottom-up evaluation over indexed relation stores.

The fast-path evaluation subsystem: per-predicate fact relations with
on-demand hash indexes (:mod:`repro.engine.seminaive.relation`), a rule
compiler that orders bodies into join plans with the SIPS machinery of the
magic-sets rewriting (:mod:`repro.engine.seminaive.plan`), a delta-driven
fixpoint per stratum (:mod:`repro.engine.seminaive.engine`) and the one
walk over a program's strata behind every entry point
(:mod:`repro.engine.seminaive.wellfounded`).

Entry points::

    from repro.engine.seminaive import seminaive_evaluate, seminaive_perfect_model
    from repro.engine.seminaive import seminaive_well_founded

or, at the API surface the paper experiments use,
``perfect_model_for_hilog(program, strategy="seminaive")``,
``well_founded_for_hilog(program, strategy="seminaive")`` and
``magic_evaluate(program, query, strategy="seminaive")``.  The
``seminaive_well_founded`` entry point admits strata with a cycle through
negation — they alternate — and so extends the engine beyond the
stratified class, returning the three-valued well-founded model; on a
stratified program it is the same computation as ``seminaive_evaluate``.
"""

from repro.engine.seminaive.engine import (
    EXECUTION_STATS,
    ExecutionStats,
    PlanSources,
    SeminaiveUnsupported,
    Stratification,
    StratumPlan,
    compile_stratum,
    evaluate_stratum,
    plan_satisfiable,
    run_plan,
    stratify_program,
)
from repro.engine.seminaive.plan import (
    JoinPlan,
    JoinStep,
    PlanError,
    RegisterProgram,
    compile_rule,
)
from repro.engine.seminaive.relation import (
    Relation,
    RelationStore,
    predicate_indicator,
)
from repro.engine.seminaive.wellfounded import (
    SeminaiveResult,
    seminaive_evaluate,
    seminaive_perfect_model,
    seminaive_well_founded,
    seminaive_well_founded_detailed,
    seminaive_well_founded_model,
)

__all__ = [
    "SeminaiveResult",
    "seminaive_evaluate",
    "seminaive_perfect_model",
    "seminaive_well_founded",
    "seminaive_well_founded_detailed",
    "seminaive_well_founded_model",
    "EXECUTION_STATS",
    "ExecutionStats",
    "PlanSources",
    "SeminaiveUnsupported",
    "Stratification",
    "StratumPlan",
    "compile_stratum",
    "evaluate_stratum",
    "plan_satisfiable",
    "run_plan",
    "stratify_program",
    "JoinPlan",
    "JoinStep",
    "PlanError",
    "RegisterProgram",
    "compile_rule",
    "Relation",
    "RelationStore",
    "predicate_indicator",
]
