"""Ground evaluation engine.

This package contains the machinery shared by the normal-program baselines
and the HiLog semantics of the paper:

* three-valued Herbrand interpretations with the (conservative) extension
  relations of Definitions 2.3/2.4,
* grounders (exhaustive over a finite universe fragment, and relevance
  driven),
* the ``T_P`` / ``U_P`` / ``W_P`` operators of Definition 3.5 and the
  well-founded model computed either by direct ``W_P`` iteration or by the
  alternating Gelfond–Lifschitz fixpoint,
* stable models as two-valued fixpoints of ``W_P`` (Definition 3.6),
* arithmetic/comparison builtins and aggregate subgoals,
* the semi-naive evaluation subsystem (:mod:`repro.engine.seminaive`):
  indexed relation stores (with deletion), SIPS-ordered
  join plans and a delta-driven stratum-by-stratum fixpoint that evaluates
  range-restricted programs without materializing a ground program and can
  resume a settled stratum from an injected delta — the primitive the
  incremental session layer (:mod:`repro.db`) maintains models with.
"""

from repro.engine.interpretation import (
    Interpretation,
    conservatively_extends,
    extends,
    restrict_to_symbols,
)
from repro.engine.grounding import (
    GroundProgram,
    GroundRule,
    ground_over_universe,
    instantiate_rule,
    relevant_ground_program,
)
from repro.engine.fixpoint import least_model_with_blocked
from repro.engine.wellfounded import (
    WellFoundedResult,
    greatest_unfounded_set,
    tp_operator,
    well_founded_model,
    wp_operator,
)
from repro.engine.stable import stable_models, is_stable_model
from repro.engine.builtins import evaluate_ground_builtin, is_arithmetic_term, solve_builtin
from repro.engine.aggregates import evaluate_aggregate
from repro.engine.seminaive import (
    PlanSources,
    RelationStore,
    SeminaiveResult,
    SeminaiveUnsupported,
    Stratification,
    StratumPlan,
    compile_stratum,
    evaluate_stratum,
    run_plan,
    seminaive_evaluate,
    seminaive_perfect_model,
    seminaive_well_founded,
    seminaive_well_founded_model,
    stratify_program,
)

__all__ = [
    "Interpretation",
    "conservatively_extends",
    "extends",
    "restrict_to_symbols",
    "GroundRule",
    "GroundProgram",
    "ground_over_universe",
    "relevant_ground_program",
    "instantiate_rule",
    "least_model_with_blocked",
    "WellFoundedResult",
    "well_founded_model",
    "tp_operator",
    "wp_operator",
    "greatest_unfounded_set",
    "stable_models",
    "is_stable_model",
    "solve_builtin",
    "evaluate_ground_builtin",
    "is_arithmetic_term",
    "evaluate_aggregate",
    "PlanSources",
    "RelationStore",
    "SeminaiveResult",
    "SeminaiveUnsupported",
    "Stratification",
    "StratumPlan",
    "compile_stratum",
    "evaluate_stratum",
    "run_plan",
    "seminaive_evaluate",
    "seminaive_perfect_model",
    "seminaive_well_founded",
    "seminaive_well_founded_model",
    "stratify_program",
]
