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

The names below are resolved on first use (:mod:`repro._exports`), so the
semi-naive engine loads none of the ground constructions.
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.engine.interpretation": (
        "Interpretation", "conservatively_extends", "extends",
        "restrict_to_symbols",
    ),
    "repro.engine.grounding": (
        "GroundRule", "GroundProgram", "ground_over_universe",
        "relevant_ground_program", "instantiate_rule",
    ),
    "repro.engine.fixpoint": ("least_model_with_blocked",),
    "repro.engine.wellfounded": (
        "WellFoundedResult", "well_founded_model", "tp_operator",
        "wp_operator", "greatest_unfounded_set",
    ),
    "repro.engine.stable": ("stable_models", "is_stable_model"),
    "repro.engine.builtins": (
        "solve_builtin", "evaluate_ground_builtin", "is_arithmetic_term",
    ),
    "repro.engine.aggregates": ("evaluate_aggregate",),
    "repro.engine.seminaive": (
        "PlanSources", "RelationStore", "SeminaiveResult",
        "SeminaiveUnsupported", "Stratification", "StratumPlan",
        "compile_stratum", "evaluate_stratum", "run_plan",
        "seminaive_evaluate", "seminaive_perfect_model",
        "seminaive_well_founded", "seminaive_well_founded_model",
        "stratify_program",
    ),
})
