"""Session modes: which function maps the EDB to the model.

The paper gives each program class exactly one model — the perfect model
of a modularly stratified HiLog program (Figure 1, Theorem 6.1), the
three-valued well-founded model otherwise — so a
:class:`~repro.db.session.DatabaseSession` mode is nothing more than an
:data:`Evaluator`.  :func:`choose_mode` picks it, once per session:

* ``"incremental"`` — the program is in the semi-naive engine's
  stratified class.  The mode carries **maintenance plans**, one bundle
  per component, so a write patches the model instead of recomputing it:
  by **delete-rederive** (DRed; Gupta–Mumick–Subrahmanian, SIGMOD'93),
  and aggregate strata by stratum-local recomputation, which is also the
  fallback whenever an incremental step trips an integrity check.  The
  evaluator is the engine's stratum walk over those bundles' stratum
  plans.
* ``"wellfounded"`` — the obstacle is a cycle through negation at the
  predicate-indicator level (win/move games over cyclic graphs), a
  **name-open** rule beside negation whose name variables a binder binds
  (Example 6.3's ``winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).``,
  the Datahilog game), or both.  The evaluator is the engine's stratum walk
  (:func:`repro.engine.seminaive.wellfounded.evaluate_strata`) over strata
  compiled once with negation cycles admitted: no grounding, the store
  holds the certainly-true atoms, the undefined ones come beside it.
  Name-open rules are specialised inside that walk, by a binder join over
  the settled strata, and the compiled object memoises the specialisation.
  The maintenance plans are the walk's: one bundle per stratum it walked,
  instances included — an alternating stratum, or one reading
  possibly-undefined atoms, is maintained by the cone step, the others by
  delete-rederive — so a write patches the model, and only a write that
  reaches a binder plan's reads (``game/1``) walks from scratch and may
  compile.  The model is the well-founded one: wherever Figure 1 accepts
  the program it is total and the perfect model (Theorem 6.1); where
  Figure 1 rejects — a cyclic move relation — the session answers
  three-valued instead of refusing, and the *verdict* stays with
  :func:`repro.core.modular.modularly_stratified_for_hilog` on the oracle
  side.  The mode's reference is the same walk over strata compiled afresh
  for each check, so it shares no plan and no memoised specialisation with
  the session; the incremental mode's is the walk over strata compiled
  without negation cycles.
* ``"recompute"`` — what the walk refuses: recursion through aggregation
  (the parts explosion), a name-open rule beside negation with a name
  variable no binder binds, an instance that would re-settle a head
  (Example 6.5).  The evaluator is the Figure-1 procedure
  (``perfect_model_for_hilog``), and every write evaluates from scratch.

One documented semantic divergence, inherited from the two evaluators:
for an aggregate whose condition predicate is settled in a *lower*
stratum, the engine's stratified semantics (incremental sessions,
:func:`~repro.engine.seminaive.seminaive_evaluate`) folds over the full
condition extension, while the Figure-1 ground path (recompute-mode
sessions) folds only over the condition atoms of the aggregate's own
component — deriving nothing for settled conditions.  Each session mode is
verified (:meth:`~repro.db.session.DatabaseSession.check`) against the
evaluator it is built on.
"""

from __future__ import annotations

from typing import (
    AbstractSet, Callable, FrozenSet, List, NamedTuple, Optional, Tuple,
)

from repro.core.modular import perfect_model_for_hilog
from repro.db.plans import MaintenancePlans, build_maintenance_plans, walk_plans
from repro.engine.seminaive.engine import (
    Limits,
    SeminaiveUnsupported,
    stratify_program,
)
from repro.engine.seminaive.relation import RelationStore
from repro.engine.seminaive.wellfounded import (
    CompiledStrata,
    compile_strata,
    evaluate_strata,
    stratum_entry,
)
from repro.hilog.program import Program, Rule
from repro.hilog.terms import Term

#: Session evaluation modes.
INCREMENTAL = "incremental"
WELLFOUNDED = "wellfounded"
RECOMPUTE_MODE = "recompute"


class Materialized(NamedTuple):
    """What an :data:`Evaluator` returns: the model over one EDB, and the
    plans a write maintains it by."""

    #: A fresh store of the true atoms.
    store: RelationStore
    #: The undefined atoms.
    undefined: FrozenSet[Term]
    #: One :class:`MaintenancePlans` per stratum, lowest first, or ``None``:
    #: every write evaluates from scratch.
    plans: Optional[List[MaintenancePlans]] = None
    #: The indicators whose change invalidates ``plans`` — the binder
    #: plans' reads, which decide the instances a walk compiles.
    rewalk: FrozenSet = frozenset()


#: A mode's from-scratch evaluator: the EDB in, the model out.
Evaluator = Callable[[AbstractSet[Term]], Materialized]


def with_facts(rules: Program, edb: AbstractSet[Term]) -> Program:
    """``rules`` plus the EDB as facts, in ``repr`` order — the
    deterministic fact order every from-scratch evaluation is fed in (a slot
    read per atom already rendered, see
    :func:`repro.hilog.pretty.format_term`)."""
    return Program(rules.rules + tuple(Rule(atom) for atom in sorted(edb, key=repr)))


def choose_mode(rules: Program, limits: Limits, strategy: str) -> Tuple[
        str, Optional[List[MaintenancePlans]], Evaluator, Evaluator]:
    """Mode selection: ``(mode, maintenance plans, evaluator, reference)``
    for the first mode ``strategy`` admits that accepts ``rules``.

    ``plans`` are what a model the mode did not evaluate itself (a
    snapshot's) is maintained by: the incremental mode's, which depend on
    the rules alone; ``None`` otherwise — a well-founded session's plans
    are its last walk's, so its first write after a snapshot walks from
    scratch.  ``reference`` is the evaluator :meth:`DatabaseSession.check`
    holds the maintained model against: an independent run of the
    engine's stratum walk, compiled when called, which shares no
    maintenance plan with the session (the recompute mode apart, whose
    writes are its evaluator's).  Everything the evaluators need depends
    on the rules alone, so it is compiled here, once, and every call
    re-evaluates over the EDB it is given."""
    def walk(compiled, edb):
        return evaluate_strata(compiled, sorted(edb, key=repr), limits)

    def reference(allow_unstratified):
        def scratch(edb):
            result = walk(compile_strata(rules, allow_unstratified), edb)
            return Materialized(result.store, result.undefined)
        return scratch

    if strategy in ("auto", INCREMENTAL):
        try:
            stratification = stratify_program(rules, by_component=True)
            plans = [
                build_maintenance_plans(stratum, stratification.recursive)
                for stratum in stratification.strata
            ]
        except SeminaiveUnsupported:
            if strategy == INCREMENTAL:
                raise
        else:
            maintained = CompiledStrata(tuple(
                stratum_entry(bundle.stratum) for bundle in plans))

            def materialize(edb):
                result = walk(maintained, edb)
                return Materialized(result.store, result.undefined, plans)

            return INCREMENTAL, plans, materialize, reference(False)
    if strategy in ("auto", WELLFOUNDED):
        # The non-stratified fast fallback: negation cycles and binder-
        # guarded name variables are walked by the engine instead of the
        # (several times slower) Figure-1 grounding path, and maintained
        # per stratum along the walk.
        try:
            compiled = compile_strata(rules, allow_unstratified=True)
        except SeminaiveUnsupported:
            if strategy == WELLFOUNDED:
                raise
        else:
            rewalk = compiled.binder_reads()
            bundles = {}

            def wellfounded(edb):
                result = walk(compiled, edb)
                return Materialized(result.store, result.undefined,
                                    walk_plans(result.walk, bundles), rewalk)

            return WELLFOUNDED, None, wellfounded, reference(True)

    def figure1(edb):
        model = perfect_model_for_hilog(
            with_facts(rules, edb), strategy="seminaive",
            max_atoms=limits.max_facts,
        )
        return Materialized(RelationStore(model.true), frozenset())

    return RECOMPUTE_MODE, None, figure1, figure1
