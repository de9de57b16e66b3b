"""Session modes: which function maps the EDB to the model.

The paper gives each program class exactly one model — the perfect model
of a modularly stratified HiLog program (Figure 1, Theorem 6.1), the
three-valued well-founded model otherwise — and Theorem 6.1 makes the
first the second, total.  So a :class:`~repro.db.session.DatabaseSession`
mode is nothing more than an :data:`Evaluator`, and there are two of them.
:func:`choose_mode` picks one, once per session:

* **the walk** — every program the engine's stratum walk
  (:func:`repro.engine.seminaive.wellfounded.evaluate_strata`) accepts:
  stratified programs, cycles through negation at the predicate-indicator
  level (win/move games over cyclic graphs), and **name-open** rules
  beside negation whose name variables a binder binds (Example 6.3's
  ``winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).``, the Datahilog
  game).  The rules are compiled once, with negation cycles admitted and
  one stratum per strongly connected component of the closed rules —
  sound for the well-founded model by the splitting property — so a write
  reaches only the components that read what it changed, and an
  alternating stratum holds one negation cycle and nothing beside it (the
  instances of name-open rules are stratified among themselves by level,
  as a one-shot walk does).  No grounding: the store holds the
  certainly-true atoms, the undefined ones come beside it.
  The **maintenance plans** are the walk's, one bundle per stratum it
  walked: a stratum that alternates, or reads an atom undefined before or
  after a write, is maintained by the cone step, the others by
  **delete-rederive** (DRed; Gupta–Mumick–Subrahmanian, SIGMOD'93), and
  aggregate strata by stratum-local recomputation, which is also the
  fallback whenever an incremental step trips an integrity check.
  Name-open rules are specialised inside the walk, by a binder join over
  the settled strata, and the compiled object memoises the
  specialisation; a write that reaches a binder plan's reads
  (``game/1``) walks from scratch and may compile.  The mode's label is a
  description of the compiled rules, not a choice: ``"wellfounded"``
  when a stratum alternates or a rule is name-open, ``"incremental"``
  otherwise.  Wherever Figure 1 accepts the program the model is total
  and the perfect model (Theorem 6.1); where Figure 1 rejects — a cyclic
  move relation — the session answers three-valued instead of refusing.
  A session never asks for Figure 1's verdict;
  :func:`repro.core.modular.modularly_stratified_for_hilog` takes it from
  the same walk plus a local-stratification check.  The mode's reference
  is the walk over strata compiled afresh, by level, for each check, so it
  shares no plan and no memoised specialisation with the session.
* ``"recompute"`` — what the walk refuses: recursion through aggregation
  (the parts explosion), a name-open rule beside negation with a name
  variable no binder binds, an instance that would re-settle a head
  (Example 6.5).  The walk refuses these whatever the facts, so the
  evaluator is the ground Figure-1 procedure itself
  (``perfect_model_for_hilog`` with ``strategy="ground"``) rather than a
  walk doomed on every write (``strategy="recompute"`` forces it for any
  program), and every write evaluates from scratch.

One documented semantic divergence, inherited from the two evaluators:
for an aggregate whose condition predicate is settled in a *lower*
stratum, the engine's stratified semantics (walked sessions,
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

from repro.db.plans import MaintenancePlans, walk_plans
from repro.engine.seminaive.engine import Limits, SeminaiveUnsupported
from repro.engine.seminaive.relation import RelationStore
from repro.engine.seminaive.wellfounded import compile_strata, evaluate_strata
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
    #: plans' reads, which decide the instances a walk compiles, in
    #: first-seen order.
    rewalk: AbstractSet = frozenset()


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
    """Mode selection: ``(mode, maintenance plans, evaluator, reference)``.
    ``strategy`` is ``"auto"`` (the walk, when it accepts ``rules``) or
    ``"recompute"`` (Figure 1, whatever the rules).

    ``plans`` are what a model the mode did not evaluate itself (a
    snapshot's) is maintained by: the walk's over the compiled strata, which
    depend on the rules alone — ``None`` when a rule is name-open, whose
    instances only a walk over the facts knows, so such a session's first
    write after a snapshot walks from scratch, and in recompute mode.
    ``reference`` is the evaluator :meth:`DatabaseSession.check` holds the
    maintained model against: an independent run of the engine's stratum
    walk, compiled when called, which shares no maintenance plan with the
    session (the recompute mode apart, whose writes are its evaluator's).
    Everything the evaluators need depends on the rules alone, so it is
    compiled here, once, and every call re-evaluates over the EDB it is
    given."""
    def walk(compiled, edb):
        return evaluate_strata(compiled, sorted(edb, key=repr), limits)

    if strategy == "auto":
        try:
            compiled = compile_strata(rules, allow_unstratified=True,
                                      by_component=True)
        except SeminaiveUnsupported:
            pass
        else:
            rewalk = compiled.binder_reads()
            bundles = {}
            plans = None if compiled.open_rules \
                else walk_plans(compiled.strata, bundles)
            # The label describes the compiled rules; it selects nothing.
            alternates = any(delta is not None
                             for _stratum, delta, _names in compiled.strata)
            mode = WELLFOUNDED if alternates or compiled.open_rules \
                else INCREMENTAL

            def materialize(edb):
                result = walk(compiled, edb)
                return Materialized(result.store, result.undefined,
                                    walk_plans(result.walk, bundles), rewalk)

            def reference(edb):
                result = walk(compile_strata(rules, allow_unstratified=True),
                              edb)
                return Materialized(result.store, result.undefined)

            return mode, plans, materialize, reference

    def figure1(edb):
        # Imported here: a process whose sessions the walk accepts never
        # loads the ground oracle.
        from repro.core.modular import perfect_model_for_hilog
        model = perfect_model_for_hilog(
            with_facts(rules, edb), strategy="ground",
            max_atoms=limits.max_facts,
        )
        # In ``repr`` order: the model is a set, whose order changes from
        # one process to the next (terms hash by identity).
        return Materialized(RelationStore(sorted(model.true, key=repr)),
                            frozenset())

    return RECOMPUTE_MODE, None, figure1, figure1
