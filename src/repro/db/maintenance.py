"""Incremental view-maintenance algorithms over the semi-naive engine.

Given a settled stratum and a *signed delta* of the strata below it (facts
that just became true, facts that just became false), the functions here
patch the stratum's materialized extension instead of recomputing it:

* :func:`counting_update` — the **counting algorithm** (Gupta, Mumick &
  Subrahmanian, "Maintaining views incrementally", SIGMOD'93) for
  non-recursive strata without negation or aggregation.  Every fact carries
  a support count (the number of rule instantiations deriving it, plus one
  per explicit assertion); the signed delta of derivation counts is computed
  by the standard finite-difference expansion of the body join —
  ``Δ(R1 ⋈ … ⋈ Rn) = Σ_j R1ⁿᵉʷ ⋈ … ⋈ R_{j-1}ⁿᵉʷ ⋈ ΔR_j ⋈ R_{j+1}ᵒˡᵈ ⋈ … ⋈
  Rnᵒˡᵈ`` — and a fact flips truth value exactly when its count crosses
  zero.

* :func:`dred_update` — **delete-rederive** (DRed, same paper) for
  recursive strata and strata with stratified negation.  Deletion first
  *over-deletes* everything with a derivation through a deleted fact (or
  through a negative subgoal that just became true), then *rederives* the
  over-deleted facts that still have an alternative derivation, then
  processes insertions with the engine's injected-delta semi-naive
  propagation.  Because HiLog fact counts can be self-supporting through
  recursion (a cycle keeps itself alive), counting alone is unsound there —
  this is the classical division of labour between the two algorithms.
  Delete-rederive exists once, in the engine
  (:func:`~repro.engine.seminaive.engine.delete_rederive` and
  :func:`~repro.engine.seminaive.engine.insert_anchored`); its other caller
  is the alternating fixpoint, shrinking an overestimate.  What is the
  session's here is only which states it reads: the state before the
  update (:func:`old_state`), then the store.

* :func:`recompute_stratum` — stratum-local recomputation, the fallback for
  aggregate strata (whose group extensions may change non-monotonically in
  ways neither algorithm tracks) and for any stratum whose incremental step
  fails its integrity checks.

All three leave the shared :class:`~repro.engine.seminaive.relation.RelationStore`
consistent and extend the running :class:`Delta` with the stratum's own net
changes, so the next stratum up sees exactly the facts that flipped.  Each
takes the update's :class:`~repro.engine.seminaive.engine.Limits` and, like
the engine's own loop, calls ``limits.check`` once a head has proved new —
and recorded: the session answers a refusal by recomputing the stratum
over the store as the step left it.
"""

from __future__ import annotations

from itertools import chain

from repro.engine.seminaive.engine import (
    PlanSources,
    anchored_heads,
    delete_rederive,
    delta_relevant,
    evaluate_stratum,
    insert_anchored,
    run_plan,
)
from repro.db.plans import COUNTING
from repro.engine.seminaive.relation import (
    Delta,
    FactSource,
    StoreView,
    predicate_indicator,
)
from repro.hilog.errors import GroundingError


def old_state(store: FactSource, delta: Delta) -> FactSource:
    """A read-only view of the database state *before* ``delta`` was applied
    to ``store``: the delta's additions are masked out, its removals shine
    through again."""
    if delta.is_empty():
        return store
    return StoreView((store, delta.removed), minus=delta.added)


class StagedSources(PlanSources):
    """Plan sources that stage two database states around a delta site: the
    delta-marked step reads ``delta``; other fetches read ``before`` when
    their original body index precedes ``site`` and ``after`` otherwise —
    the finite-difference staging of the counting rules, which have no
    negation."""

    __slots__ = ("site", "before", "after")

    def __init__(self, store: FactSource, delta: FactSource, site: int,
                 before: FactSource, after: FactSource) -> None:
        super().__init__(store, delta)
        self.site = site
        self.before = before
        self.after = after

    def select(self, step) -> FactSource:
        if step.from_delta:
            return self.delta
        if step.body_index < self.site:
            return self.before
        return self.after


# ---------------------------------------------------------------------------
# Counting (non-recursive strata, no negation/aggregation)
# ---------------------------------------------------------------------------

def counting_update(plans, store, delta, edb_added, edb_removed, limits):
    """Maintain a non-recursive positive stratum by support counting.

    ``plans`` is the stratum's :class:`~repro.engine.seminaive.engine.DeltaPlans`;
    ``delta`` the accumulated signed changes of the strata below (extended
    in place with this stratum's own changes); ``edb_added``/``edb_removed``
    the explicit assertions/retractions targeting this stratum's head
    predicates.
    """
    before = store  # lower strata already hold their new state
    after = old_state(store, delta)

    changes = {}
    for _rule, site, indicator, plan in plans.update_variants:
        for sign, delta_store in ((1, delta.added), (-1, delta.removed)):
            if not delta_relevant(delta_store, indicator):
                continue
            sources = StagedSources(
                store, delta_store, site, before=before, after=after
            )
            for head in run_plan(plan, sources, max_results=limits.max_facts):
                changes[head] = changes.get(head, 0) + sign

    # Explicit assertions/retractions are one support each.
    for atom in edb_added:
        changes[atom] = changes.get(atom, 0) + 1
    for atom in edb_removed:
        changes[atom] = changes.get(atom, 0) - 1

    for atom, change in changes.items():
        if change > 0:
            if store.add_support(atom, change):
                # Recorded before it is checked: a refusal must leave the
                # store and ``delta`` agreeing, or the stratum-level
                # fallback would diff against a store it cannot account for.
                delta.record_add(atom)
                limits.check(atom, store)
        elif change < 0:
            if store.remove_support(atom, -change):
                delta.record_remove(atom)


# ---------------------------------------------------------------------------
# Delete-rederive (recursive strata, stratified negation)
# ---------------------------------------------------------------------------

def dred_update(plans, store, delta, edb, edb_added, edb_removed, limits):
    """Maintain a stratum by the engine's delete-rederive step, anchored on
    the lower strata's changes.

    ``plans`` is the stratum's :class:`~repro.engine.seminaive.engine.DeltaPlans`.
    The deletion half reads the state before the update: a positive atom
    that went and a negated atom that came kill old derivations, and so
    does a retracted assertion of the stratum's own.  ``edb`` is the
    session's current assertion set (already updated for this batch) — an
    over-deleted fact that is still asserted is rederived unconditionally.
    The insertion half reads the store: a positive atom that came and a
    negated atom that went enable new derivations.
    """
    before = old_state(store, delta)
    seeds = chain(
        edb_removed,
        anchored_heads(plans.positive_variants,
                       PlanSources(before, delta.removed), limits),
        anchored_heads(plans.negation_variants,
                       PlanSources(before, delta.added), limits),
    )
    _rounds, _overdeleted, removed = delete_rederive(
        plans, store, seeds, PlanSources(before), PlanSources(store), edb, limits
    )
    for atom in removed:
        delta.record_remove(atom)

    heads = chain(
        edb_added,
        anchored_heads(plans.positive_variants,
                       PlanSources(store, delta.added), limits),
        anchored_heads(plans.negation_variants,
                       PlanSources(store, delta.removed), limits),
    )
    _iterations, added = insert_anchored(plans.stratum, store, heads, limits)
    for atom in added:
        delta.record_add(atom)


# ---------------------------------------------------------------------------
# Stratum-local recomputation (aggregates, integrity fallback)
# ---------------------------------------------------------------------------

def materialize_counting_stratum(plans, store, limits):
    """Evaluate a counting stratum from scratch, counting supports.

    A non-recursive stratum's base pass sees every derivation exactly once,
    so one pass over the base plans — with :meth:`add_support` instead of
    set-semantics ``add`` — rebuilds exact support counts.  (The EDB
    supports of the stratum's head predicates must already be in the store.)
    """
    sources = PlanSources(store)
    for _rule, plan in plans.stratum.base_plans:
        for head in run_plan(plan, sources, max_results=limits.max_facts):
            if store.add_support(head):
                limits.check(head, store)


def recompute_stratum(plans, store, delta, edb, limits):
    """Throw the stratum's extension away and recompute it from the current
    lower strata — correct for every supported stratum shape, used for
    aggregate strata and as the fallback when an incremental step fails.

    Counting strata are rebuilt with per-derivation support counts (a plain
    set-semantics rebuild would reset every count to 1 and make later
    retractions drop facts that still have other derivations)."""
    if plans.head_indicators is None:
        raise GroundingError(
            "cannot locally recompute a stratum with non-ground head "
            "predicate names"
        )
    old_facts = set()
    for name, arity in plans.head_indicators:
        old_facts.update(store.facts(name, arity))
    for atom in old_facts:
        store.remove(atom)
    for atom in edb:
        if predicate_indicator(atom) in plans.head_indicators:
            store.add(atom)
    if plans.strategy == COUNTING:
        materialize_counting_stratum(plans, store, limits)
    else:
        evaluate_stratum(plans.stratum, store, limits)
    new_facts = set()
    for name, arity in plans.head_indicators:
        new_facts.update(store.facts(name, arity))
    for atom in old_facts - new_facts:
        delta.record_remove(atom)
    for atom in new_facts - old_facts:
        delta.record_add(atom)
