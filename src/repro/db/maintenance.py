"""Incremental view maintenance over the semi-naive engine.

Given a settled stratum and a *signed delta* of the strata below it (facts
that just became true, facts that just became false), the functions here
patch the stratum's materialized extension instead of recomputing it:

* :func:`dred_update` — **delete-rederive** (DRed; Gupta, Mumick &
  Subrahmanian, "Maintaining views incrementally", SIGMOD'93) for every
  stratum whose plans compile.  Deletion first *over-deletes* everything
  with a derivation through a deleted fact (or through a negative subgoal
  that just became true), then *rederives* the over-deleted facts that
  still have an alternative derivation, then processes insertions with the
  engine's injected-delta semi-naive propagation.  A non-recursive stratum
  is the easy case: nothing propagates within it, so each over-deleted
  fact costs at most one probe per rule.  Delete-rederive exists once, in
  the engine (:func:`~repro.engine.seminaive.engine.delete_rederive` and
  :func:`~repro.engine.seminaive.engine.insert_anchored`); its other
  caller is the alternating fixpoint, shrinking an overestimate.  What is
  the session's here is only which states it reads: the state before the
  update (:func:`old_state`), then the store.

* :func:`recompute_stratum` — stratum-local recomputation, the fallback for
  aggregate strata (whose group extensions may change non-monotonically in
  ways DRed does not track) and for any stratum whose incremental step
  fails its integrity checks.

Both leave the shared :class:`~repro.engine.seminaive.relation.RelationStore`
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
    evaluate_stratum,
    insert_anchored,
)
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


# ---------------------------------------------------------------------------
# Delete-rederive
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

def recompute_stratum(plans, store, delta, edb, limits):
    """Throw the stratum's extension away and recompute it from the current
    lower strata — correct for every supported stratum shape, used for
    aggregate strata and as the fallback when an incremental step fails."""
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
    evaluate_stratum(plans.stratum, store, limits)
    new_facts = set()
    for name, arity in plans.head_indicators:
        new_facts.update(store.facts(name, arity))
    for atom in old_facts - new_facts:
        delta.record_remove(atom)
    for atom in new_facts - old_facts:
        delta.record_add(atom)
