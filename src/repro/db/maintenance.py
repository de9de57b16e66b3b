"""Incremental view maintenance over the semi-naive engine.

Given a settled stratum and a *signed delta* of the strata below it (facts
that just became true, facts that just became false — and, in a
well-founded model, facts that became or stopped being undefined), the
functions here patch the stratum's materialized extension instead of
recomputing it:

* :func:`dred_update` — **delete-rederive** (DRed; Gupta, Mumick &
  Subrahmanian, "Maintaining views incrementally", SIGMOD'93) for every
  stratum whose plans compile and whose reads are two-valued.  Deletion
  first *over-deletes* everything
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

* :func:`alternating_update` — the **cone step**
  (:func:`~repro.engine.seminaive.wellfounded.cone_step`) for a stratum of
  a well-founded model that alternates or reads possibly-undefined atoms:
  only the stratum's atoms a changed atom can reach are re-alternated, from
  below, and their old and new values become the next strata's delta.

* :func:`recompute_stratum` — stratum-local recomputation, the fallback for
  aggregate strata (whose group extensions may change non-monotonically in
  ways DRed does not track) and for any stratum whose incremental step
  fails its integrity checks.

Each leaves the shared :class:`~repro.engine.seminaive.relation.RelationStore`
consistent and extends the running :class:`Delta` with the stratum's own net
changes, so the next stratum up sees exactly the facts that flipped.  Each
takes the update's :class:`~repro.engine.seminaive.engine.Limits` and, like
the engine's own loop, calls ``limits.check`` once a head has proved new —
and recorded: the session answers a refusal by recomputing the stratum
over the store as the step left it, or the whole model when the stratum is
three-valued.
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
    FactBuckets,
    FactSource,
    StoreView,
    predicate_indicator,
)
from repro.engine.seminaive.wellfounded import cone_step
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
# The cone step (three-valued strata)
# ---------------------------------------------------------------------------

def alternating_update(plans, store, undefined, delta, undefined_delta, edb,
                       own, limits):
    """Maintain a stratum of a well-founded model by the engine's cone step,
    anchored on every lower atom whose value changed.

    ``store`` and ``undefined`` are the model's true and undefined atoms,
    ``delta`` and ``undefined_delta`` the write's changes to each so far;
    ``edb`` is the session's current assertion set and ``own`` the
    stratum's asserted atoms the write inserted or retracted.  Each cone
    atom's move between true, undefined and false is recorded in the two
    deltas, in cone order.  Returns the cone's size."""
    changed = FactBuckets(chain(delta.added, delta.removed,
                                undefined_delta.added, undefined_delta.removed))
    gone = FactBuckets(
        atom for atom in chain(delta.removed, undefined_delta.removed)
        if atom not in store and atom not in undefined
    )
    cone = cone_step(plans, store, undefined, changed, gone, own, edb, limits)
    for atom, (was_true, was_undefined) in cone.items():
        if was_true != (atom in store):
            (delta.record_remove if was_true else delta.record_add)(atom)
        if was_undefined != (atom in undefined):
            (undefined_delta.record_remove if was_undefined
             else undefined_delta.record_add)(atom)
    return len(cone)


# ---------------------------------------------------------------------------
# Stratum-local recomputation (aggregates, integrity fallback)
# ---------------------------------------------------------------------------

def recompute_stratum(plans, store, delta, edb, limits):
    """Throw the stratum's extension away and recompute it from the current
    lower strata — correct for every two-valued stratum shape, used for
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
