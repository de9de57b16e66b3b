"""Per-stratum maintenance strategy.

A :class:`MaintenancePlans` is a stratum's
:class:`~repro.engine.seminaive.engine.DeltaPlans` — the engine's one plan
bundle per stratum: update variants for the positive sites the stratum does
not define (its own are the stratum plan's recursive variants), flipped
negation variants for every negative site, one ``from_head`` plan per rule
— plus the strategy :mod:`repro.db.maintenance` maintains it by:
``alternating`` (the cone step, :func:`~repro.db.maintenance.alternating_update`)
for a stratum with a cycle through negation, ``recompute`` (stratum-local
recomputation) for an aggregate stratum, ``dred`` (the engine's
delete-rederive step, shared with the alternating fixpoint) for every other
stratum.  A ``dred`` stratum that reads an atom undefined before or after a
write takes the cone step for that write.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.engine.seminaive.engine import (
    DeltaPlans,
    StratumPlan,
    compile_delta_plans,
)

#: Maintenance strategies.
ALTERNATING = "alternating"
DRED = "dred"
RECOMPUTE = "recompute"


class MaintenancePlans(NamedTuple):
    """Everything needed to maintain one stratum incrementally."""

    bundle: DeltaPlans
    strategy: str

    @property
    def stratum(self) -> StratumPlan:
        return self.bundle.stratum

    @property
    def head_indicators(self):
        return self.bundle.stratum.head_indicators

    @property
    def reads(self):
        return self.bundle.stratum.reads


def maintenance_plans(stratum, alternating=None):
    """The maintenance bundle of ``stratum``, a compiled
    :class:`~repro.engine.seminaive.engine.StratumPlan`; ``alternating`` is
    the :class:`~repro.engine.seminaive.engine.DeltaPlans` the walk
    alternates the stratum with, when it does.  The delta plans of every
    stratum a walk visits compile (``tests/db/test_plans_compile.py``
    holds the premise as a property)."""
    if alternating is not None:
        return MaintenancePlans(alternating, ALTERNATING)
    if stratum.has_aggregates:
        return MaintenancePlans(DeltaPlans(stratum, (), (), ()), RECOMPUTE)
    return MaintenancePlans(compile_delta_plans(stratum), DRED)


def walk_plans(walk, cache):
    """One :class:`MaintenancePlans` per stratum of ``walk`` — the
    ``(stratum, alternating delta plans or None, head names)`` entries an
    evaluation walked.  ``cache`` maps ``id(stratum)`` to the bundles of
    the previous walk and is replaced by this walk's, so a stratum walked
    again, memoised instances of name-open rules included, compiles
    nothing."""
    plans = []
    for stratum, alternating, _names in walk:
        cached = cache.get(id(stratum))
        if cached is None or cached.stratum is not stratum:
            cached = maintenance_plans(stratum, alternating)
        plans.append(cached)
    cache.clear()
    cache.update((id(bundle.stratum), bundle) for bundle in plans)
    return plans
