"""Per-stratum maintenance strategy.

A :class:`MaintenancePlans` is a stratum's
:class:`~repro.engine.seminaive.engine.DeltaPlans` — the engine's one plan
bundle per stratum: update variants for the positive sites the stratum does
not define (its own are the stratum plan's recursive variants), flipped
negation variants for every negative site, one ``from_head`` plan per rule
— plus the strategy :mod:`repro.db.maintenance` maintains it by:
``alternating`` (the cone step, :func:`~repro.db.maintenance.alternating_update`)
for a stratum with a cycle through negation, ``dred`` (the engine's
delete-rederive step, shared with the alternating fixpoint) for every other
stratum whose bundle compiles, ``recompute`` for aggregate strata and strata
whose variants cannot be compiled.  A ``dred`` stratum that reads an atom
undefined before or after a write takes the cone step for that write.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.engine.seminaive.engine import (
    DeltaPlans,
    SeminaiveUnsupported,
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
    alternates the stratum with, when it does.

    A failure to compile the incremental plans demotes the stratum to the
    ``recompute`` strategy when its head indicators are ground — otherwise
    there is no local recomputation boundary and
    :class:`~repro.engine.seminaive.engine.SeminaiveUnsupported` propagates.
    """
    if alternating is not None:
        return MaintenancePlans(alternating, ALTERNATING)
    unmaintained = MaintenancePlans(DeltaPlans(stratum, (), (), ()), RECOMPUTE)
    if stratum.has_aggregates:
        return unmaintained
    try:
        bundle = compile_delta_plans(stratum)
    except SeminaiveUnsupported:
        if stratum.head_indicators is None:
            raise
        return unmaintained
    return MaintenancePlans(bundle, DRED)


def walk_plans(walk, cache):
    """One :class:`MaintenancePlans` per stratum of ``walk`` — the
    ``(stratum, alternating delta plans or None, head names)`` entries an
    evaluation walked — or ``None`` when one of them has no local
    maintenance boundary.  ``cache`` maps ``id(stratum)`` to the bundles of
    the previous walk and is replaced by this walk's, so a stratum walked
    again, memoised instances of name-open rules included, compiles
    nothing."""
    try:
        plans = []
        for stratum, alternating, _names in walk:
            cached = cache.get(id(stratum))
            if cached is None or cached.stratum is not stratum:
                cached = maintenance_plans(stratum, alternating)
            plans.append(cached)
    except SeminaiveUnsupported:
        plans = None
    cache.clear()
    cache.update((id(bundle.stratum), bundle) for bundle in plans or ())
    return plans
