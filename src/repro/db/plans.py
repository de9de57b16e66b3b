"""Per-stratum maintenance strategy.

A :class:`MaintenancePlans` is a stratum's
:class:`~repro.engine.seminaive.engine.DeltaPlans` — the engine's one plan
bundle per stratum: update variants for the positive sites the stratum does
not define (its own are the stratum plan's recursive variants), flipped
negation variants for every negative site, one ``from_head`` plan per rule
— plus the strategy :mod:`repro.db.maintenance` maintains it by:
``dred`` (the engine's delete-rederive step, shared with the alternating
fixpoint) for every stratum whose bundle compiles, ``recompute`` for
aggregate strata and strata whose variants cannot be compiled.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.engine.seminaive.engine import (
    DeltaPlans,
    SeminaiveUnsupported,
    StratumPlan,
    compile_delta_plans,
    compile_stratum,
)

#: Maintenance strategies.
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

    def pin_roots(self):
        """Term roots the maintenance bundle retains, for intern-generation
        pin sets.  Every plan of the bundle is compiled from the stratum's
        rules — the flipped negation variants reuse the original atom
        objects — so the stratum's rule roots cover every constant any of
        its register programs holds."""
        return self.bundle.stratum.pin_roots()


def build_maintenance_plans(rules, recursive):
    """Compile the maintenance bundle for one stratum.

    Raises :class:`SeminaiveUnsupported` when even the base stratum plan
    cannot be compiled; a failure to compile the *incremental* plans only
    demotes the stratum to the ``recompute`` strategy (when its head
    indicators are ground — otherwise there is no local recomputation
    boundary and the error propagates).
    """
    stratum = compile_stratum(rules, recursive)
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
