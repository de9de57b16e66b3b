"""Per-stratum plan bundles for incremental maintenance.

A :class:`MaintenancePlans` extends the engine's
:class:`~repro.engine.seminaive.engine.StratumPlan` (base pass + recursive
delta variants) with the additional compiled plans the maintenance
algorithms of :mod:`repro.db.maintenance` need:

* *update variants* — one delta variant per positive body site (not just
  the recursive ones), anchoring the finite-difference counting rules and
  the DRed over-deletion/insertion seeds at any lower-stratum change;
* *negation variants* — the rule with one negative literal flipped positive
  and anchored on the delta (``compile_rule(rule, delta_index=site)`` on a
  negative site does the flip), used to find derivations created
  (destroyed) when a negated subgoal becomes false (true);
* *rederivation plans* — each rule compiled ``from_head``: the plan takes
  an over-deleted fact, matches it against the rule head and joins the body
  with the head's variables bound, so "does this fact still have a
  derivation?" is answered with indexed probes instead of open joins.

The bundle also decides the stratum's maintenance strategy: ``counting``
for non-recursive positive strata, ``dred`` for recursive strata and strata
with (stratified) negation, ``recompute`` for aggregate strata and strata
whose maintenance plans cannot be compiled.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.engine.seminaive.engine import (
    SeminaiveUnsupported,
    StratumPlan,
    compile_stratum,
)
from repro.engine.seminaive.plan import PlanError, compile_rule
from repro.engine.seminaive.relation import literal_indicator

#: Maintenance strategies.
COUNTING = "counting"
DRED = "dred"
RECOMPUTE = "recompute"


class MaintenancePlans(NamedTuple):
    """Everything needed to maintain one stratum incrementally."""

    stratum: StratumPlan
    strategy: str
    #: ``(rule, site, indicator, plan)`` — one per positive body site.
    update_variants: Tuple
    #: ``(rule, site, indicator, plan)`` — one per negative body site,
    #: with the negation flipped into a positive delta anchor.
    negation_variants: Tuple
    #: One ``from_head`` plan per rule: run on an over-deleted fact, it is
    #: satisfiable when the rule still derives the fact.
    rederive_plans: Tuple

    @property
    def head_indicators(self):
        return self.stratum.head_indicators

    @property
    def reads(self):
        return self.stratum.reads

    def site_in_stratum(self, indicator):
        """Whether a body site could read this stratum's own predicates."""
        if indicator is None or self.stratum.head_indicators is None:
            return True
        return indicator in self.stratum.head_indicators

    def pin_roots(self):
        """Term roots the maintenance bundle retains, for intern-generation
        pin sets.  The update/negation variants and rederivation plans are
        all compiled from the stratum's rules — the flipped negation
        variants reuse the original atom objects — so the stratum's rule
        roots cover every constant any of the bundled register programs
        holds."""
        return self.stratum.pin_roots()


def build_maintenance_plans(rules, recursive):
    """Compile the maintenance bundle for one stratum.

    Raises :class:`SeminaiveUnsupported` when even the base stratum plan
    cannot be compiled; a failure to compile the *incremental* plans only
    demotes the stratum to the ``recompute`` strategy (when its head
    indicators are ground — otherwise there is no local recomputation
    boundary and the error propagates).
    """
    stratum = compile_stratum(rules, recursive)

    if stratum.has_aggregates:
        return MaintenancePlans(stratum, RECOMPUTE, (), (), ())

    try:
        update_variants = []
        negation_variants = []
        rederive_plans = []
        for rule in stratum.rules:
            for site, literal in enumerate(rule.body):
                if literal.is_builtin():
                    continue
                variants = update_variants if literal.positive else negation_variants
                variants.append((
                    rule, site, literal_indicator(literal.atom),
                    compile_rule(rule, delta_index=site),
                ))
            rederive_plans.append(compile_rule(rule, from_head=True))
    except PlanError as error:
        if stratum.head_indicators is None:
            raise SeminaiveUnsupported(str(error))
        return MaintenancePlans(stratum, RECOMPUTE, (), (), ())

    if stratum.is_recursive or stratum.has_negation:
        strategy = DRED
    else:
        strategy = COUNTING
    return MaintenancePlans(
        stratum, strategy,
        tuple(update_variants), tuple(negation_variants), tuple(rederive_plans),
    )
