"""Per-stratum plan bundles for incremental maintenance.

A :class:`MaintenancePlans` extends the engine's
:class:`~repro.engine.seminaive.engine.StratumPlan` (base pass + recursive
delta variants) with the additional compiled plans the maintenance
algorithms of :mod:`repro.db.maintenance` need:

* *update variants* — one delta variant per positive body site (not just
  the recursive ones), anchoring the finite-difference counting rules and
  the DRed over-deletion/insertion seeds at any lower-stratum change;
* *negation variants* — the rule with one negative literal flipped positive
  and anchored on the delta, used to find derivations created (destroyed)
  when a negated subgoal becomes false (true);
* *rederivation plans* — the rule body compiled with every head variable
  pre-bound, so "does this over-deleted fact still have a derivation?" is
  answered with indexed probes instead of open joins.

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
from repro.engine.seminaive.plan import PlanError, _compile_builder, compile_rule
from repro.engine.seminaive.relation import literal_indicator
from repro.hilog.program import Literal, Rule

#: Maintenance strategies.
COUNTING = "counting"
DRED = "dred"
RECOMPUTE = "recompute"


def _linear_head_vars(head):
    """The argument variables of a *linear* head — a flat application with a
    ground name and pairwise-distinct variable arguments — or ``None``.
    Linear heads let rederivation bind a candidate fact with one ``zip``
    instead of a full structural match."""
    from repro.hilog.terms import App, Var

    if not isinstance(head, App) or not head.name.is_ground():
        return None
    names = []
    for arg in head.args:
        if not isinstance(arg, Var):
            return None
        names.append(arg)
    if len(set(names)) != len(names):
        return None
    return tuple(names)


class MaintenancePlans(NamedTuple):
    """Everything needed to maintain one stratum incrementally."""

    stratum: StratumPlan
    strategy: str
    #: ``(rule, site, indicator, plan)`` — one per positive body site.
    update_variants: Tuple
    #: ``(rule, site, indicator, plan)`` — one per negative body site,
    #: with the negation flipped into a positive delta anchor.
    negation_variants: Tuple
    #: ``(rule, plan, bound_body, linear_head, compiled_body, init_slots)``
    #: — bodies compiled with the head variables bound; ``bound_body`` is
    #: ``(positives, negatives)`` when the head instantiates the entire body
    #: (rederivation is then a membership test), else ``None``;
    #: ``linear_head`` is the head's argument-variable tuple when one ``zip``
    #: can bind it, else ``None``; ``compiled_body`` (set with both of the
    #: above) holds the body atoms as register builders whose "registers"
    #: are the candidate fact's argument tuple, so the membership test runs
    #: without any substitution at all; ``init_slots`` maps head positions
    #: to the plan's register slots for positional satisfiability probes.
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
        pin sets.  The update/negation variants, rederivation plans and
        compiled membership builders are all compiled from the stratum's
        rules — the flipped negation variants reuse the original atom
        objects — so the stratum's rule roots cover every constant any of
        the bundled register programs holds."""
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
                if literal.positive:
                    update_variants.append((
                        rule, site, literal_indicator(literal.atom),
                        compile_rule(rule, delta_index=site),
                    ))
                else:
                    flipped = Rule(
                        rule.head,
                        rule.body[:site] + (Literal(literal.atom, True),)
                        + rule.body[site + 1:],
                        rule.aggregates,
                    )
                    negation_variants.append((
                        rule, site, literal_indicator(literal.atom),
                        compile_rule(flipped, delta_index=site),
                    ))
            head_vars = frozenset(rule.head.variables())
            bound_body = None
            if all(not literal.is_builtin() and literal.atom.variables() <= head_vars
                   for literal in rule.body):
                bound_body = (
                    tuple(lit.atom for lit in rule.body if lit.positive),
                    tuple(lit.atom for lit in rule.body if lit.negative),
                )
            linear_head = _linear_head_vars(rule.head)
            compiled_body = None
            if bound_body is not None and linear_head is not None:
                # The candidate fact's argument tuple doubles as the register
                # file: variable i of the linear head reads ``args[i]``.
                position_of = {v: i for i, v in enumerate(linear_head)}
                compiled_body = tuple(
                    tuple(_compile_builder(atom, head_vars, position_of.__getitem__)
                          for atom in group)
                    for group in bound_body
                )
            plan = compile_rule(rule, bound=head_vars)
            init_slots = None
            if linear_head is not None:
                # Register slots of the head variables, by head position, so
                # rederivation can seed the registers straight from a
                # candidate fact's argument tuple.
                init_slots = tuple(
                    plan.registers.slot_of[v] for v in linear_head
                )
            rederive_plans.append((
                rule, plan, bound_body, linear_head, compiled_body, init_slots,
            ))
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
