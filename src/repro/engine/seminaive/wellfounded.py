"""Semi-naive well-founded evaluation: the alternating fixpoint on the
register machine.

The paper's central examples — win/move games over arbitrary graphs,
Example 6.3's parameterized games — live *between* the stratified programs
(:func:`repro.engine.seminaive.engine.seminaive_evaluate`) and arbitrary
normal programs: their predicate dependency graph has a cycle through
negation, so no stratum order makes every negative subgoal read a settled
stratum.  Their well-founded model is still computable bottom-up by Van
Gelder's **alternating fixpoint**: iterate the Gelfond–Lifschitz operator
``Γ`` from below and above at once — the least fixpoint of ``Γ²`` is the
set of certainly-true atoms, its greatest fixpoint the set of
possibly-true (true-or-undefined) atoms, and the gap between them is
exactly the undefined part of the well-founded model (Definitions 3.3–3.5
via the Γ characterization).

This module runs *both* phases of that construction as semi-naive
fixpoints over the existing :class:`~repro.engine.seminaive.plan.JoinPlan`
/ register-machine execution, instead of materializing a ground program
and iterating over its rules:

* the program is stratified with
  :func:`~repro.engine.seminaive.engine.stratify_program`
  (``allow_unstratified=True``), so only the negation-SCC strata alternate
  — genuinely stratified strata still evaluate **once** through the
  ordinary least fixpoint, and stratified strata that merely *read*
  possibly-undefined lower atoms evaluate exactly twice (one overestimate
  pass, one underestimate pass; with negation confined to settled strata
  the two phases cannot feed back into each other);
* each phase resolves its negative subgoals against the **opposite**
  phase's store through the
  :class:`~repro.engine.seminaive.engine.PlanSources` negation hook:
  ``not a`` holds while overestimating iff ``a`` is not proven true, and
  while underestimating iff ``a`` is not even possibly true;
* the *underestimate* is monotone across alternations, so it lives in one
  :class:`~repro.engine.seminaive.relation.RelationStore` forever and each
  outer alternation resumes it semi-naively: the atoms that just fell out
  of the overestimate anchor flipped-negation delta variants (the
  ``compile_rule(flipped, delta_index=site)`` idiom of
  :mod:`repro.db.plans`), and the heads they produce are injected through
  ``evaluate_stratum(seed_delta=...)`` — no from-scratch recomputation of
  the true atoms, work per alternation proportional to what changed;
* the *overestimate* shrinks across alternations, so each alternation
  builds it into a fresh top layer of a
  :class:`~repro.engine.seminaive.relation.StoreView` over the settled
  stores — discarding the previous overestimate is dropping a layer, never
  a per-fact deletion.

The result partitions the derivable atoms into true and undefined;
everything else is false under the closed-world reading the paper's
unfoundedness arguments justify for range-restricted programs
(Observation 5.1) — the same soundness assumption the relevance grounder
makes.  The ground construction in :mod:`repro.engine.wellfounded` stays
the verification oracle; the differential harness in
``tests/engine/test_wellfounded_agreement.py`` checks the two engines (and
the paper-faithful ``W_P`` iteration) atom-for-atom on random
non-stratified programs.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import FrozenSet, NamedTuple, Tuple

from repro.engine.interpretation import Interpretation, WellFoundedResult
from repro.engine.seminaive.engine import (
    EXECUTION_STATS,
    PlanSources,
    SeminaiveUnsupported,
    check_derived_atom,
    compile_stratum,
    evaluate_stratum,
    run_plan,
    stratify_program,
)
from repro.engine.seminaive.plan import PlanError, compile_rule
from repro.engine.seminaive.relation import (
    FactBuckets,
    RelationStore,
    StoreView,
    literal_indicator,
    predicate_indicator,
)
from repro.hilog.errors import GroundingError
from repro.obs.trace import current_tracer
from repro.hilog.program import Literal, Rule
from repro.hilog.terms import Term, predicate_name


class SeminaiveWellFoundedResult(NamedTuple):
    """The well-founded model computed by the alternating semi-naive
    evaluation, as a true/undefined partition of the derivable atoms."""

    #: Atoms true in the well-founded model (seeds included).
    true: FrozenSet[Term]
    #: Atoms left undefined (in the overestimate but never proven).
    undefined: FrozenSet[Term]
    #: Predicate-name terms settled per stratum, lowest first.
    strata: Tuple[FrozenSet[Term], ...]
    #: Total inner delta iterations across all strata and phases.
    iterations: int
    #: Total outer over/under alternations (0 for stratified programs).
    alternations: int
    #: The underestimate store — the true atoms, indexed.
    store: RelationStore

    def is_total(self):
        """True when the model leaves nothing undefined."""
        return not self.undefined

    def interpretation(self):
        """The model as an :class:`~repro.engine.interpretation.Interpretation`
        over the derivable atoms: ``true`` is explicit, ``undefined`` is the
        rest of the base, and everything outside the base is false by
        closed world (the same convention the seminaive perfect model
        uses)."""
        return Interpretation(true=self.true, false=(), base=self.true | self.undefined)


def compile_well_founded(program):
    """Compile ``program``'s rules for :func:`seminaive_well_founded`: one
    ``(stratum plan, flipped-negation variants or None, head names)`` per
    stratum, lowest first, the variants present exactly for the
    negation-SCC strata, which alternate.  The result depends on the rules
    alone, so a caller that re-evaluates them over changing facts (a
    well-founded session, once per write) compiles once.  Raises
    :class:`~repro.engine.seminaive.engine.SeminaiveUnsupported` for
    programs outside the class."""
    stratification = stratify_program(program, allow_unstratified=True)
    strata = []
    for index, rules in enumerate(stratification.strata):
        stratum = compile_stratum(rules, stratification.recursive)
        variants = None
        if index in stratification.unstratified:
            variants = _negation_variants(stratum)
        names = frozenset(predicate_name(rule.head) for rule in rules)
        strata.append((stratum, variants, names))
    return tuple(strata)


def _negation_variants(stratum):
    """Flipped-negation delta variants of a negation-SCC stratum.

    For every body literal ``not a`` whose indicator is defined *in* the
    stratum, compile the rule with that literal flipped positive and
    anchored on the delta — the plan that finds every rule instance newly
    enabled because ``a`` just fell out of the overestimate.  Negations on
    settled lower strata are skipped: their context never changes between
    alternations.
    """
    variants = []
    heads = stratum.head_indicators
    try:
        for rule in stratum.rules:
            for site, literal in enumerate(rule.body):
                if literal.positive or literal.is_builtin():
                    continue
                indicator = literal_indicator(literal.atom)
                if heads is not None and indicator is not None \
                        and indicator not in heads:
                    continue
                flipped = Rule(
                    rule.head,
                    rule.body[:site] + (Literal(literal.atom, True),)
                    + rule.body[site + 1:],
                    rule.aggregates,
                )
                variants.append((rule, site, compile_rule(flipped, delta_index=site)))
    except PlanError as error:
        raise SeminaiveUnsupported(str(error))
    return tuple(variants)


def _alternate_stratum(stratum, variants, under, over_extra, max_facts,
                       max_term_depth):
    """The alternating fixpoint of one negation-SCC stratum.

    ``under`` (the global underestimate) and ``over_extra`` (settled
    lower-strata undefined atoms) are read in place; the stratum's final
    overestimate is returned as a fresh layer disjoint from ``under``.
    Each round computes ``O_k = Γ(U_{k-1})`` into a fresh layer and then
    resumes ``U_k = Γ(O_k)`` semi-naively from the atoms that left the
    overestimate; ``U`` grows and ``O`` shrinks monotonically, so the loop
    stops the first time the underestimate stands still.

    Returns ``(iterations, alternations, final_layer)``.
    """
    tracer = current_tracer()
    iterations = 0
    alternations = 0
    previous_layer = None
    check_caps = max_term_depth is not None
    while True:
        alternations += 1
        EXECUTION_STATS.alternations += 1
        iterations_before = iterations

        # Overestimate phase: least fixpoint with ``not a`` ⇔ a ∉ under.
        layer = RelationStore()
        over_view = StoreView((under, over_extra, layer))
        its, _over_added = evaluate_stratum(
            stratum, over_view, negation_store=under,
            max_facts=max_facts, max_term_depth=max_term_depth,
        )
        iterations += its

        # Underestimate phase: least fixpoint with ``not a`` ⇔ a ∉ over.
        if previous_layer is None:
            # First alternation: full base pass + delta iterations.
            its, under_added = evaluate_stratum(
                stratum, under, negation_store=over_view,
                max_facts=max_facts, max_term_depth=max_term_depth,
            )
            iterations += its
            grew = bool(under_added)
        else:
            # Later alternations: only a shrunken overestimate can enable
            # new true derivations.  Anchor the flipped-negation variants
            # on the atoms that left the overestimate, then propagate the
            # seeds through the ordinary semi-naive delta loop.
            removed = [
                atom for atom in previous_layer
                if atom not in layer and atom not in under
            ]
            seeds = []
            if removed:
                sources = PlanSources(
                    under, FactBuckets(removed), negation=over_view
                )
                for _rule, _site, plan in variants:
                    for head in run_plan(plan, sources, max_results=max_facts):
                        if check_caps or len(under) >= max_facts:
                            check_derived_atom(head, under, max_facts, max_term_depth)
                        if under.add(head):
                            seeds.append(head)
            grew = bool(seeds)
            if seeds:
                its, _more = evaluate_stratum(
                    stratum, under, seed_delta=seeds, negation_store=over_view,
                    max_facts=max_facts, max_term_depth=max_term_depth,
                )
                iterations += its
        if tracer is not None:
            tracer.emit(
                "alternation", alternation=alternations,
                over=len(layer), under=len(under),
                iterations=iterations - iterations_before, grew=grew,
            )
        if not grew:
            # U_k == U_{k-1}, hence O_{k+1} would equal O_k: converged.
            # ``layer`` was computed against the final underestimate, so it
            # holds exactly this stratum's undefined atoms.
            return iterations, alternations, layer
        previous_layer = layer


def seminaive_well_founded(program, extra_facts=(), max_facts=1000000,
                           max_term_depth=None, compiled=None):
    """Compute the well-founded model of ``program`` semi-naively.

    Handles every ground-predicate-indicator program without aggregation
    through negation cycles — in particular the non-stratified class the
    stratified engine (:func:`~repro.engine.seminaive.engine.seminaive_evaluate`)
    refuses.  ``extra_facts`` seeds additional atoms assumed true.  Returns
    a :class:`SeminaiveWellFoundedResult`; raises
    :class:`~repro.engine.seminaive.engine.SeminaiveUnsupported` for
    programs outside the class (non-ground predicate names with negation,
    recursion through aggregation, aggregation over possibly-undefined
    atoms) and :class:`~repro.hilog.errors.GroundingError` when a resource
    cap trips, mirroring the stratified engine's contract.

    ``compiled`` is the :func:`compile_well_founded` of ``program``'s rules,
    for callers that evaluate the same rules again and again; by default
    the rules are compiled here.
    """
    if compiled is None:
        compiled = compile_well_founded(program)
    tracer = current_tracer()
    if tracer is not None:
        started = _perf_counter()

    under = RelationStore()
    for atom in extra_facts:
        if not atom.is_ground():
            raise GroundingError("extra fact %r is not ground" % (atom,))
        under.add(atom)
    for rule in program.rules:
        if rule.is_fact():
            if not rule.head.is_ground():
                raise GroundingError("fact %r is not ground" % (rule.head,))
            under.add(rule.head)

    over_extra = RelationStore()
    uncertain = set()
    iterations = 0
    alternations = 0
    strata_names = []

    for stratum, variants, names in compiled:
        strata_names.append(names)
        alternating = variants is not None
        if uncertain:
            reads = stratum.reads
            reads_uncertain = reads is None or bool(reads & uncertain)
        else:
            reads_uncertain = False
        if stratum.has_aggregates and (alternating or reads_uncertain):
            raise SeminaiveUnsupported(
                "a stratum aggregates inside a negation cycle or over "
                "possibly-undefined atoms; three-valued aggregation is "
                "outside the supported class"
            )

        if not alternating and not reads_uncertain:
            # Certain stratum: the classic single least fixpoint — its
            # atoms are both proven and possibly true, no second store.
            its, _added = evaluate_stratum(
                stratum, under, max_facts=max_facts, max_term_depth=max_term_depth,
            )
            iterations += its
            continue

        if not alternating:
            # Stratified stratum over three-valued input: negation reads
            # settled strata only, so the two phases cannot feed back —
            # one overestimate pass, one underestimate pass.
            over_view = StoreView((under, over_extra))
            its, over_added = evaluate_stratum(
                stratum, over_view, negation_store=under,
                max_facts=max_facts, max_term_depth=max_term_depth,
            )
            iterations += its
            its, _added = evaluate_stratum(
                stratum, under, negation_store=over_view,
                max_facts=max_facts, max_term_depth=max_term_depth,
            )
            iterations += its
            alternations += 1
            EXECUTION_STATS.alternations += 1
            for atom in over_added:
                if atom in under:
                    over_extra.remove(atom)
                else:
                    uncertain.add(predicate_indicator(atom))
            continue

        # Negation-SCC stratum: the full alternating fixpoint.
        its, alts, layer = _alternate_stratum(
            stratum, variants, under, over_extra, max_facts, max_term_depth
        )
        iterations += its
        alternations += alts
        for atom in layer:
            over_extra.add(atom)
            uncertain.add(predicate_indicator(atom))

    if tracer is not None:
        tracer.emit(
            "wellfounded", strata=len(strata_names), iterations=iterations,
            alternations=alternations, true=len(under),
            undefined=len(over_extra), duration_s=_perf_counter() - started,
        )
    return SeminaiveWellFoundedResult(
        true=frozenset(under),
        undefined=frozenset(over_extra),
        strata=tuple(strata_names),
        iterations=iterations,
        alternations=alternations,
        store=under,
    )


def seminaive_well_founded_model(program, **kwargs):
    """The well-founded model as an
    :class:`~repro.engine.interpretation.Interpretation` (see
    :meth:`SeminaiveWellFoundedResult.interpretation`)."""
    return seminaive_well_founded(program, **kwargs).interpretation()


def seminaive_well_founded_detailed(program, **kwargs):
    """Like :func:`seminaive_well_founded_model` but returning the shared
    :class:`~repro.engine.wellfounded.WellFoundedResult`, so callers can
    treat the three well-founded engines (``wp``, ``alternating``,
    ``seminaive``) uniformly."""
    result = seminaive_well_founded(program, **kwargs)
    return WellFoundedResult(
        interpretation=result.interpretation(),
        iterations=result.iterations,
        engine="seminaive",
        alternations=result.alternations,
    )
