"""The stratum walk from compiled rules to a model: the alternating
fixpoint on the register machine, of which the perfect model of a
stratified program is the case that never alternates.

Theorem 6.1 makes a modularly stratified program's well-founded model total
and equal to its perfect model, and Figure 1 settles components lowest
first.  So there is one evaluation, :func:`evaluate_strata`: walk the
compiled strata (:func:`compile_strata`) lowest first over one seeded
store, and evaluate each the way what it reads demands —

* a **certain** stratum (no negation cycle, nothing it reads is possibly
  undefined) is one least fixpoint,
  :func:`~repro.engine.seminaive.engine.evaluate_stratum`;
* a stratified stratum that merely *reads* possibly-undefined lower atoms
  is exactly two (one overestimate pass, one underestimate pass; with
  negation confined to settled strata the two phases cannot feed back into
  each other);
* a **negation-SCC** stratum alternates (:func:`_alternate_stratum`).

Figure 1 itself — settle the lowest components, reduce the remaining rules
modulo what is settled (Definition 6.5), repeat — is a loop *around* that
walk, not a second evaluator (:func:`_walk_order`).  A **name-open** rule,
one with a variable in a predicate-name position (Example 6.3's
``winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).``), cannot be
stratified until its names are known, and what they range over is the
answer to a join: its **binder**, the positive ground-named body literals
that mention a name variable (``game(M)``).  So :func:`compile_strata` sets
such rules aside with their binder compiled as an ordinary plan, and the
walk, once the closed strata are settled, runs each binder plan over the
atoms they left true or undefined, substitutes every answer into its rule
(the binder literals stay in the body, so an undefined binder atom stays
three-valued and no truth test happens outside a plan), compiles the now
ground-named instances like any other rules and walks them over the same
store — a negation component among them alternating — until no rule gains
an instance.  It refuses a rule with a name variable no binder binds
(Figure 1 would reduce one round by round; here it is left to the
fallback) and, where Figure 1 must, an instance whose head indicator an
already-walked rule defines or reads (Example 6.5's re-settled head).  It
does not reproduce
Figure 1's *verdict*: the result is the well-founded model — the perfect
model whenever Figure 1 accepts (Theorem 6.1), three-valued where it
rejects, e.g. a game over a cyclic move relation — and
:mod:`repro.core.modular` stays the oracle that owns the verdict.

:func:`seminaive_evaluate` is the walk over strata compiled without
``allow_unstratified`` — a cycle through negation raises
:class:`~repro.engine.seminaive.engine.SeminaiveUnsupported`, every stratum
is certain, the result is total and its ``true`` set is the perfect model;
:func:`seminaive_well_founded` is the walk with the cycles admitted.  Both
return the one :class:`SeminaiveResult`, and the session evaluators of
:mod:`repro.db.modes` call :func:`evaluate_strata` themselves, with strata
they compiled once.

The paper's central examples — win/move games over arbitrary graphs,
the instances of Example 6.3's parameterized games — are where strata
alternate: their predicate dependency graph has a cycle through
negation, so no stratum order makes every negative subgoal read a settled
stratum.  Their well-founded model is still computable bottom-up by Van
Gelder's **alternating fixpoint**: iterate the Gelfond–Lifschitz operator
``Γ`` from below and above at once — the least fixpoint of ``Γ²`` is the
set of certainly-true atoms, its greatest fixpoint the set of
possibly-true (true-or-undefined) atoms, and the gap between them is
exactly the undefined part of the well-founded model (Definitions 3.3–3.5
via the Γ characterization).

*Both* phases of that construction run as semi-naive fixpoints over the
existing :class:`~repro.engine.seminaive.plan.JoinPlan` / register-machine
execution, instead of materializing a ground program and iterating over
its rules:

* each phase resolves its negative subgoals against the **opposite**
  phase's store through the
  :class:`~repro.engine.seminaive.engine.PlanSources` negation hook:
  ``not a`` holds while overestimating iff ``a`` is not proven true, and
  while underestimating iff ``a`` is not even possibly true;
* the *underestimate* is monotone across alternations, so it lives in one
  :class:`~repro.engine.seminaive.relation.RelationStore` forever and each
  outer alternation resumes it semi-naively: the atoms that just fell out
  of the overestimate anchor flipped-negation delta variants
  (``compile_rule(rule, delta_index=site)`` on a negative site), and the
  heads they produce are injected through
  :func:`~repro.engine.seminaive.engine.insert_anchored` — no from-scratch
  recomputation of the true atoms, work per alternation proportional to
  what changed;
* the *overestimate* shrinks across alternations, and what shrinks it is
  the growth of its negation context, the underestimate — the case
  delete-rederive exists for.  So it is a maintained view too: one top
  layer of a :class:`~repro.engine.seminaive.relation.StoreView` over the
  settled stores, computed from scratch by the first alternation only and
  patched by every later one through
  :func:`~repro.engine.seminaive.engine.delete_rederive`, the one
  delete-rederive step: its other caller is a session's DRed
  (:func:`repro.db.maintenance.dred_update`), over the same per-stratum
  :class:`~repro.engine.seminaive.engine.DeltaPlans`.  A negation stratum
  costs what changes between alternations, not alternations × size.

A session keeps the model this walk computed and patches it per write
without walking again: :func:`cone_step` re-alternates, in a stratum that
alternates or reads possibly-undefined atoms, only the **cone** of atoms a
changed atom can reach — the rest of the stratum keeps its value by the
splitting property of the well-founded model — with a first alternation
restricted to the cone and the later ones the walk's own
(:func:`_alternate_from`).  It starts from below rather than from the old
estimates, because the alternating fixpoint is sound only from below.
``SeminaiveResult.walk`` names the strata a walk visited, which is what
the session maintains.

The result partitions the derivable atoms into true and undefined;
everything else is false under the closed-world reading the paper's
unfoundedness arguments justify for range-restricted programs
(Observation 5.1) — the same soundness assumption the relevance grounder
makes.  The ground construction in :mod:`repro.engine.wellfounded` stays
the verification oracle; the differential harness in
``tests/engine/test_wellfounded_agreement.py`` checks the two engines (and
the paper-faithful ``W_P`` iteration) atom-for-atom on random
non-stratified programs, and ``tests/engine/test_evaluator_differential.py``
holds both entry points to what the two separate loops they replaced did.
"""

from __future__ import annotations

from itertools import count as _count
from time import perf_counter as _perf_counter
from typing import FrozenSet, NamedTuple, Tuple

from repro.engine.interpretation import Interpretation, WellFoundedResult
from repro.engine.seminaive.engine import (
    EXECUTION_STATS,
    Limits,
    PlanSources,
    SeminaiveUnsupported,
    _propagate,
    anchored_heads,
    compile_delta_plans,
    compile_stratum,
    delete_rederive,
    evaluate_stratum,
    insert_anchored,
    plan_satisfiable,
    rederive,
    run_plan,
    stratify_program,
)
from repro.engine.seminaive.plan import JoinPlan, compile_rule
from repro.engine.seminaive.relation import (
    FactBuckets,
    RelationStore,
    StoreView,
    literal_indicator,
    predicate_indicator,
)
from repro.hilog.errors import GroundingError
from repro.hilog.program import Program, Rule
from repro.hilog.subst import Substitution
from repro.hilog.terms import App, Term, Var, predicate_name, sym
from repro.obs.trace import current_tracer


class SeminaiveResult(NamedTuple):
    """The model :func:`evaluate_strata` computed, as a true/undefined
    partition of the derivable atoms — everything else is false by closed
    world.  A stratified program's is total (Theorem 6.1): ``undefined`` is
    empty, ``alternations`` is 0 and ``true`` is the perfect model."""

    #: Atoms true in the model (seeds included).
    true: FrozenSet[Term]
    #: Atoms left undefined (in the overestimate but never proven).
    undefined: FrozenSet[Term]
    #: Total inner delta iterations across all strata and phases.
    iterations: int
    #: Total outer over/under alternations (0 for stratified programs).
    alternations: int
    #: The underestimate store — the true atoms, indexed.
    store: RelationStore
    #: The atoms derived by rules (``true`` minus the seeded facts).
    derived: FrozenSet[Term]
    #: The compiled strata walked, lowest first — :func:`stratum_entry`
    #: triples, the instances of name-open rules among them — which is what
    #: a session maintains the model by.
    walk: Tuple[Tuple, ...]

    @property
    def strata(self) -> Tuple[FrozenSet[Term], ...]:
        """Predicate-name terms settled per stratum, lowest first."""
        return tuple(names for _stratum, _plans, names in self.walk)

    def is_total(self):
        """True when the model leaves nothing undefined."""
        return not self.undefined

    def interpretation(self):
        """The model as an :class:`~repro.engine.interpretation.Interpretation`
        over the derivable atoms: ``true`` is explicit, ``undefined`` is the
        rest of the base, and everything outside the base is false by
        closed world."""
        return Interpretation(true=self.true, false=(), base=self.true | self.undefined)


class OpenRule(NamedTuple):
    """A **name-open** rule — a variable in the predicate name of its head,
    of a body literal or of an aggregate condition — set aside by
    :func:`compile_strata` with the plan that closes it."""

    rule: Rule
    #: The rule's name variables, in the order the binder plan reports them.
    variables: Tuple[Var, ...]
    #: The **binder plan**: the join of the positive, ground-named body
    #: literals that mention a name variable (``game(M)``), compiled like
    #: any rule, whose heads ``'$binder'(variables...)`` are the bindings
    #: the rule is specialised by.
    plan: JoinPlan


class CompiledStrata:
    """What :func:`compile_strata` makes of a program's rules and
    :func:`evaluate_strata` walks: the strata of the rules whose every
    predicate name is ground — one ``(stratum plan, delta plans or None,
    head names)`` each, lowest first, the
    :class:`~repro.engine.seminaive.engine.DeltaPlans` present exactly for
    the negation-SCC strata, which alternate — and the
    :class:`OpenRule` s, which become strata only once the store says what
    their name variables range over.

    ``rounds`` memoises the last specialisation, one ``(binder answers,
    compiled strata)`` per round of Figure 1's loop: a walk whose binder
    plans answer as they did last time reuses every plan (a write to
    ``m1/2``), and only one whose answers changed (a write to ``game/1``)
    compiles again."""

    __slots__ = ("strata", "open_rules", "rounds")

    def __init__(self, strata, open_rules=()):
        self.strata = strata
        self.open_rules = open_rules
        self.rounds = []

    def binder_reads(self):
        """The indicators the binder plans read: a write that changes an
        atom of one may change what the open rules' names range over, and
        with it which instances a walk compiles."""
        return frozenset(
            literal_indicator(literal.atom)
            for open_rule in self.open_rules
            for literal in open_rule.plan.rule.body
        )

    def specialise(self, round_index, answers):
        """The compiled strata of the instances that ``answers``, a list of
        ``(open rule index, binder answer)`` pairs, stand for: each answer
        substituted into its rule (Definition 6.5's reduction, the binder
        literals kept in the body so an undefined binder atom stays
        three-valued), the now ground-named instances stratified among
        themselves.  ``round_index`` says which round of the walk asks."""
        key = frozenset(answers)
        rounds = self.rounds
        if round_index < len(rounds) and rounds[round_index][0] == key:
            return rounds[round_index][1]
        del rounds[round_index:]
        tracer = current_tracer()
        if tracer is not None:
            started = _perf_counter()
        instances = []
        for index, answer in answers:
            open_rule = self.open_rules[index]
            instances.append(open_rule.rule.substitute(
                Substitution(dict(zip(open_rule.variables, answer.args)))
            ))
        strata = _compile_closed(Program(instances), allow_unstratified=True)
        rounds.append((key, strata))
        if tracer is not None:
            tracer.emit(
                "specialise", round=round_index, instances=len(instances),
                strata=len(strata), duration_s=_perf_counter() - started,
            )
        return strata


#: Head symbol of a binder plan's answers; they never enter a store.
_BINDER = sym("$binder")


def name_binders(rule):
    """``(name variables, binder literals, unbound variables)`` of ``rule``.

    The **name variables** are those in predicate-name position — of the
    head, a body literal or an aggregate condition; a rule with any is
    *name-open*.  Its **binder** is the positive, ground-named body
    literals that mention one (``game(M)``): a join over settled relations
    whose answers say what the names range over.  A name variable the
    binder leaves **unbound** keeps the rule from being specialised (the
    linter's ``W504``)."""
    names = [predicate_name(rule.head)]
    names.extend(
        predicate_name(literal.atom)
        for literal in rule.body if not literal.is_builtin()
    )
    names.extend(predicate_name(spec.condition) for spec in rule.aggregates)
    variables = set()
    for name in names:
        variables |= name.variables()
    binders = tuple(
        literal for literal in rule.positive_literals()
        if predicate_name(literal.atom).is_ground()
        and literal.atom.variables() & variables
    )
    unbound = set(variables)
    for literal in binders:
        unbound -= literal.atom.variables()
    return variables, binders, unbound


def _compile_closed(program, allow_unstratified):
    """The compiled strata of ``program``, every rule of which stratifies
    as it stands."""
    stratification = stratify_program(program, allow_unstratified=allow_unstratified)
    strata = []
    for index, rules in enumerate(stratification.strata):
        if not rules:
            continue
        stratum = compile_stratum(rules, stratification.recursive)
        plans = None
        if index in stratification.unstratified:
            plans = compile_delta_plans(stratum)
        strata.append(stratum_entry(stratum, plans))
    return tuple(strata)


def stratum_entry(stratum, plans=None):
    """One stratum of :attr:`CompiledStrata.strata`: ``stratum`` (a
    :class:`~repro.engine.seminaive.engine.StratumPlan`), the
    :class:`~repro.engine.seminaive.engine.DeltaPlans` it alternates with
    (``None``: it does not), and its head names."""
    return stratum, plans, frozenset(
        predicate_name(rule.head) for rule in stratum.rules)


def compile_strata(program, allow_unstratified=False):
    """Compile ``program``'s rules for :func:`evaluate_strata`, as a
    :class:`CompiledStrata`.  A negation-SCC stratum exists only with
    ``allow_unstratified``; without it a cycle through negation raises.

    With ``allow_unstratified`` the name-open rules of a program with
    negation or aggregation — Example 6.3's ``winning(M)(X) :- game(M),
    M(X, Y), not winning(M)(Y).`` — are set aside as :class:`OpenRule` s,
    for the walk to specialise by their binder plans once the strata below
    are settled; without it they raise, as a rule with no binder does
    either way.  (A definite program keeps its name-open rules: it is one
    stratum, whatever its names.)

    The result depends on the rules alone, so a caller that re-evaluates
    them over changing facts (a session, once per write or check) compiles
    once.  Raises
    :class:`~repro.engine.seminaive.engine.SeminaiveUnsupported` for
    programs outside the class."""
    open_rules = []
    if allow_unstratified and (program.has_negation() or program.has_aggregates()):
        for rule in program.proper_rules():
            name_variables, binders, unbound = name_binders(rule)
            if unbound:
                raise SeminaiveUnsupported(
                    "no positive ground-named literal of rule %r binds the "
                    "predicate-name variable(s) %s; the rule cannot be "
                    "specialised"
                    % (rule, ", ".join(sorted(map(repr, unbound))))
                )
            if name_variables:
                variables = tuple(sorted(name_variables, key=repr))
                open_rules.append(OpenRule(
                    rule, variables,
                    compile_rule(Rule(App(_BINDER, variables), binders)),
                ))
        if open_rules:
            set_aside = {open_rule.rule for open_rule in open_rules}
            program = Program(
                rule for rule in program.rules if rule not in set_aside
            )
    compiled = CompiledStrata(
        _compile_closed(program, allow_unstratified), tuple(open_rules)
    )
    if open_rules:
        # An instance whose head indicator is known already — the name
        # variable is in the body only — and which a closed rule defines or
        # reads can never be walked: refuse here, not at the first binder
        # answer.
        settled = _indicators(compiled.strata)
        for open_rule in open_rules:
            _refuse_resettled(literal_indicator(open_rule.rule.head), settled,
                              open_rule.rule)
    return compiled


def _indicators(strata):
    """The indicators the rules of ``strata`` define or read."""
    indicators = set()
    for stratum, _plans, _names in strata:
        indicators |= stratum.head_indicators
        indicators |= stratum.reads
    return indicators


def _refuse_resettled(indicator, settled, rule):
    """Figure 1's refusal (Example 6.5): ``rule`` would derive atoms of an
    indicator the walk has already settled."""
    if indicator in settled:
        raise SeminaiveUnsupported(
            "rule %r defines %s/%d, which a rule evaluated before it "
            "defines or reads: its head would be re-settled (cf. Example "
            "6.5)" % (rule, indicator[0], indicator[1])
        )


def _alternate_stratum(plans, under, over_extra, limits):
    """The alternating fixpoint of one negation-SCC stratum, whose
    :class:`~repro.engine.seminaive.engine.DeltaPlans` are ``plans``.

    ``under`` (the global underestimate) and ``over_extra`` (settled
    lower-strata undefined atoms) are read in place; the stratum's
    overestimate is **one** layer above them for the whole fixpoint,
    returned — disjoint from ``under`` — once it is reached.  The first
    alternation computes ``O_1 = Γ(U_0)`` into the layer and ``U_1 =
    Γ(O_1)`` into ``under``, each a full least fixpoint; every later one is
    :func:`_alternate_from`'s.

    Returns ``(iterations, alternations, layer)``.
    """
    stratum = plans.stratum
    layer = RelationStore()
    over_view = StoreView((under, over_extra, layer))
    EXECUTION_STATS.alternations += 1
    # Overestimate, ``not a`` ⇔ a ∉ under, then underestimate, ``not a`` ⇔
    # a ∉ over: a base pass and delta iterations each.
    iterations, _over_added = evaluate_stratum(
        stratum, over_view, limits, negation_store=under
    )
    its, grown = evaluate_stratum(
        stratum, under, limits, negation_store=over_view
    )
    iterations += its
    _trace_alternation(1, layer, under, iterations, grown, 0, ())
    its, alternations = _alternate_from(plans, under, over_view, grown, limits)
    return iterations + its, alternations, layer


def _alternate_from(plans, under, over_view, grown, limits):
    """Alternations two onwards of one stratum's alternating fixpoint, over
    the overestimate ``over_view`` — ``under``, the settled undefined atoms
    and the stratum's layer on top — until the underestimate stands still.
    The from-scratch walk (:func:`_alternate_stratum`) and a session's cone
    step (:func:`cone_step`) both finish here.  Each alternation moves each
    estimate by what the other just changed, through the engine's
    delete-rederive step — the one a session's DRed takes too.

    The overestimate ``O_{k-1} = Γ(U_{k-2})`` becomes ``O_k = Γ(U_{k-1})``
    by its deletion half (:func:`~repro.engine.seminaive.engine.delete_rederive`),
    where ``grown``, ``U_{k-1} - U_{k-2}``, is everything the last
    underestimate phase added: an overestimate only ever loses atoms, and
    what takes one away is a negated subgoal just proven.  ``grown`` leaves
    the layer (a view's layers stay disjoint); anchored on it, the
    negation variants find the rule instances behind ``O_{k-1}`` a grown
    atom kills — reading the instance's other negated atoms against the old
    context ``U_{k-2}``, for an instance held in the **old** state: when
    two negated atoms of one instance are proven in the same alternation,
    the new context hides it from both anchors and its head outlives it.
    The closure and the rederivation read ``under`` as it stands (an
    instance the new context rejects is one an anchor has found already).
    What stays out is ``O_{k-1} - O_k``; anchored on it, the same negation
    variants find the instances newly enabled below, and the insertion half
    (:func:`~repro.engine.seminaive.engine.insert_anchored`) grows ``under``
    from their heads.  ``U`` grows and ``O`` shrinks monotonically, so the
    loop stops the first time the underestimate stands still; the layer,
    patched against the final underestimate, then holds exactly the
    stratum's undefined atoms.

    Returns ``(iterations, alternations)``, the first alternation counted.
    """
    stratum = plans.stratum
    layer = over_view.layers[-1]
    over = PlanSources(over_view, negation=under)
    iterations = 0
    alternations = 1
    while grown:
        alternations += 1
        EXECUTION_STATS.alternations += 1
        grown = FactBuckets(grown)
        for atom in grown:
            layer.remove(atom)
        old_under = StoreView((under,), minus=grown)
        seeds = anchored_heads(
            plans.negation_variants,
            PlanSources(over_view, grown, negation=old_under), limits,
        )
        its, overdeleted, removed = delete_rederive(
            plans, layer, seeds, over, over, (), limits
        )
        enabled = anchored_heads(
            plans.negation_variants,
            PlanSources(under, FactBuckets(removed), negation=over_view),
            limits,
        )
        more, grown = insert_anchored(
            stratum, under, enabled, limits, negation_store=over_view
        )
        iterations += its + more
        _trace_alternation(alternations, layer, under, its + more, grown,
                           overdeleted, removed)
    return iterations, alternations


def _trace_alternation(alternation, layer, under, iterations, grown,
                       overdeleted, removed):
    tracer = current_tracer()
    if tracer is not None:
        tracer.emit(
            "alternation", alternation=alternation,
            over=len(layer), under=len(under),
            iterations=iterations, grew=bool(grown),
            overdeleted=overdeleted,
            rederived=overdeleted - len(removed), removed=len(removed),
        )


#: The negation context of a cone's closure: nothing proven, so every
#: negated subgoal passes.
_NOTHING = FactBuckets().freeze()


def cone_step(plans, under, undefined, changed, gone, own, keep, limits):
    """Patch one stratum of a maintained well-founded model after a write —
    an alternating stratum, or one reading possibly-undefined atoms — by
    re-alternating only its **cone**: the atoms of the stratum whose value
    may have changed.  The rest keeps its value by the splitting property
    of the well-founded model (Lifschitz & Turner, "Splitting a logic
    program", ICLP 1994): no rule instance reachable from it reads a changed
    atom, so it is input to the cone exactly as the settled strata below
    are, and the cone's alternating fixpoint runs from below, where it is
    sound (Van Gelder, Ross & Schlipf, JACM 1991).

    ``plans`` is the stratum's
    :class:`~repro.engine.seminaive.engine.DeltaPlans`; ``under`` and
    ``undefined`` are the session's stores of true and undefined atoms,
    holding the new values below the stratum and the old ones from it up;
    ``changed`` holds the lower atoms whose value changed (true, undefined,
    false: either way), ``gone`` those of them that were true or undefined
    and are neither now; ``own`` lists the stratum's asserted atoms the
    write inserted or retracted, and ``keep`` is the assertion set.  Five
    stages:

    * **Cone.** ``own``, and the heads of the instances anchored on
      ``changed`` (every positive and negation variant), closed under the
      stratum's own sites, positive and negated.  The joins read every
      atom possible before or after the write — the stores, ``gone`` and
      the cone itself — and no negation context, so every negated subgoal
      passes.
    * **Remove.** Each cone atom leaves both stores as it joins the cone;
      an asserted one stays true (``keep``).
    * **First alternation, on the cone.** The overestimate is
      :func:`~repro.engine.seminaive.engine.rederive` of the cone over the
      stores, negation read against ``under``; the underestimate probes
      the overestimate's atoms against ``under``, negation read against
      the overestimate, and resumes the stratum's fixpoint from what holds
      (:func:`~repro.engine.seminaive.engine.insert_anchored`).
    * **Later alternations** are :func:`_alternate_from`'s, as in the walk.
    * **Diff.** The cone's undefined atoms join ``undefined``; the caller
      compares each cone atom's old value with its new one.

    The cone is walked in the order it was found, so the work done is a
    function of the input alone.  Returns the cone, ``{atom: (was true,
    was undefined)}`` in that order.
    """
    stratum = plans.stratum
    cone = {}
    fresh = RelationStore()

    def admit(atom):
        if atom in cone:
            return False
        was_true = atom in under
        cone[atom] = (was_true, undefined.remove(atom))
        if atom in keep:
            if under.add(atom):
                limits.check(atom, under)
        else:
            under.remove(atom)
            fresh.add(atom)
        return True

    reach = StoreView((under, undefined, gone, fresh))
    frontier = [atom for atom in own if admit(atom)]
    frontier.extend(head for head in anchored_heads(
        plans.positive_variants + plans.negation_variants,
        PlanSources(reach, changed, negation=_NOTHING), limits,
    ) if admit(head))
    _propagate(stratum.variant_plans + plans.negation_variants, frontier,
               PlanSources(reach, negation=_NOTHING), admit, limits)

    layer = RelationStore()
    over_view = StoreView((under, undefined, layer))
    EXECUTION_STATS.alternations += 1
    iterations = rederive(plans, over_view, fresh,
                          PlanSources(over_view, negation=under), (), limits)
    proven = PlanSources(under, negation=over_view)
    its, grown = insert_anchored(stratum, under, [
        atom for atom in layer
        if any(plan_satisfiable(plan, proven, atom) for plan in plans.from_head)
    ], limits, negation_store=over_view)
    _trace_alternation(1, layer, under, iterations + its, grown, 0, ())
    _its, alternations = _alternate_from(plans, under, over_view, grown, limits)
    for atom in cone:
        if atom in layer:
            undefined.add(atom)
    tracer = current_tracer()
    if tracer is not None:
        tracer.emit("cone", atoms=len(cone), undefined=len(layer),
                    alternations=alternations)
    return cone


def _seed_facts(program, extra_facts):
    """The facts an entry point seeds :func:`evaluate_strata` with:
    ``extra_facts``, then ``program``'s own, each checked ground."""
    for atom in extra_facts:
        if not atom.is_ground():
            raise GroundingError("extra fact %r is not ground" % (atom,))
        yield atom
    for rule in program.rules:
        if rule.is_fact():
            if not rule.head.is_ground():
                raise GroundingError("fact %r is not ground" % (rule.head,))
            yield rule.head


def _walk_order(compiled, possible, limits):
    """The strata :func:`evaluate_strata` walks, in its order: the closed
    ones, then — Figure 1's loop, around the walk — the instances of the
    open rules, round by round until no rule gains one.  A generator,
    resumed once the walk has evaluated what it was handed: each round's
    binder plans run over ``possible``, the live view of the atoms the
    strata walked so far leave true or undefined."""
    yield from compiled.strata
    if not compiled.open_rules:
        return
    settled = _indicators(compiled.strata)
    sources = PlanSources(possible)
    walked = set()
    for round_index in _count():
        answers = []
        for index, open_rule in enumerate(compiled.open_rules):
            for answer in run_plan(open_rule.plan, sources,
                                   max_results=limits.max_facts):
                if (index, answer) not in walked:
                    walked.add((index, answer))
                    answers.append((index, answer))
        if not answers:
            return
        if len(walked) > limits.max_facts:
            raise GroundingError(
                "specialising the name-open rules exceeded %d instances"
                % limits.max_facts
            )
        strata = compiled.specialise(round_index, answers)
        for stratum, _plans, _names in strata:
            for rule in stratum.rules:
                _refuse_resettled(literal_indicator(rule.head), settled, rule)
        settled |= _indicators(strata)
        yield from strata


def evaluate_strata(compiled, facts, limits):
    """Evaluate ``compiled`` — the :func:`compile_strata` of a program's
    rules — over the ground atoms ``facts``: the one walk from compiled
    strata to a model, lowest stratum first (Figure 1's order, the
    instances of name-open rules joining it as :func:`_walk_order` closes
    them), each stratum evaluated the way what it reads demands (see the
    module docstring).  Returns a :class:`SeminaiveResult`.

    Raises :class:`~repro.engine.seminaive.engine.SeminaiveUnsupported` for
    aggregation inside a negation cycle or over possibly-undefined atoms
    and for an instance of a name-open rule whose head is already settled,
    and :class:`~repro.hilog.errors.GroundingError` for an unsafe rule or a
    tripped cap of ``limits``.
    """
    tracer = current_tracer()
    if tracer is not None:
        started = _perf_counter()

    under = RelationStore(facts)
    seeds = frozenset(under)

    over_extra = RelationStore()
    uncertain = set()
    iterations = 0
    alternations = 0
    walk = []

    for entry in _walk_order(compiled, StoreView((under, over_extra)), limits):
        walk.append(entry)
        stratum, plans, _names = entry
        alternating = plans is not None
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

        if alternating:
            # Negation-SCC stratum: the full alternating fixpoint.
            its, alts, layer = _alternate_stratum(
                plans, under, over_extra, limits
            )
            iterations += its
            alternations += alts
            for atom in layer:
                over_extra.add(atom)
                uncertain.add(predicate_indicator(atom))
        elif reads_uncertain:
            # Stratified stratum over three-valued input: negation reads
            # settled strata only, so the two phases cannot feed back —
            # one overestimate pass, one underestimate pass.
            over_view = StoreView((under, over_extra))
            its, over_added = evaluate_stratum(
                stratum, over_view, limits, negation_store=under
            )
            iterations += its
            its, _added = evaluate_stratum(
                stratum, under, limits, negation_store=over_view
            )
            iterations += its
            alternations += 1
            EXECUTION_STATS.alternations += 1
            for atom in over_added:
                if atom in under:
                    over_extra.remove(atom)
                else:
                    uncertain.add(predicate_indicator(atom))
        else:
            # Certain stratum: the classic single least fixpoint — its
            # atoms are both proven and possibly true, no second store.
            its, _added = evaluate_stratum(stratum, under, limits)
            iterations += its

    true = frozenset(under)
    if tracer is not None:
        tracer.emit(
            "evaluate", strata=len(walk), iterations=iterations,
            alternations=alternations, facts=len(true),
            undefined=len(over_extra), duration_s=_perf_counter() - started,
        )
    return SeminaiveResult(
        true=true,
        undefined=frozenset(over_extra),
        iterations=iterations,
        alternations=alternations,
        store=under,
        derived=true - seeds,
        walk=tuple(walk),
    )


def seminaive_evaluate(program, extra_facts=(), max_facts=1000000, max_term_depth=None):
    """The perfect model of a definite or stratified ``program``, bottom-up
    with semi-naive iteration: the walk of :func:`evaluate_strata` over
    strata none of which alternates.

    ``extra_facts`` seeds the store with additional ground atoms assumed
    true (used by the modular evaluator to pass settled lower components
    in).  Returns a :class:`SeminaiveResult`; its ``true`` set is the
    perfect model — everything outside it is false under the closed-world
    reading the paper's unfoundedness arguments justify for
    range-restricted programs.

    Raises :class:`~repro.engine.seminaive.engine.SeminaiveUnsupported` for
    programs outside the class — a cycle through negation included: this
    entry point stratifies without ``allow_unstratified`` — and
    :class:`~repro.hilog.errors.GroundingError` for unsafe
    (non-range-restricted) rules, mirroring the grounding path's behaviour.
    """
    return evaluate_strata(
        compile_strata(program), _seed_facts(program, extra_facts),
        Limits(max_facts, max_term_depth),
    )


def seminaive_perfect_model(program, **kwargs):
    """The perfect model of a stratified program as a (total)
    :class:`Interpretation`: the derived atoms are true, everything else is
    false by closed world."""
    return seminaive_evaluate(program, **kwargs).interpretation()


def seminaive_well_founded(program, extra_facts=(), max_facts=1000000,
                           max_term_depth=None):
    """Compute the well-founded model of ``program`` semi-naively: the walk
    of :func:`evaluate_strata` with negation-SCC strata admitted.

    Handles every ground-predicate-indicator program without aggregation
    through negation cycles — in particular the non-stratified class
    :func:`seminaive_evaluate` refuses — and name-open rules beside
    negation whose name variables a binder binds (Example 6.3 as written).
    ``extra_facts`` seeds additional atoms assumed true.  Returns a
    :class:`SeminaiveResult`; raises
    :class:`~repro.engine.seminaive.engine.SeminaiveUnsupported` for
    programs outside the class (a name variable beside negation that no
    binder binds, an instance re-settling a head, recursion through
    aggregation, aggregation over possibly-undefined atoms) and
    :class:`~repro.hilog.errors.GroundingError` when a resource cap trips,
    mirroring the stratified entry point's contract.
    """
    return evaluate_strata(
        compile_strata(program, allow_unstratified=True),
        _seed_facts(program, extra_facts), Limits(max_facts, max_term_depth),
    )


def seminaive_well_founded_model(program, **kwargs):
    """The well-founded model as an
    :class:`~repro.engine.interpretation.Interpretation` (see
    :meth:`SeminaiveResult.interpretation`)."""
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
