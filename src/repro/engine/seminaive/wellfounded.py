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
already-walked rule defines or reads (Example 6.5's re-settled head).  The
result is the well-founded model — the perfect model whenever Figure 1
accepts (Theorem 6.1), three-valued where it rejects, e.g. a game over a
cyclic move relation.  Figure 1's *verdict* comes from the same walk
(:func:`seminaive_modular`): an undefined atom refutes modular
stratification, and relevance instances of each alternating stratum,
enumerated over the walk's true atoms and locally stratified — one Tarjan
pass over the ground atoms — prove it.  The ground procedure of
:mod:`repro.core.modular` stays the oracle it is checked against, and
decides what the walk cannot: a cycle among those instances, and
name-open rules the walk specialises in another order than Figure 1
reduces them.

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
)
from repro.hilog.depgraph import DependencyGraph
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
    #: The compiled strata walked, lowest first — the
    #: :attr:`CompiledStrata.strata` triples, the instances of name-open
    #: rules among them — which is what a session maintains the model by.
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

    def instance(self, answer):
        """The rule specialised by one answer of its binder plan."""
        return self.rule.substitute(
            Substitution(dict(zip(self.variables, answer.args)))
        )


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
        with it which instances a walk compiles.  In first-seen order, as
        :attr:`~repro.engine.seminaive.engine.StratumPlan.reads`."""
        return dict.fromkeys(
            literal_indicator(literal.atom)
            for open_rule in self.open_rules
            for literal in open_rule.plan.rule.body
        ).keys()

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
        instances = [self.open_rules[index].instance(answer)
                     for index, answer in answers]
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
    whose answers say what the names range over.  A literal of the head's
    own predicate name is not among them (``tc(G, Z, Y)`` in ``tc(G, X, Y)
    :- graph(G), G(X, Z), tc(G, Z, Y).``): the head is not settled before
    itself, so Figure 1 never binds a name through it.  A name variable
    the binder leaves **unbound** keeps the rule from being specialised
    (the linter's ``W504``)."""
    head_name = predicate_name(rule.head)
    names = [head_name]
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
        and predicate_name(literal.atom) != head_name
        and literal.atom.variables() & variables
    )
    unbound = set(variables)
    for literal in binders:
        unbound -= literal.atom.variables()
    return variables, binders, unbound


def _compile_closed(program, allow_unstratified, by_component=False):
    """The compiled strata of ``program``, every rule of which stratifies
    as it stands: one per level, or with ``by_component`` one per strongly
    connected component."""
    stratification = stratify_program(
        program, by_component, allow_unstratified=allow_unstratified)
    strata = []
    for index, rules in enumerate(stratification.strata):
        if not rules:
            continue
        stratum = compile_stratum(rules, stratification.recursive)
        plans = None
        if index in stratification.unstratified:
            plans = compile_delta_plans(stratum)
        strata.append((stratum, plans, frozenset(
            predicate_name(rule.head) for rule in rules)))
    return tuple(strata)


def compile_strata(program, allow_unstratified=False, by_component=False):
    """Compile ``program``'s rules for :func:`evaluate_strata`, as a
    :class:`CompiledStrata`.  A negation-SCC stratum exists only with
    ``allow_unstratified``; without it a cycle through negation raises.
    The strata are levels, as a one-shot evaluation prefers, or with
    ``by_component`` the strongly connected components, as a session
    maintaining the model prefers: a write then reaches only the
    components that read what it changed, and an alternating stratum holds
    one negation cycle and nothing beside it.  (The instances of name-open
    rules are stratified by level either way.)

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
    if allow_unstratified and (program.has_negation() or program.has_aggregates()):
        return _compile_specialised(program, by_component)
    return CompiledStrata(
        _compile_closed(program, allow_unstratified, by_component))


def _compile_specialised(program, by_component=False):
    """:func:`compile_strata` with negation cycles admitted and every
    name-open rule set aside, a definite program's too."""
    open_rules = []
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
        _compile_closed(program, True, by_component), tuple(open_rules)
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
            plans.negation_variants, PlanSources(over_view, negation=old_under),
            grown, limits,
        )
        its, overdeleted, removed = delete_rederive(
            plans, layer, seeds, over, over, (), limits
        )
        enabled = anchored_heads(
            plans.negation_variants, PlanSources(under, negation=over_view),
            FactBuckets(removed), limits,
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
      atom possible before or after the write — the stores, ``gone``, the
      cone itself and, in a stratum that negates its own atoms and reads
      them positively too, every atom it derives when negation is ignored
      (:func:`_possible_atoms`) — and no negation context, so every
      negated subgoal passes.
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
    possible = _possible_atoms(plans, (under, undefined, gone), limits)

    def admit(atom):
        if atom in cone:
            return False
        was_true = atom in under
        cone[atom] = (was_true, undefined.remove(atom))
        if atom in keep:
            if under.add(atom):
                limits.check(under, (atom,))
        else:
            under.remove(atom)
            possible.remove(atom)
            fresh.add(atom)
        return True

    reach = StoreView((under, undefined, gone, possible, fresh))
    frontier = [atom for atom in own if admit(atom)]
    frontier.extend(head for head in anchored_heads(
        plans.positive_variants + plans.negation_variants,
        PlanSources(reach, negation=_NOTHING), changed, limits,
    ) if admit(head))
    _propagate(stratum, stratum.variant_plans + plans.negation_variants,
               frontier, PlanSources(reach, negation=_NOTHING), admit, limits)

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


def _possible_atoms(plans, layers, limits):
    """The atoms a stratum derives over ``layers`` when every negated
    subgoal passes, beyond those the layers hold — empty unless the stratum
    negates one of its own atoms and also reads its own atoms positively.

    In such a stratum an atom false before a write can become possible
    through a loop back to the write: ``p1(c4, c2) :- p3(c4, c2), p1(c2,
    c4), ...`` anchored on an inserted ``p3(c4, c2)`` needs ``p1(c2, c4)``,
    which is possible only once ``not p2(c2, c4)`` passes, which happens
    only once ``p1(c4, c2)`` is possible.  A cone closed from the write
    over the old values alone never enters that loop.  The least model
    with negation ignored holds every atom possible after the write, so a
    cone whose joins read it as well misses no instance that could fire."""
    stratum = plans.stratum
    possible = RelationStore()
    if _reads_own(stratum.variant_plans, stratum.head_indicators) and \
            _reads_own(plans.negation_variants, stratum.head_indicators):
        evaluate_stratum(stratum, StoreView(layers + (possible,)), limits,
                         negation_store=_NOTHING)
    return possible


def _reads_own(variants, heads):
    """Whether one of ``variants`` may be anchored on an atom of ``heads``,
    a stratum's head indicators (``None``: open)."""
    return any(heads is None or indicator is None or indicator in heads
               for _rule, _site, indicator, _plan in variants)


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
    # The facts meet the caps as a round's heads do: a stratum that derives
    # nothing never checks them.
    limits.check(under, seeds)

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
                uncertain.add(atom.indicator)
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
                    uncertain.add(atom.indicator)
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


# ---------------------------------------------------------------------------
# Figure 1's verdict from the walk
# ---------------------------------------------------------------------------

def seminaive_modular(program, max_facts=1000000, max_term_depth=None):
    """The walk's model of ``program`` and Figure 1's verdict on it, from
    one walk: ``(result, reason)``, the :class:`SeminaiveResult` and
    ``None`` when the program is modularly stratified for HiLog, else why
    it is not.

    Theorem 6.1 gives one half: an undefined atom refutes modular
    stratification.  A total model proves nothing (``p :- not q.  q :- not
    p.  p.`` is total and Figure 1 rejects it), because Figure 1's step 3
    also asks that each component's reduction be locally stratified on its
    relevance instantiation.  A stratum that never alternates is stratified
    at the indicator level, so that holds for it; for each component of an
    alternating stratum :func:`_record_instances` enumerates the
    instantiation, and no strongly connected component of the recorded
    ground graph may hold a negative edge.  The walk's components are the
    rules' static ones, and Figure 1's, computed after each reduction, can
    only be finer: a rule the settled model kills drops its edges.  So the
    recorded graph holds every instance and edge Figure 1 would see, and an
    acyclic one proves acceptance; a cycle may be one Figure 1 never meets,
    and is left to it.

    Every name-open rule is specialised by its binder, a definite
    program's too, so the walk refuses what Figure 1 refuses for want of
    a binder (a name variable no binder binds) and where it would
    re-settle a head (Example 6.5).  Raises
    :class:`~repro.engine.seminaive.engine.SeminaiveUnsupported` for those,
    for such a cycle, for aggregation (Figure 1 folds an aggregate over its
    own component's atoms, the walk over every stored one) and where the
    walk's order or components are not Figure 1's: an instance Figure 1
    would meet in another order (:func:`_refuse_out_of_order`), or a
    predicate name with two arities beside an alternating stratum (Figure
    1's components are names, the walk's indicators).  Raises
    :class:`~repro.hilog.errors.GroundingError` when a cap trips.
    """
    if program.has_aggregates():
        raise SeminaiveUnsupported(
            "aggregation: Figure 1 folds over the aggregate's own component"
        )
    compiled = _compile_specialised(program)
    limits = Limits(max_facts, max_term_depth)
    result = evaluate_strata(compiled, _seed_facts(program, ()), limits)
    _refuse_out_of_order(program, compiled)
    if result.undefined:
        sample = sorted(map(repr, result.undefined))[:3]
        return result, (
            "the well-founded model leaves %d atom(s) undefined (e.g. %s), "
            "so the program has no total well-founded model and is not "
            "modularly stratified (Theorem 6.1)"
            % (len(result.undefined), ", ".join(sample))
        )
    alternating = [stratum for stratum, plans, _names in result.walk
                   if plans is not None]
    if not alternating:
        return result, None
    arities = {}
    for name, arity in _indicators(result.walk):
        if arities.setdefault(name, arity) != arity:
            raise SeminaiveUnsupported(
                "predicate name %r has two arities, which Figure 1 settles "
                "as one component" % (name,)
            )
    graph = DependencyGraph()
    for stratum in alternating:
        _record_instances(stratum, result.store, graph, limits)
    cycle = next(graph.negative_cycle_edges(), None)
    if cycle is not None:
        raise SeminaiveUnsupported(
            "%r depends negatively on %r, which depends on it, in the walk's "
            "component; Figure 1's reduction may still split the component "
            "and break the cycle" % cycle
        )
    return result, None


def _names(rule):
    """The predicate names of ``rule``: its head's, then its body
    literals'."""
    return [predicate_name(rule.head)] + [
        predicate_name(literal.atom) for literal in rule.body
        if not literal.is_builtin()
    ]


def _refuse_out_of_order(program, compiled):
    """Raise :class:`~repro.engine.seminaive.engine.SeminaiveUnsupported`
    unless Figure 1 meets the instances of ``program``'s name-open rules in
    the order :func:`evaluate_strata` walked them (``compiled.rounds``).

    The walk specialises a name-open rule by its binder's answers over what
    it has walked; Figure 1 reduces it once the binder's predicate is
    settled, and settles names in the order of the name dependency graph of
    what remains.  The two agree when

    * each rule's binder reads one predicate name, its **binder name**, so
      that all its instances appear in Figure 1 at once;
    * an instance whose head name the rule leaves open gets a **fresh**
      name, one no fact, closed rule, name-open rule or instance of an
      earlier round mentions, and only instances of rules with its
      rule's binder name mention it: otherwise Figure 1 may meet a mention
      first, settle the name empty and refuse the instance's head as
      already settled (Example 6.5);
    * no binder name shares a strongly connected component of the name
      dependency graph with the head of a rule it binds: Figure 1 would
      reach that component with the rule's name variables unbound.
    """
    binder_name = {}
    for open_rule in compiled.open_rules:
        names = {predicate_name(literal.atom)
                 for literal in name_binders(open_rule.rule)[1]}
        if len(names) != 1:
            raise SeminaiveUnsupported(
                "rule %r binds its names through more than one predicate"
                % (open_rule.rule,)
            )
        binder_name[open_rule.rule] = names.pop()
    graph = DependencyGraph()
    known = set()
    binds = []
    for rule in program.rules:
        head, *body = names = _names(rule)
        known.update(name for name in names if name.is_ground())
        if head.is_ground():
            for name in body:
                if name.is_ground():
                    graph.add_edge(head, name)
            if rule in binder_name:
                binds.append((head, binder_name[rule]))
    fresh = {}
    mentions = []
    for key, _strata in compiled.rounds:
        mentioned = set()
        for index, answer in key:
            open_rule = compiled.open_rules[index]
            rule = open_rule.rule
            head, *body = names = _names(open_rule.instance(answer))
            binder = binder_name[rule]
            if not predicate_name(rule.head).is_ground() and (
                    head in known or fresh.setdefault(head, binder) != binder):
                raise SeminaiveUnsupported(
                    "an instance of rule %r defines %r, a name Figure 1 may "
                    "settle before the instance exists (cf. Example 6.5)"
                    % (rule, head)
                )
            mentioned.update(names)
            mentions.append((body, binder))
            for name in body:
                graph.add_edge(head, name)
            binds.append((head, binder))
        known |= mentioned
    for body, binder in mentions:
        for name in body:
            if fresh.get(name, binder) != binder:
                raise SeminaiveUnsupported(
                    "%r is read by an instance Figure 1 may reduce before "
                    "the instances that define it exist" % (name,)
                )
    _components, component_of, _edges = graph.condensation()
    for head, binder in binds:
        if component_of[binder] == component_of[head]:
            raise SeminaiveUnsupported(
                "the binder name %r depends on the head %r it binds: Figure "
                "1 reaches their component with a name variable unbound"
                % (binder, head)
            )


def _components(stratum):
    """Figure 1's components of ``stratum``: ``(own head indicators,
    rules)`` per strongly connected component of its head indicators."""
    for rules in stratify_program(Program(stratum.rules), by_component=True,
                                  allow_unstratified=True).strata:
        yield frozenset(literal_indicator(rule.head) for rule in rules), rules


#: Head symbol of the instance records :func:`_record_instances` collects;
#: they never enter a store.
_INSTANCE = sym("$instance")


def _instance_rule(rule, own):
    """``rule``, whose head indicator is in ``own``, rewritten to report its
    relevance instances: the head becomes ``$instance(head, $instance(own
    positive atoms), $instance(own negated atoms), $instance(late lower
    negated atoms))`` and the negated atoms it names leave the body, to be
    read as holding.

    Figure 1 relevance-grounds a component ignoring negation, after the
    reduction (Definition 6.5) has matched the positive lower subgoals
    against the settled model and evaluated the negated lower atoms they
    make ground.  So a negated lower atom whose variables the positive
    lower subgoals bind stays in the body, read against the true atoms; a
    **late** one, ground only once a component subgoal binds it, is ignored
    by the relevance closure and only drops the instance from the graph."""
    bound = set()
    for literal in rule.body:
        if literal.positive and not literal.is_builtin() \
                and literal_indicator(literal.atom) not in own:
            bound |= literal.atom.variables()
    body, positive, negative, late = [], [], [], []
    for literal in rule.body:
        if literal.is_builtin():
            body.append(literal)
        elif literal_indicator(literal.atom) in own:
            if literal.positive:
                body.append(literal)
                positive.append(literal.atom)
            else:
                negative.append(literal.atom)
        elif literal.positive or literal.atom.variables() <= bound:
            body.append(literal)
        else:
            late.append(literal.atom)
    return Rule(App(_INSTANCE, (
        rule.head, App(_INSTANCE, positive), App(_INSTANCE, negative),
        App(_INSTANCE, late),
    )), tuple(body))


def _record_instances(stratum, under, graph, limits):
    """Figure 1's relevance instantiation of each component of ``stratum``
    over the settled true atoms ``under``, recorded in the
    :class:`~repro.hilog.depgraph.DependencyGraph` ``graph`` as ground
    edges head → positive and head → negated component atom.

    Per component it is a semi-naive least fixpoint of the
    :func:`_instance_rule` s: positive subgoals read ``under`` plus the
    component's own fresh layer, the negated lower atoms the reduction
    evaluates read ``under``, and every other negated atom holds.  It cannot
    ride on the first alternation's overestimate, which reads the
    component's negation against ``under``: in ``p :- not q.  q :- not p.
    p.`` that blocks ``q :- not p`` and with it the cycle Figure 1 rejects.
    The instance rules of all the components compile together, so the
    components of one shape — the instances of one name-open rule — share
    one plan template."""
    components = [(own, [_instance_rule(rule, own) for rule in rules])
                  for own, rules in _components(stratum)]
    plans = compile_stratum(
        [rule for _own, rules in components for rule in rules],
        {rule: own for own, rules in components for rule in rules},
    )
    for _own, rules in components:
        rules = set(rules)
        variants = [variant for variant in plans.variant_plans
                    if variant[0] in rules]
        view = StoreView((under, RelationStore()))
        sources = PlanSources(view, negation=under)
        records = [record for rule, plan in plans.base_plans if rule in rules
                   for record in run_plan(plan, sources,
                                          max_results=limits.max_facts)]
        seen = {}
        while records:
            delta = FactBuckets()
            for record in records:
                if record not in seen:
                    seen[record] = None
                    head = record.args[0]
                    if view.add(head):
                        delta.add(head)
            limits.check(view, delta)
            records = list(anchored_heads(variants, sources, delta, limits))
        for record in seen:
            head, positive, negated, late = record.args
            if any(atom in under for atom in late.args):
                continue
            for atom in positive.args:
                graph.add_edge(head, atom)
            for atom in negated.args:
                graph.add_edge(head, atom, negative=True)
