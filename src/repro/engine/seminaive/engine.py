"""Delta-driven semi-naive evaluation over indexed relation stores: the
pieces one stratum is evaluated with.

This is the deductive-database evaluation architecture the paper's
Section 6.1 efficiency claims presume: instead of materializing a ground
program and running the Dowling–Gallier fixpoint over it (the
:mod:`repro.engine.grounding` path), rules are compiled into join plans
(:mod:`repro.engine.seminaive.plan`) and evaluated bottom-up, stratum by
stratum, with work per iteration proportional to the *new* derivations of
the previous iteration.  This module stratifies (:func:`stratify_program`),
compiles a stratum (:func:`compile_stratum`) and runs one stratum's least
fixpoint (:func:`evaluate_stratum`); the walk over a program's strata —
what :func:`~repro.engine.seminaive.wellfounded.seminaive_evaluate` and
:func:`~repro.engine.seminaive.wellfounded.seminaive_well_founded` both
are — is :func:`repro.engine.seminaive.wellfounded.evaluate_strata`.

Two program classes stratify without ``allow_unstratified``:

* **Definite programs** (no negation, no aggregates) — evaluated as a
  single stratum; predicate names may be arbitrary HiLog terms, including
  non-ground ones (the relation store's spill path handles ``M(X, Y)``
  subgoals).

* **Stratified programs** — every predicate name must be ground, and the
  dependency graph over predicate indicators must have no cycle through
  negation or aggregation.  Negative subgoals and aggregate conditions are
  then evaluated only against fully-computed lower strata, which makes the
  least fixpoint of each stratum the perfect model (for these programs the
  well-founded model is total and coincides with it, and with the unique
  stable model).

Programs outside these classes raise :class:`SeminaiveUnsupported` here;
callers such as :func:`repro.core.modular.modularly_stratified_for_hilog`
catch it and fall back to the grounding oracle.  Two of them the stratum
walk of :mod:`repro.engine.seminaive.wellfounded` takes all the same.
Ground-indicator programs with a cycle through negation (win/move games
over cyclic graphs): ``stratify_program(allow_unstratified=True)`` reports
their negation-SCC strata instead of raising, and the walk alternates on
those, through :func:`evaluate_stratum`'s ``negation_store=`` phase hook
and :func:`run_plan`.  Variable predicate names combined with negation
(Example 6.3's parameterized games): :func:`stratify_program` still raises
on such a rule, but ``compile_strata(allow_unstratified=True)`` never
shows it one — it sets the rule aside, and the walk stratifies the rule's
ground-named *instances* once a binder join has said what its names range
over.  Recursion through aggregation (the parts-explosion component) stays
outside every engine here.

**The executor.**  There is one: the Python function
:mod:`repro.engine.seminaive.plan` generates for each join plan
(``plan.registers.run``; its source is ``plan.registers.source``).  It walks
the body — fetch loops, membership probes, negation and builtin tests, all
specialised to the plan — bumps ``EXECUTION_STATS`` per fetch and per
candidate, and hands every solution to ``sink``, stopping when the sink
returns a truthy value.  The entry points here are thin callers that differ
only in the sink.  Forwards, :func:`run_plan` collects the heads of a base
or delta plan under its distinct-head and total-derivation caps.  Backwards,
from a fact through a ``from_head`` plan, :func:`plan_satisfiable` stops at
the first instance of the rule deriving the fact — :func:`rederive` asks
the same of every candidate, calling the function itself — and
:func:`plan_instances` hands each instance to its caller.  Plans whose
function reports the body's bindings instead of a head finish each solution
through :func:`_tail_solutions`.  Sources stay pluggable: the function
reads every fetch from ``sources.store`` and asks every negation of
``sources.holds(atom)``; a delta variant's anchor reads neither, but the
``anchors`` its caller hands it.

**A round.**  Every semi-naive round there is — :func:`evaluate_stratum`'s,
and delete-rederive's over-deletion and rederivation — runs in one loop,
:func:`_propagate`.  A round builds no store: it hands each variant whose
anchor the round's facts can feed those facts (in a stratum of one head
indicator, the round's list itself), calls its function directly, admits
its heads in one pass and meets the caps once.

**The caps.**  ``max_facts`` and ``max_term_depth`` travel as one
:class:`Limits` object, and :meth:`Limits.check` is the one place derived
facts meet them: every loop that adds derived heads to a store — here
(:func:`evaluate_stratum`, :func:`insert_anchored`) and in the session's
EDB writes — calls it once per round, on the heads ``add`` said were new.

**Delete-rederive exists once**, here, and has two callers: a session's
maintenance of a stratum
(:func:`repro.db.maintenance.dred_update`) and the alternating fixpoint's
shrinking overestimate
(:func:`repro.engine.seminaive.wellfounded.evaluate_strata`).  Both anchor
the variants of one per-stratum bundle, :class:`DeltaPlans`
(:func:`compile_delta_plans`), on a change with :func:`anchored_heads`, and
hand the heads to :func:`delete_rederive` — over-delete, remove, rederive
through the ``from_head`` plans — or to :func:`insert_anchored` — add, then
resume :func:`evaluate_stratum` from an *injected delta*.  They differ only
in the :class:`PlanSources` they pass: the state before a session's update
and then its store, or the overestimate read against the old and then the
new underestimate.
"""

from __future__ import annotations

import contextvars as _contextvars

from time import perf_counter as _perf_counter
from typing import Dict, FrozenSet, KeysView, NamedTuple, Optional, Tuple

from repro.obs.trace import current_tracer

from repro.engine.aggregates import evaluate_aggregate
from repro.engine.builtins import solve_builtin
from repro.engine.seminaive.plan import PlanError, compile_rule
from repro.engine.seminaive.relation import (
    FactSource,
    literal_indicator,
    spill_groups,
)
from repro.hilog.depgraph import DependencyGraph
from repro.hilog.errors import GroundingError, HiLogError
from repro.hilog.subst import Substitution
from repro.hilog.terms import App, outermost_symbol


class SeminaiveUnsupported(HiLogError):
    """The program is outside the class the semi-naive engine handles
    (non-ground predicate names beside negation that no binder binds or
    whose instances would re-settle a head, a cycle through negation or
    aggregation, or an unschedulable rule body).  Callers with a grounding
    fallback should catch this and take the slow path."""


class Stratification(NamedTuple):
    """A stratum assignment of a program's proper rules.

    ``strata`` lists the rules of each stratum in ascending level order;
    ``recursive`` maps each rule to the set of body indicators evaluated in
    the same stratum (the delta-variant sites), or ``None`` for the definite
    single-stratum case where every positive subgoal is potentially
    recursive.  ``unstratified`` names the stratum indices containing a
    negation-SCC — a component with a cycle through negation — which only
    the alternating-fixpoint evaluator
    (:mod:`repro.engine.seminaive.wellfounded`) can evaluate; it is empty
    unless :func:`stratify_program` ran with ``allow_unstratified=True``.
    """

    strata: Tuple[Tuple, ...]
    recursive: Dict
    unstratified: FrozenSet = frozenset()


def _single_stratum(proper):
    """Definite program: one stratum, every positive subgoal is potentially
    recursive (names may be non-ground, so the dependency graph cannot be
    trusted to separate anything)."""
    return Stratification((tuple(proper),), {rule: None for rule in proper})


def _graph_stratification(program, proper, by_component, allow_unstratified=False):
    """Stratify via the predicate-indicator dependency graph.

    Raises :class:`SeminaiveUnsupported` when an indicator is non-ground or
    a cycle runs through negation/aggregation.  With ``by_component`` every
    strongly connected component becomes its own stratum (the finest valid
    assignment, used by incremental maintenance: a write re-runs only the
    components it reaches); otherwise levels are bumped only across
    negative/aggregate edges, as the one-shot evaluator prefers.

    With ``allow_unstratified`` a cycle through *negation* no longer raises:
    the affected strata are reported through
    :attr:`Stratification.unstratified` for the alternating-fixpoint
    well-founded evaluator.  Cycles through *aggregation* always raise —
    three-valued aggregation is outside every engine here.
    """
    graph = DependencyGraph()
    aggregate_pairs = set()
    head_indicators = {}
    body_indicators = {}
    for rule in proper:
        head = literal_indicator(rule.head)
        if head is None:
            raise SeminaiveUnsupported(
                "rule %r has a non-ground head predicate name; semi-naive "
                "stratification needs ground indicators" % (rule,)
            )
        head_indicators[rule] = head
        graph.add_node(head)
        indicators = []
        for literal in rule.body:
            if literal.is_builtin():
                indicators.append(None)
                continue
            indicator = literal_indicator(literal.atom)
            if indicator is None:
                raise SeminaiveUnsupported(
                    "subgoal %r of rule %r has a non-ground predicate name in "
                    "a stratified program" % (literal.atom, rule)
                )
            indicators.append(indicator)
            graph.add_edge(head, indicator, negative=literal.negative)
        for spec in rule.aggregates:
            indicator = literal_indicator(spec.condition)
            if indicator is None:
                raise SeminaiveUnsupported(
                    "aggregate condition %r has a non-ground predicate name"
                    % (spec.condition,)
                )
            indicators.append(indicator)
            # Aggregation behaves like negation for stratification: the
            # condition's extension must be complete before the fold runs.
            graph.add_edge(head, indicator, negative=True)
            aggregate_pairs.add((head, indicator))
        body_indicators[rule] = indicators
    for rule in program.rules:
        if rule.is_fact() and rule.head.is_ground():
            graph.add_node(rule.head.indicator)

    components, component_of, _edges = graph.condensation()
    unstratified_components = set()
    for source, target in graph.negative_cycle_edges():
        if (source, target) in aggregate_pairs:
            raise SeminaiveUnsupported(
                "recursion through aggregation at %r; no engine here "
                "evaluates three-valued aggregation" % (source,)
            )
        if not allow_unstratified:
            raise SeminaiveUnsupported(
                "recursion through negation/aggregation at %r; the program is "
                "not stratified" % (source,)
            )
        unstratified_components.add(component_of[source])

    if by_component:
        # One stratum per SCC: components arrive dependencies first, so the
        # arrival index is already a valid level.
        level_of_component = range(len(components))
    else:
        level_of_component = graph.component_levels()

    def indicator_level(indicator):
        return level_of_component[component_of[indicator]]

    by_level = {}
    recursive = {}
    unstratified_levels = set()
    for rule in proper:
        head_component = component_of[head_indicators[rule]]
        level = level_of_component[head_component]
        by_level.setdefault(level, []).append(rule)
        if head_component in unstratified_components:
            unstratified_levels.add(level)
        same_level = set()
        for indicator in body_indicators[rule]:
            if indicator is not None and indicator_level(indicator) == level:
                same_level.add(indicator)
        recursive[rule] = same_level

    levels = sorted(by_level)
    strata = tuple(tuple(by_level[level]) for level in levels)
    unstratified = frozenset(
        index for index, level in enumerate(levels) if level in unstratified_levels
    )
    return Stratification(strata, recursive, unstratified)


def stratify_program(program, by_component=False, allow_unstratified=False):
    """Assign each proper rule of ``program`` to a stratum.

    Returns a :class:`Stratification`.  Definite programs normally form a
    single stratum; with ``by_component=True`` the graph-based assignment is
    attempted first even for definite programs (falling back to the single
    stratum when predicate names are non-ground), so a caller maintaining a
    model incrementally gets one stratum per component, and a write re-runs
    only the components it reaches.  Raises
    :class:`SeminaiveUnsupported` when the program mixes negation or
    aggregation with non-ground predicate names, or is not stratified at the
    predicate-indicator level.

    With ``allow_unstratified=True`` a cycle through negation is not an
    error: the negation-SCC strata are returned (and flagged through
    :attr:`Stratification.unstratified`) for the alternating-fixpoint
    evaluator of :mod:`repro.engine.seminaive.wellfounded`.  Cycles through
    aggregation still raise.
    """
    proper = [rule for rule in program.rules if not rule.is_fact()]
    definite = not program.has_negation() and not program.has_aggregates()
    if definite:
        if by_component:
            try:
                return _graph_stratification(program, proper, by_component=True)
            except SeminaiveUnsupported:
                return _single_stratum(proper)
        return _single_stratum(proper)
    return _graph_stratification(program, proper, by_component, allow_unstratified)


def _delta_sites(rule, recursive_indicators):
    """Body indices of positive literals that read the current stratum."""
    sites = []
    for index, literal in enumerate(rule.body):
        if not literal.positive or literal.is_builtin():
            continue
        if recursive_indicators is None:
            sites.append(index)
            continue
        indicator = literal_indicator(literal.atom)
        if indicator is not None and indicator in recursive_indicators:
            sites.append(index)
    return sites


class PlanSources:
    """What a join plan reads: every fetch reads ``store``, a
    :class:`~repro.engine.seminaive.relation.FactSource`, and every negation
    step asks :meth:`holds`, by default of ``store`` too.  A delta
    variant's anchor reads no source: its caller hands it the facts to scan
    (:func:`anchored_heads`, :func:`_propagate`).

    ``negation`` redirects the membership test of negation steps to a
    different store: the alternating-fixpoint well-founded evaluator
    (:mod:`repro.engine.seminaive.wellfounded`) resolves each phase's
    negative subgoals against the *opposite* phase's store — ``not a``
    holds in the overestimate exactly when ``a`` is not proven true, and in
    the underestimate exactly when ``a`` is not even possibly true.
    """

    __slots__ = ("store", "negation")

    def __init__(self, store: FactSource,
                 negation: Optional[FactSource] = None) -> None:
        self.store = store
        self.negation = store if negation is None else negation

    def holds(self, atom):
        """Membership test used by negation steps."""
        return atom in self.negation

    def aggregate_extension(self, name, arity):
        """The extension an aggregate condition folds over."""
        return self.store.facts(name, arity)


class _StatsCounters:
    """The plain mutable cell behind :class:`ExecutionStats` — one per
    execution context, handed to the generated plan functions so an
    increment is a slot write, not a property call.  ``room`` is no
    counter: it is how many more heads the running forward plan may hand
    over before it stops (negative: no limit; see :func:`run_plan`)."""

    __slots__ = ("fetches", "candidates", "alternations", "room")

    def __init__(self):
        self.fetches = 0
        self.candidates = 0
        self.alternations = 0
        self.room = -1


#: The context-local counter cell.  ``contextvars`` gives every thread (and
#: every asyncio task) its own slot, so concurrent readers in the serving
#: subsystem (:mod:`repro.serve`) accumulate independently instead of
#: interleaving ``+=`` read-modify-write cycles on shared integers.
_STATS_VAR = _contextvars.ContextVar("repro_execution_stats")


class ExecutionStats:
    """Cheap counters over the plan executor, for benchmarks:
    ``fetches`` counts index probes, ``candidates`` the facts those probes
    returned (the join-candidate volume the indexes could not avoid), and
    ``alternations`` the outer over/under rounds the alternating-fixpoint
    well-founded evaluator ran (0 for purely stratified evaluations).

    The counters are **context-local** (per thread / per asyncio task, via
    :mod:`contextvars`): two threads evaluating concurrently each see only
    their own counts, so parallel readers never corrupt each other's
    numbers.  The module-level :data:`EXECUTION_STATS` is a facade whose
    attribute reads/writes and :meth:`snapshot`/:meth:`reset` act on the
    calling context's cell — single-threaded callers (the benchmarks, the
    tests) observe exactly the old global-counter behaviour."""

    __slots__ = ()

    @staticmethod
    def counters():
        """The calling context's mutable counter cell (created on first
        use).  A plan run fetches it once and passes it to the generated
        function instead of paying a property dispatch per increment."""
        cell = _STATS_VAR.get(None)
        if cell is None:
            cell = _StatsCounters()
            _STATS_VAR.set(cell)
        return cell

    @property
    def fetches(self):
        return self.counters().fetches

    @fetches.setter
    def fetches(self, value):
        self.counters().fetches = value

    @property
    def candidates(self):
        return self.counters().candidates

    @candidates.setter
    def candidates(self, value):
        self.counters().candidates = value

    @property
    def alternations(self):
        return self.counters().alternations

    @alternations.setter
    def alternations(self, value):
        self.counters().alternations = value

    def snapshot(self):
        cell = self.counters()
        return {
            "fetches": cell.fetches,
            "candidates": cell.candidates,
            "alternations": cell.alternations,
        }

    def diff(self, before):
        """Per-counter deltas accumulated since ``before`` (a
        :meth:`snapshot` dict): measure with ``before = stats.snapshot()``
        ... work ... ``stats.diff(before)``, instead of the historical
        reset-around-measurement dance — which destroyed any outer
        window's counts and could never nest."""
        cell = self.counters()
        return {
            "fetches": cell.fetches - before.get("fetches", 0),
            "candidates": cell.candidates - before.get("candidates", 0),
            "alternations": cell.alternations - before.get("alternations", 0),
        }

    def reset(self):
        cell = self.counters()
        cell.fetches = 0
        cell.candidates = 0
        cell.alternations = 0


#: Module-level execution counters (see :class:`ExecutionStats`).
EXECUTION_STATS = ExecutionStats()

def _tail_solutions(plan, sources, bindings, aggregates):
    """The substitutions one body solution grows into once the deferred
    builtins (and, with ``aggregates``, the aggregate subgoals) have run —
    the tail of plans whose function reports bindings instead of heads."""
    currents = [Substitution._trusted(bindings)]
    for literal in plan.deferred_builtins:
        currents = [
            solved for current in currents
            for solved in solve_builtin(literal.atom, current)
        ]
    if aggregates:
        for astep in plan.aggregates:
            if not currents:
                break
            extension = sources.aggregate_extension(
                astep.condition_name, astep.condition_arity
            )
            currents = [
                folded for current in currents
                for folded in evaluate_aggregate(
                    astep.spec, current, extension, group_vars=astep.group_vars
                )
            ]
    return currents


#: Hard ceiling on the *total* derivations (duplicates included) one plan
#: run may collect — a memory backstop for duplicate floods.  The semantic
#: cap is ``max_results`` below, which counts *distinct* heads like the
#: callers' ``max_facts`` does.
MAX_PLAN_RESULTS = 8_000_000


def run_plan(plan, sources, max_results=None, anchors=None):
    """The ground heads derivable from ``plan`` (a base or delta plan)
    against ``sources``, as a list, duplicate derivations included.  A
    delta variant runs on ``anchors``, the facts its anchor step can match
    (see :func:`anchored_heads`); a base plan takes none.

    ``max_results`` bounds the number of *distinct* heads one run may
    derive (mirroring the callers' ``max_facts`` fact caps); exceeding it
    raises :class:`GroundingError`, so runaway non-range-restricted rules
    fail fast inside the collector instead of materializing an unbounded
    result first.  A separate :data:`MAX_PLAN_RESULTS` ceiling on total
    collected derivations bounds memory against pure duplicate floods.

    A plan whose function hands over finished ground heads — nearly every
    plan — has them appended straight to the list, no call per head in
    between: its function stops once it has handed over one head more
    than ``max_results`` (``stats.room``).  Only such a run, which may
    hold duplicates below the cap, is run again head by head
    (:func:`_collect`).
    """
    if max_results is None:
        max_results = MAX_PLAN_RESULTS
    rprog = plan.registers
    stats = EXECUTION_STATS.counters()
    if rprog.fast and rprog.head_ground:
        out = []
        stats.room = min(max_results, MAX_PLAN_RESULTS) + 1
        try:
            stopped = _run(rprog, sources, anchors, out.append, stats)
        finally:
            stats.room = -1
        if not stopped:
            return out
    return _collect(plan, sources, anchors, max_results, stats)


def _run(rprog, sources, anchors, sink, stats):
    """Call a forward plan's function, handing a delta variant its
    ``anchors``."""
    if anchors is None:
        return rprog.run(sources, sink, stats)
    return rprog.run(sources, anchors, sink, stats)


def _collect(plan, sources, anchors, max_results, stats):
    """:func:`run_plan` head by head: every head past the distinct-head
    and :data:`MAX_PLAN_RESULTS` caps, each checked ground unless the
    plan vouches for it, and finished by the tail when the plan reports
    bindings."""
    rule = plan.rule
    rprog = plan.registers
    out = []
    seen = set()
    append = out.append

    def emit(head):
        if head not in seen:
            if len(seen) >= max_results:
                raise GroundingError(
                    "rule %r produced more than %d distinct heads in one "
                    "pass; the program is probably not range restricted"
                    % (rule, max_results)
                )
            seen.add(head)
        if len(out) >= MAX_PLAN_RESULTS:
            raise GroundingError(
                "rule %r produced more than %d derivations in one pass"
                % (rule, MAX_PLAN_RESULTS)
            )
        append(head)

    def emit_checked(head):
        if not head.is_ground():
            raise GroundingError(
                "derived head %r is not ground; rule %r is not range "
                "restricted" % (head, rule)
            )
        emit(head)

    if not rprog.fast:
        def sink(bindings):
            for final in _tail_solutions(plan, sources, bindings, aggregates=True):
                emit_checked(final.apply(rule.head))
    elif rprog.head_ground:
        sink = emit
    else:
        sink = emit_checked
    _run(rprog, sources, anchors, sink, stats)
    return out


def _first_solution(_solution):
    return True


def _instances(plan):
    """The function of ``plan`` — a ``from_head`` plan — with each body
    solution finished by its tail: ``run(sources, atom, sink, stats)``
    hands ``sink`` the :class:`Substitution` of each instance."""
    run = plan.registers.run

    def instances(sources, atom, sink, stats):
        def each(bindings):
            return any(map(
                sink, _tail_solutions(plan, sources, bindings, aggregates=False)
            ))

        return run(sources, atom, each, stats)

    return instances


def _probe(plan):
    """What asks whether a ``from_head`` plan derives an atom:
    ``probe(sources, atom, sink, stats)``.  Without a tail to run it is the
    generated function itself — the first body solution is the answer, and
    a probe costs no substitution and no call in between."""
    return _instances(plan) if plan.deferred_builtins else plan.registers.run


def plan_instances(plan, sources, atom, sink):
    """Run ``plan`` — a ``from_head`` plan — backwards from the ground
    ``atom``: ``sink`` gets each instance of the rule deriving it, as the
    :class:`Substitution` of the rule's variables (builtins solved,
    aggregates ignored), until a call returns a truthy value.  Returns
    whether one did."""
    return _instances(plan)(sources, atom, sink, EXECUTION_STATS.counters())


def plan_satisfiable(plan, sources, atom):
    """``True`` when some instance of the rule of ``plan`` — a ``from_head``
    plan — derives the ground ``atom`` from ``sources`` (builtins included,
    aggregates ignored)."""
    return _probe(plan)(sources, atom, _first_solution, EXECUTION_STATS.counters())


class Limits:
    """The two resource caps of an evaluation, carried as one object by
    every loop that derives facts: ``max_facts`` bounds the store,
    ``max_term_depth`` (``None``: unbounded) the depth of a derived atom."""

    __slots__ = ("max_facts", "max_term_depth")

    def __init__(self, max_facts=1000000, max_term_depth=None):
        self.max_facts = max_facts
        self.max_term_depth = max_term_depth

    def check(self, store, heads):
        """The one place derived facts meet the caps, once per round: call
        it once the round's ``heads``, those ``store.add`` said were new,
        are in ``store``.  The fact cap then counts facts, not derivations,
        and a model of exactly ``max_facts`` facts is accepted; the depth
        cap reads each head, and only when it is set.  At a refusal the
        round's heads are therefore in the store: the one-shot evaluators
        drop theirs; the session recomputes the stratum over the store as
        the step left it, and only when that is refused too re-evaluates
        the state before the update.  A round that added nothing meets no
        cap: the store may hold more than the model it settles to (the
        alternation's overestimate does), and only growth is refused."""
        if not heads:
            return
        depth = self.max_term_depth
        if depth is not None:
            for head in heads:
                if head.depth() > depth:
                    raise GroundingError(
                        "derived atom %r exceeds term depth %d; the program is "
                        "probably not strongly range restricted (cf. Example "
                        "5.2)" % (head, depth)
                    )
        if len(store) > self.max_facts:
            raise GroundingError(
                "semi-naive evaluation exceeded %d facts; the program is "
                "probably not range restricted" % self.max_facts
            )


class StratumPlan(NamedTuple):
    """The compiled evaluation plans of one stratum."""

    #: The stratum's rules (in program order).
    rules: Tuple
    #: The stratum's rule -> same-stratum body indicators (``None``:
    #: definite fallback); the rules of other strata are not in it.
    recursive: Dict
    #: ``(rule, plan)`` pairs for the initial (non-delta) pass.
    base_plans: Tuple
    #: ``(rule, site, indicator, plan)`` delta variants, one per recursive
    #: body site (``indicator``: the site's, ``None`` when its name is open).
    variant_plans: Tuple
    #: Indicators of the stratum's head predicates, or ``None`` when some
    #: head predicate name is non-ground (the definite higher-order case).
    head_indicators: Optional[FrozenSet]
    #: Indicators read by bodies/aggregates, in first-seen order (a probe
    #: over them counts the same calls in every process; terms hash by
    #: identity), or ``None`` when unknowable.
    reads: Optional[KeysView]
    has_aggregates: bool


def compile_stratum(rules, recursive):
    """Compile one stratum's rules into a :class:`StratumPlan`.

    ``recursive`` is the per-rule same-stratum indicator map produced by
    :func:`stratify_program` (``{rule: None}`` entries for the definite
    fallback).  Raises :class:`SeminaiveUnsupported` when a rule body cannot
    be ordered into a safe join plan.
    """
    try:
        base_plans = tuple((rule, compile_rule(rule)) for rule in rules)
        variant_plans = []
        for rule in rules:
            for site in _delta_sites(rule, recursive[rule]):
                variant_plans.append((
                    rule, site, literal_indicator(rule.body[site].atom),
                    compile_rule(rule, delta_index=site),
                ))
    except PlanError as error:
        raise SeminaiveUnsupported(str(error))

    head_indicators = set()
    reads = {}
    for rule in rules:
        head = literal_indicator(rule.head)
        if head is None:
            head_indicators = None
        elif head_indicators is not None:
            head_indicators.add(head)
        for literal in rule.body:
            if literal.is_builtin():
                continue
            indicator = literal_indicator(literal.atom)
            if indicator is None:
                reads = None
            elif reads is not None:
                reads[indicator] = None
        for spec in rule.aggregates:
            indicator = literal_indicator(spec.condition)
            if indicator is None:
                reads = None
            elif reads is not None:
                reads[indicator] = None

    return StratumPlan(
        rules=tuple(rules),
        recursive={rule: recursive[rule] for rule in rules},
        base_plans=base_plans,
        variant_plans=tuple(variant_plans),
        head_indicators=frozenset(head_indicators) if head_indicators is not None else None,
        reads=reads.keys() if reads is not None else None,
        has_aggregates=any(rule.aggregates for rule in rules),
    )


def evaluate_stratum(stratum, store, limits=Limits(), seed_delta=None,
                     negation_store=None):
    """Run the semi-naive fixpoint of one stratum against ``store``.

    Without ``seed_delta`` this is the full evaluation: one base pass over
    every rule, then delta iterations until quiescence.  With ``seed_delta``
    — an iterable of facts the caller just added to the store, read at the
    stratum's delta sites (its own recursive predicates) — the base pass is
    skipped and the fixpoint resumes from the injected delta; this is the
    re-evaluation primitive incremental insertion maintenance is built on.
    Facts of *lower*-stratum predicates do not propagate through this
    entry point: anchor them with per-site variants first and inject the
    heads (:func:`insert_anchored`).

    ``negation_store`` redirects negative subgoals to a different store
    (see :class:`PlanSources`): the alternating-fixpoint well-founded
    evaluator runs each phase's fixpoint through this entry point with the
    opposite phase's store as the negation context.

    The rounds are :func:`_propagate`'s, with ``store.add`` admitting each
    head and :meth:`Limits.check` run once per round, the base pass
    included.

    Returns ``(iterations, added)`` where ``added`` lists the facts newly
    added to the store (excluding the seeds themselves).
    """
    tracer = current_tracer()
    if tracer is not None:
        started = _perf_counter()
        stats_before = EXECUTION_STATS.snapshot()
    added = []
    sources = PlanSources(store, negation=negation_store)
    if seed_delta is None:
        iterations = 1
        for _rule, plan in stratum.base_plans:
            added.extend(filter(store.add, run_plan(plan, sources, limits.max_facts)))
        limits.check(store, added)
        delta = list(added)
    else:
        iterations = 0
        delta = list(seed_delta)
    if stratum.variant_plans:
        iterations = _propagate(stratum, stratum.variant_plans, delta, sources,
                                store.add, limits, store, added, tracer,
                                iterations)
    elif delta:
        # No delta site: the one round over the delta finds nothing to run.
        iterations += 1
        if tracer is not None:
            tracer.emit("iteration", iteration=iterations, delta=len(delta))
    if tracer is not None:
        stats = EXECUTION_STATS.diff(stats_before)
        tracer.emit(
            "stratum", seeded=seed_delta is not None, iterations=iterations,
            added=len(added), duration_s=_perf_counter() - started,
            fetches=stats["fetches"], candidates=stats["candidates"],
        )
    return iterations, added


# ---------------------------------------------------------------------------
# Delete-rederive: one step for a session's maintenance and the alternation
# ---------------------------------------------------------------------------

class DeltaPlans(NamedTuple):
    """The plans that turn a change of what a stratum reads into the change
    of what it derives, beside its :class:`StratumPlan` — one bundle per
    stratum for both callers of :func:`delete_rederive` and
    :func:`insert_anchored`.  Every variant is ``(rule, site, indicator,
    plan)`` with ``indicator`` the anchor's (``None``: an open name)."""

    stratum: StratumPlan
    #: One delta variant per positive body site the stratum does not
    #: define; the sites it does are ``stratum.variant_plans``.
    update_variants: Tuple
    #: One per negative body site: ``compile_rule(rule, delta_index=site)``
    #: flips the negation into a positive anchor on the atoms whose truth
    #: just changed.
    negation_variants: Tuple
    #: One ``from_head`` plan per rule: run on an over-deleted fact, it is
    #: satisfiable when the rule still derives the fact.
    from_head: Tuple

    @property
    def positive_variants(self):
        """Every positive site's variant, the stratum's own ones last."""
        return self.update_variants + self.stratum.variant_plans


def compile_delta_plans(stratum):
    """The :class:`DeltaPlans` of ``stratum``.  Raises
    :class:`SeminaiveUnsupported` when a variant cannot be planned."""
    update_variants = []
    negation_variants = []
    try:
        for rule in stratum.rules:
            own = _delta_sites(rule, stratum.recursive[rule])
            for site, literal in enumerate(rule.body):
                if literal.is_builtin() or site in own:
                    continue
                variants = update_variants if literal.positive else negation_variants
                variants.append((
                    rule, site, literal_indicator(literal.atom),
                    compile_rule(rule, delta_index=site),
                ))
        from_head = tuple(compile_rule(rule, from_head=True) for rule in stratum.rules)
    except PlanError as error:
        raise SeminaiveUnsupported(str(error))
    return DeltaPlans(
        stratum, tuple(update_variants), tuple(negation_variants), from_head
    )


def anchored_heads(variants, sources, facts, limits):
    """The heads of each of ``variants`` anchored on ``facts`` (a
    :class:`~repro.engine.seminaive.relation.FactBuckets`: a side of a
    :class:`~repro.engine.seminaive.relation.Delta`, a change), one variant
    at a time: a caller that adds each head to a store the next variant
    reads has it there, as in a delta round.  A variant runs on the facts
    of its anchor's indicator — those of its arity, for an open name
    (:func:`_open_anchors`) — and not at all when there are none."""
    groups = facts.groups()
    for _rule, _site, indicator, plan in variants:
        anchors = groups.get(indicator) if indicator is not None \
            else _open_anchors(groups, plan)
        if anchors is not None:
            yield from run_plan(plan, sources, limits.max_facts, anchors)


def _open_anchors(groups, plan):
    """What a delta variant anchored at an open name — ``M(X, Y)``,
    ``winning(M)(X)``, a bare variable — runs on, out of ``groups``, facts
    by indicator: every fact of the anchor's arity under its name's
    outermost symbol, or every fact; ``None`` when there is none at all."""
    if not groups:
        return None
    atom = plan.steps[0].literal.atom
    if type(atom) is not App:
        return [fact for facts in groups.values() for fact in facts]
    return spill_groups(groups.items(), len(atom.args), outermost_symbol(atom))


def _by_indicator(facts):
    """``facts`` as ``{indicator: [fact, ...]}``, in order."""
    groups = {}
    for fact in facts:
        group = groups.get(fact.indicator)
        if group is None:
            groups[fact.indicator] = [fact]
        else:
            group.append(fact)
    return groups


def _propagate(stratum, variants, worklist, sources, admit, limits,
               store=None, added=None, tracer=None, rounds=0):
    """Run ``variants`` — of ``stratum``, whose atoms ``worklist`` holds —
    anchored on ``worklist`` against ``sources``, then on the heads
    ``admit`` took from that round, until it takes none: every semi-naive
    round there is, :func:`evaluate_stratum`'s and delete-rederive's.

    A round hands each variant the round's facts its anchor can match — in
    a stratum of one head indicator the round's list itself, no copy — and
    calls its function directly, ``room`` set once per call; only a run
    that exhausts it goes head by head (:func:`_collect`).  Each variant's
    heads pass ``admit`` in one pass before the next variant runs, so it
    reads them.  With ``store``, the store ``admit`` adds to, the round's
    admitted heads meet :meth:`Limits.check` once; ``added`` collects them
    and ``tracer`` hears of each round.  Returns the rounds run, counted
    from ``rounds``."""
    heads = stratum.head_indicators
    one = next(iter(heads)) if heads is not None and len(heads) == 1 else None
    stats = EXECUTION_STATS.counters()
    max_facts = limits.max_facts
    room = min(max_facts, MAX_PLAN_RESULTS) + 1
    try:
        while worklist and variants:
            rounds += 1
            if tracer is not None:
                tracer.emit("iteration", iteration=rounds, delta=len(worklist))
            groups = {one: worklist} if one is not None else _by_indicator(worklist)
            fresh = []
            for _rule, _site, indicator, plan in variants:
                anchors = groups.get(indicator) if indicator is not None \
                    else _open_anchors(groups, plan)
                if anchors is None:
                    continue
                rprog = plan.registers
                out = []
                stats.room = room
                if not (rprog.fast and rprog.head_ground) \
                        or rprog.run(sources, anchors, out.append, stats):
                    out = _collect(plan, sources, anchors, max_facts, stats)
                fresh.extend(filter(admit, out))
            if store is not None:
                limits.check(store, fresh)
            if added is not None:
                added.extend(fresh)
            worklist = fresh
    finally:
        stats.room = -1
    return rounds


def delete_rederive(plans, target, seeds, old, new, keep, limits):
    """The deletion half of delete-rederive (Gupta, Mumick & Subrahmanian,
    SIGMOD'93) over ``plans``, a :class:`DeltaPlans`: take out of ``target``
    what may have lost its last derivation, then put back what has one.

    ``seeds`` are the heads the caller's anchored variants found behind a
    change that kills derivations (a deleted positive atom, a negated atom
    just proven), read against the state *before* it.  Those of them in
    ``target``, closed under the stratum's own variants against ``old``,
    are **over-deleted** and leave ``target``; :func:`rederive` puts back
    what ``new`` still derives.  ``old`` and ``new`` are
    :class:`PlanSources` (a store and a negation context), and they are
    what the two callers differ in: a session's DRed passes the state
    before the update, then the store, and keeps its EDB; the alternating
    fixpoint passes the overestimate it shrinks, read against the new
    underestimate both times (its seeds read the old one), and keeps
    nothing.

    Order is insertion order throughout, so the work done is a function of
    the input alone.  Returns ``(rounds, overdeleted, removed)``: the delta
    rounds run, how many atoms were over-deleted, and those that stayed out.
    """
    overdeleted = {}

    def overdelete(head):
        if head in target and head not in overdeleted:
            overdeleted[head] = None
            return True
        return False

    rounds = _propagate(
        plans.stratum, plans.stratum.variant_plans,
        [head for head in seeds if overdelete(head)], old, overdelete, limits,
    )
    for atom in overdeleted:
        target.remove(atom)
    rounds += rederive(plans, target, overdeleted, new, keep, limits)
    removed = [atom for atom in overdeleted if atom not in target]
    return rounds, len(overdeleted), removed


def rederive(plans, target, candidates, new, keep, limits):
    """The restore half of delete-rederive: put back into ``target`` each of
    ``candidates`` (atoms out of it, in their order) that ``keep`` holds or
    some rule still derives from ``new`` — probed through the ``from_head``
    plans, ``target`` included — then push what returned through the
    stratum's own variants, restoring candidates only.  Each round's adds
    pass :meth:`Limits.check` against ``target``.  Besides
    :func:`delete_rederive`, the cone step of a well-founded session calls
    it, to compute a first overestimate of the cone
    (:func:`repro.engine.seminaive.wellfounded.cone_step`).  Returns the
    delta rounds run."""
    def restore(head):
        return head in candidates and target.add(head)

    probes = [_probe(plan) for plan in plans.from_head]
    stats = EXECUTION_STATS.counters()
    restored = []
    for atom in candidates:
        if atom not in keep:
            for probe in probes:
                if probe(new, atom, _first_solution, stats):
                    break
            else:
                continue
        target.add(atom)
        restored.append(atom)
    limits.check(target, restored)
    return _propagate(plans.stratum, plans.stratum.variant_plans, restored,
                      new, restore, limits, target)


def insert_anchored(stratum, store, heads, limits, negation_store=None):
    """The insertion half of delete-rederive: add the anchored ``heads`` to
    ``store`` — the new ones past :meth:`Limits.check` — and resume the
    stratum's fixpoint from them (:func:`evaluate_stratum` with
    ``seed_delta``).  Returns ``(iterations, added)``, the new heads first."""
    added = list(filter(store.add, heads))
    if not added:
        return 0, added
    limits.check(store, added)
    iterations, propagated = evaluate_stratum(
        stratum, store, limits, seed_delta=added, negation_store=negation_store
    )
    added.extend(propagated)
    return iterations, added
