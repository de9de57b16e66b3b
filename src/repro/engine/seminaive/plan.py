"""Join-plan compilation for the semi-naive engine.

A rule body is compiled into an ordered sequence of :class:`JoinStep`\\ s:
fetches of positive literals from the indexed relation store, negation
checks, and builtin evaluations.  The ordering is chosen greedily with the
same sideways-information-passing notions the magic-sets rewriting uses
(:mod:`repro.core.magic.sips`): a builtin runs as soon as it is evaluable, a
negation as soon as it is ground, and among the positive literals the one
sharing the most already-bound variables is fetched next (so joins stay
connected instead of degenerating into cross products).  The compiled plan
is then annotated by :func:`repro.core.magic.sips.left_to_right_sips` run
over the reordered body, which supplies the bound-variable set before each
step; from it the planner derives, for every fetch, the argument positions
that will be ground at runtime — exactly the positions the relation store
indexes on.

A rule has three entry points.  Besides the *base* plan, the compiler
produces, for semi-naive evaluation, *delta variants*: the same rule with
one designated body literal forced to the front of the plan, to be scanned
from the per-iteration delta relation instead of the full store — a
*negative* literal flipped positive first, so the variant is anchored on
the atoms whose truth just changed (delete-rederive's negation variants,
the alternating fixpoint's reseeding).
And it produces the plan *from the head* (``from_head=True``), which runs
the rule backwards: in the paper's universal-relation reading a rule head is
one more tuple pattern over ``call``, so the plan first matches a candidate
fact against the head exactly as it matches a fetched fact against a
subgoal, then joins the body — ordered and indexed with the head's
variables bound — and reports the instances of the rule that derive the
fact.  Delete-rederive's rederivation test (:mod:`repro.db.maintenance`)
and explain's proof search (:mod:`repro.obs.explain`) are this entry point.

Beyond the (declarative) :class:`JoinPlan`, the compiler lowers every plan
into one **generated Python function** (:class:`RegisterProgram`): rule
variables are numbered into registers, which are the function's locals;
each fetch is a loop over an indexed probe whose key is read straight from
registers, and matching a candidate fact is a short run of identity tests
and register writes — no per-candidate
:class:`~repro.hilog.subst.Substitution` allocation anywhere on the hot
path, no dispatch on step kinds at run time.  Because terms are hash-consed
(:mod:`repro.hilog.terms`), "the fact's argument equals the bound value" is
a single pointer comparison.  The function is the only thing that walks a
rule; :func:`repro.engine.seminaive.engine.run_plan` (forwards),
:func:`~repro.engine.seminaive.engine.plan_satisfiable` and
:func:`~repro.engine.seminaive.engine.plan_instances` (backwards) call it
with different sinks.  To see what a plan runs::

    print(compile_rule(rule).registers.source)
    print(compile_rule(rule, from_head=True).registers.source)
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Optional, Tuple

from repro.core.magic.sips import left_to_right_sips
from repro.engine.aggregates import group_variables
from repro.engine.builtins import solve_builtin
from repro.hilog.errors import GroundingError, HiLogError
from repro.hilog.program import Literal, Rule
from repro.hilog.subst import Substitution
from repro.hilog.terms import (
    App,
    Num,
    Sym,
    Term,
    Var,
    atom_arguments,
    intern_app,
    outermost_symbol,
    predicate_name,
)


class PlanError(HiLogError):
    """Raised when a rule body cannot be ordered into a safe join plan
    (a negative subgoal or an unbound-name subgoal that never becomes
    schedulable — the floundering of the paper's footnote 10)."""


#: Join-step kinds.
FETCH = "fetch"
NEGATION = "negation"
BUILTIN = "builtin"


class JoinStep(NamedTuple):
    """One step of a compiled join plan."""

    kind: str
    literal: Literal
    #: Index into the original rule body (for delta bookkeeping).
    body_index: int
    #: Variables guaranteed bound when the step runs.
    bound_before: FrozenSet[Var]
    #: Argument positions of a fetch that are ground at runtime (index key).
    index_positions: Tuple[int, ...]
    #: Whether this fetch reads the delta relation instead of the full store.
    from_delta: bool


class AggregateStep(NamedTuple):
    """A compiled aggregate subgoal (runs after the body join)."""

    spec: object
    group_vars: Tuple[Var, ...]
    condition_name: Term
    condition_arity: int


class JoinPlan(NamedTuple):
    """A fully ordered evaluation plan for one rule."""

    rule: Rule
    steps: Tuple[JoinStep, ...]
    #: Builtins that could not be scheduled and run (and may fail) last.
    deferred_builtins: Tuple[Literal, ...]
    aggregates: Tuple[AggregateStep, ...]
    #: Body indices of positive non-builtin literals (delta-variant sites).
    positive_body_indices: Tuple[int, ...]
    #: The plan lowered to a flat register program (the hot-path executable).
    registers: Optional["RegisterProgram"] = None

    def pin_roots(self):
        """Term roots this plan retains, for intern-generation pin sets.

        Every constant the lowering bakes into the generated function's
        globals is a subterm of the source rule, so pinning the rule's
        roots keeps all compiled references canonical across a
        collection."""
        return self.rule.pin_roots()


def _builtin_ready(literal, bound):
    """Mirror of :func:`repro.engine.builtins.solve_builtin`'s capabilities:
    a builtin is schedulable when it is ground, or when it is a binding
    ``is``/``=`` whose defined side is ground."""
    atom = literal.atom
    if atom.variables() <= bound:
        return True
    if not isinstance(atom, App) or len(atom.args) != 2 or not isinstance(atom.name, Sym):
        return False
    op = atom.name.name
    left, right = atom.args
    if op in ("is", "=") and isinstance(left, Var) and right.variables() <= bound:
        return True
    if op == "=" and isinstance(right, Var) and left.variables() <= bound:
        return True
    return False


def _positive_schedulable(literal, bound):
    """A positive subgoal can be fetched unless its predicate name is an
    unbound variable with no arguments to constrain the scan (the same
    condition :func:`repro.core.magic.sips._flounders` enforces)."""
    name_vars = predicate_name(literal.atom).variables()
    if name_vars and not (name_vars <= bound or atom_arguments(literal.atom)):
        return False
    return True


def _order_body(rule, delta_index, initially_bound=frozenset()):
    """Greedy safe ordering of the rule body.

    Returns ``(ordered, deferred_builtins)`` where ``ordered`` is a list of
    ``(body_index, literal)`` pairs.  Raises :class:`PlanError` when a
    negative or unbound-name subgoal can never be scheduled.
    ``initially_bound`` names variables guaranteed bound before the body
    runs (head variables, for plans evaluated against a ground head).
    """
    remaining = [(i, lit) for i, lit in enumerate(rule.body)]
    ordered = []
    bound = set(initially_bound)

    def bind(literal):
        # Reuse the SIPS binding rule: positives bind their variables,
        # binding builtins bind their left-hand side, negation binds nothing.
        if literal.is_builtin():
            atom = literal.atom
            if (
                isinstance(atom, App)
                and isinstance(atom.name, Sym)
                and atom.name.name in ("is", "=")
                and len(atom.args) == 2
            ):
                left, right = atom.args
                if isinstance(left, Var) and right.variables() <= bound:
                    bound.add(left)
                elif isinstance(right, Var) and left.variables() <= bound:
                    bound.add(right)
            return
        if literal.positive:
            bound.update(literal.atom.variables())

    if delta_index is not None:
        # The delta literal is forced first: scanning the (small) delta
        # relation is always admissible, whatever its binding pattern.
        for item in list(remaining):
            if item[0] == delta_index:
                remaining.remove(item)
                ordered.append(item)
                bind(item[1])
                break

    while remaining:
        chosen = None
        for item in remaining:  # 1. builtins prune/bind earliest
            if item[1].is_builtin() and _builtin_ready(item[1], bound):
                chosen = item
                break
        if chosen is None:  # 2. ground negations prune early
            for item in remaining:
                literal = item[1]
                if literal.negative and not literal.is_builtin() and \
                        literal.atom.variables() <= bound:
                    chosen = item
                    break
        if chosen is None:  # 3. most-connected schedulable positive literal
            best_score = -1
            for item in remaining:
                literal = item[1]
                if not literal.positive or literal.is_builtin():
                    continue
                if not _positive_schedulable(literal, bound):
                    continue
                score = len(literal.atom.variables() & bound)
                if score > best_score:
                    best_score = score
                    chosen = item
            if chosen is None:
                break
        remaining.remove(chosen)
        ordered.append(chosen)
        bind(chosen[1])

    deferred = []
    for index, literal in remaining:
        if literal.is_builtin():
            deferred.append(literal)  # retried after the join, as the grounder does
            continue
        raise PlanError(
            "subgoal %r of rule %r cannot be scheduled without floundering"
            % (literal, rule)
        )
    return ordered, tuple(deferred)


def compile_rule(rule, delta_index=None, from_head=False):
    """Compile ``rule`` into a :class:`JoinPlan`.

    ``delta_index`` (a body position of a non-builtin literal) produces the
    semi-naive delta variant in which that literal is read from the delta
    relation and scheduled first.  On a *negative* literal the variant is of
    the rule with that literal flipped positive (``plan.rule`` is the
    flipped rule): anchored on the atoms whose truth just changed, it finds
    the instances a negated subgoal turning false enables — or, against the
    old state, the ones its turning true destroys.  ``from_head`` produces
    the plan that runs the rule backwards: its function takes a candidate
    fact, matches it against the rule head, and joins the body with every
    head variable bound — "which instances of this rule derive this fact"
    (delete-rederive's rederivation test, explain's proof search).
    """
    if delta_index is not None and rule.body[delta_index].negative:
        rule = Rule(
            rule.head,
            rule.body[:delta_index] + (rule.body[delta_index].negate(),)
            + rule.body[delta_index + 1:],
            rule.aggregates,
        )
    bound = frozenset(rule.head.variables()) if from_head else frozenset()
    ordered, deferred = _order_body(rule, delta_index, initially_bound=bound)

    # Annotate the reordered body with the SIPS machinery: bound-before sets
    # drive index selection, and the flounder flags double-check negation
    # safety (the delta-first step is exempt — a delta scan needs no
    # bindings).
    reordered = Rule(rule.head, tuple(lit for _i, lit in ordered), rule.aggregates)
    sips_steps = left_to_right_sips(reordered, bound)

    steps = []
    for position, ((body_index, literal), sip) in enumerate(zip(ordered, sips_steps)):
        from_delta = delta_index is not None and body_index == delta_index
        if literal.is_builtin():
            steps.append(JoinStep(BUILTIN, literal, body_index, sip.bound_before, (), False))
            continue
        if literal.negative:
            if sip.flounders:
                raise PlanError(
                    "negative subgoal %r of rule %r is reached with unbound "
                    "variables (the rule flounders)" % (literal.atom, rule)
                )
            steps.append(JoinStep(NEGATION, literal, body_index, sip.bound_before, (), False))
            continue
        index_positions = tuple(
            i for i, arg in enumerate(atom_arguments(literal.atom))
            if arg.variables() <= sip.bound_before
        )
        steps.append(
            JoinStep(FETCH, literal, body_index, sip.bound_before, index_positions, from_delta)
        )

    aggregate_steps = []
    for spec in rule.aggregates:
        condition_name = predicate_name(spec.condition)
        if not condition_name.is_ground():
            raise PlanError(
                "aggregate condition %r has a non-ground predicate name" % (spec.condition,)
            )
        arity = len(atom_arguments(spec.condition)) if isinstance(spec.condition, App) else -1
        aggregate_steps.append(
            AggregateStep(
                spec=spec,
                group_vars=tuple(sorted(group_variables(spec, rule), key=lambda v: v.name)),
                condition_name=condition_name,
                condition_arity=arity,
            )
        )

    positives = tuple(
        i for i, lit in enumerate(rule.body) if lit.positive and not lit.is_builtin()
    )
    registers = _compile_registers(
        rule, tuple(steps), deferred, tuple(aggregate_steps), from_head
    )
    return JoinPlan(
        rule, tuple(steps), deferred, tuple(aggregate_steps), positives, registers
    )


# ---------------------------------------------------------------------------
# Register-program lowering: one generated Python function per plan
# ---------------------------------------------------------------------------
#
# The rule's variables are numbered into *registers*, and the ordered steps
# are emitted as the straight-line source of one function
# ``run(sources, sink, stats)`` in which every register is a local:
#
# * the *head entry* of a ``from_head`` plan — ``run(sources, atom, sink,
#   stats)`` — matches the candidate ``atom`` against the rule head before
#   anything else, with the tests and register writes that match a fetched
#   fact against a subgoal (in the universal relation a head is one more
#   tuple pattern), so the body below it starts with the head's variables
#   bound;
# * a *fetch* is a ``for fact in source.fetch(...)`` loop whose index key is
#   read straight from registers and whose body matches the fact with
#   ``is`` tests against interned terms and register writes (nested argument
#   patterns unfold into the same tests one level down) — or, when the key
#   covers every argument, a single ``intern_app(...) in source`` probe;
# * a *negation* is an inline ``intern_app(...)`` handed to
#   ``sources.holds``;
# * a *builtin* is an inline numeric comparison, or one call that bridges to
#   :func:`repro.engine.builtins.solve_builtin` through a substitution.
#
# A failed test is ``continue`` (``return False`` outside every loop), so
# the nesting depth is the number of open fetch loops and backtracking is
# free: a step only reads registers written by earlier steps on the current
# path, and every step rewrites its own outputs.  At the innermost point the
# function calls ``sink(solution)`` and stops the whole walk when the sink
# returns a truthy value.  The solution is the rule head, built inline, or
# — for plans with aggregates or deferred builtins, whose tail needs a
# substitution, and for ``from_head`` plans, whose caller has the head and
# asks for the instance — the ``{Var: Term}`` bindings of the body.
#
# What is decided per candidate in an interpreter is decided once here:
# whether a predicate name is ground at runtime, which arguments form the
# index key, whether a variable is written or checked.  Sources stay
# pluggable through ``sources.select`` / ``sources.holds``, and every fetch
# and candidate bumps the ``fetches`` / ``candidates`` counters.

#: Fetch steps per generated function.  CPython refuses more than 20
#: statically nested blocks, so a longer body continues in a second
#: function called from the innermost loop of the first.
MAX_FETCHES_PER_FUNCTION = 12

#: Comparison builtins with an inline numeric fast path.
COMPARE_OPS = {"<": "<", ">": ">", "=<": "<=", ">=": ">=", "=:=": "==", "=\\=": "!="}


class RegisterProgram(NamedTuple):
    """A join plan lowered to one specialised Python function."""

    #: ``run(sources, sink, stats)`` — ``run(sources, atom, sink, stats)``
    #: for a ``from_head`` plan: walk the body, call ``sink(solution)`` per
    #: solution, return ``True`` as soon as a sink call does.  Owned by the
    #: plan — no registry holds it.
    run: object
    #: The generated source of ``run``, for debugging (``print`` it).
    source: str
    #: True when ``run`` hands the sink finished heads: a forward plan with
    #: no aggregates and no deferred builtins.  Otherwise it hands it the
    #: body's ``{Var: Term}`` bindings.
    fast: bool
    #: Whether every head variable is bound by the body (a head that is not
    #: ground is an error the moment it is derived, never when only
    #: satisfiability is asked).
    head_ground: bool


# -- helpers the generated functions call for the rare shapes ----------------

def _solve(atom, bindings):
    """Bridge a builtin to :func:`solve_builtin`: at most one solution."""
    return solve_builtin(atom, Substitution._trusted(bindings))


def _flounder(atom, rule):
    raise GroundingError(
        "negative subgoal %r not ground at evaluation time (rule %r "
        "flounders)" % (atom, rule)
    )


_RUNTIME = {
    "App": App, "Num": Num, "intern_app": intern_app,
    "outermost_symbol": outermost_symbol, "_solve": _solve,
    "_flounder": _flounder,
}


class _Codegen:
    """Emits the source of one plan's function and collects the constants
    (terms, steps, the rule) it refers to by global name."""

    def __init__(self, rule):
        self.rule = rule
        self.namespace = dict(_RUNTIME)
        self.constants = {}
        self.slot_of = {}
        self.bound = set()
        self.temps = 0

    # -- names ---------------------------------------------------------------

    def const(self, value):
        """The global name under which the function reaches ``value``."""
        name = self.constants.get(id(value))
        if name is None:
            name = self.constants[id(value)] = "k%d" % len(self.constants)
            self.namespace[name] = value
        return name

    def reg(self, variable):
        return "r%d" % self.slot_of.setdefault(variable, len(self.slot_of))

    def live(self):
        """The registers holding a value at this point, in slot order."""
        return ["r%d" % slot for slot in sorted(map(self.slot_of.get, self.bound))]

    def temp(self):
        self.temps += 1
        return "t%d" % self.temps

    def expr(self, term):
        """An expression building ``term`` from registers.  Variables not
        bound yet stay :class:`Var` constants (a non-ground result)."""
        if term.is_ground():
            return self.const(term)
        if type(term) is Var:
            return self.reg(term) if term in self.bound else self.const(term)
        return "intern_app(%s, %s)" % (
            self.expr(term.name), _tuple(self.expr(arg) for arg in term.args)
        )

    def bindings(self, variables):
        """A ``{Var: Term}`` display of ``variables``' registers."""
        return "{%s}" % ", ".join(
            "%s: %s" % (self.const(v), self.reg(v))
            for v in sorted(variables, key=self.slot_of.get)
        )

    # -- statements ----------------------------------------------------------

    def line(self, text):
        self.lines.append("    " * self.indent + text)

    def fail(self, condition):
        """Abandon the current candidate when ``condition`` holds."""
        self.line("if %s: %s" % (
            condition, "continue" if self.indent > 1 else "return False"
        ))

    def match(self, pattern, value):
        """Match the ground term ``value`` (an expression) against
        ``pattern``: identity tests for what is known, register writes for
        variables seen here first."""
        if pattern.is_ground():
            self.fail("%s is not %s" % (value, self.const(pattern)))
        elif type(pattern) is Var:
            if pattern in self.bound:
                self.fail("%s is not %s" % (value, self.reg(pattern)))
            else:
                self.bound.add(pattern)
                self.line("%s = %s" % (self.reg(pattern), value))
        else:
            term, args = self.temp(), self.temp()
            self.line("%s = %s" % (term, value))
            self.fail("type(%s) is not App" % term)
            self.line("%s = %s.args" % (args, term))
            self.fail("len(%s) != %d" % (args, len(pattern.args)))
            self.match(pattern.name, term + ".name")
            for index, arg in enumerate(pattern.args):
                self.match(arg, "%s[%d]" % (args, index))

    def probe(self, atom, source):
        """A fetch the registers determine completely: one membership test."""
        self.fail("%s not in %s" % (atom, source))
        self.line("stats.candidates += 1")

    def scan(self, index, candidates):
        """Open the loop over the candidates of fetch ``index``;
        ``candidates`` is the statement that binds ``c<index>``."""
        self.line(candidates)
        self.line("stats.candidates += len(c%d)" % index)
        self.line("for f%d in c%d:" % (index, index))
        self.indent += 1
        return "f%d" % index

    def fetch(self, step, index):
        atom = step.literal.atom
        source = "s%d" % index
        self.prologue.append("%s = sources.select(%s)" % (source, self.const(step)))
        self.line("stats.fetches += 1")
        if not isinstance(atom, App):
            # Propositional subgoal: a symbol, or a bare variable.
            if atom.is_ground() or atom in self.bound:
                self.probe(self.expr(atom), source)
            else:
                fact = self.scan(index, "c%d = %s.all_facts()" % (index, source))
                self.match(atom, fact)
            return
        arity = len(atom.args)
        args = "a%d" % index
        if atom.name.variables() <= self.bound:
            name = self.expr(atom.name)
            key = [self.expr(atom.args[i]) for i in step.index_positions]
            if len(key) == arity:
                self.probe("intern_app(%s, %s)" % (name, _tuple(key)), source)
                return
            fact = self.scan(
                index,
                "c%d = %s.fetch(%s, %d, %r, %s)" % (
                    index, source, name, arity, step.index_positions,
                    key[0] if len(key) == 1 else _tuple(key),
                ),
            )
            self.line("%s = %s.args" % (args, fact))
        else:
            # The predicate name is still open: scan every relation of the
            # arity (narrowed by the name's outermost symbol when it has
            # one) and match the name like an argument.
            symbol = atom.name
            while type(symbol) is App:
                symbol = symbol.name
            if symbol in self.bound:
                symbol = "outermost_symbol(%s)" % self.reg(symbol)
            else:
                symbol = self.const(symbol) if isinstance(symbol, Sym) else "None"
            fact = self.scan(
                index, "c%d = %s.spill(%d, %s)" % (index, source, arity, symbol)
            )
            self.fail("type(%s) is not App" % fact)
            self.line("%s = %s.args" % (args, fact))
            self.fail("len(%s) != %d" % (args, arity))
            self.match(atom.name, fact + ".name")
        for position, arg in enumerate(atom.args):
            self.match(arg, "%s[%d]" % (args, position))

    def negation(self, step):
        atom = step.literal.atom
        if atom.variables() <= self.bound:
            holds = "holds = sources.holds"
            if holds not in self.prologue:
                self.prologue.append(holds)
            self.fail("holds(%s)" % self.expr(atom))
        else:
            self.line("_flounder(%s, %s)" % (self.expr(atom), self.const(self.rule)))

    def builtin(self, step):
        """An inline numeric comparison when both operands are registers or
        number constants, else (and for non-numbers at runtime) one bridged
        call; ``is``/``=`` write the variable they define."""
        atom = step.literal.atom
        solve = "_solve(%s, %s)" % (
            self.const(atom), self.bindings(atom.variables() & self.bound)
        )
        binary = isinstance(atom, App) and isinstance(atom.name, Sym) \
            and len(atom.args) == 2
        if binary and atom.name.name in COMPARE_OPS and all(
            type(arg) is Num or (type(arg) is Var and arg in self.bound)
            for arg in atom.args
        ):
            left, right = (
                repr(arg.value) if type(arg) is Num else self.reg(arg) + ".value"
                for arg in atom.args
            )
            test = "not %s %s %s" % (left, COMPARE_OPS[atom.name.name], right)
            numeric = " and ".join(
                "type(%s) is Num" % self.reg(arg)
                for arg in atom.args if type(arg) is Var
            )
            if numeric:
                test = "(%s) if %s else not %s" % (test, numeric, solve)
            self.fail(test)
            return
        output = None
        if binary and atom.name.name in ("is", "="):
            left, right = atom.args
            if type(left) is Var and left not in self.bound \
                    and right.variables() <= self.bound:
                output = left
            elif atom.name.name == "=" and type(right) is Var \
                    and right not in self.bound and left.variables() <= self.bound:
                output = right
        if output is None:
            self.fail("not %s" % solve)
            return
        solution = self.temp()
        self.line("%s = %s" % (solution, solve))
        self.fail("not %s" % solution)
        self.bound.add(output)
        self.line("%s = %s[0][%s]" % (self.reg(output), solution, self.const(output)))

    # -- functions -----------------------------------------------------------

    def emit(self, steps, fast, from_head):
        """The source of ``run`` over ``steps``.  With ``from_head`` it takes
        the candidate ``atom`` and matches it against the rule head first.
        The sink gets finished heads when ``fast``, else the body's
        bindings.  A body with more fetches than one function may nest
        continues in a further function, called from the innermost point of
        the one before."""
        functions = []
        name, params = "run", ["sources", "sink", "stats"]
        self.prologue, self.lines, self.indent = [], [], 1
        if from_head:
            params.insert(1, "atom")
            self.match(self.rule.head, "atom")
        entry = self.lines  # before the prologue: a refused fact looks up no source
        position = 0
        while name:
            self.lines, self.indent = [], 1
            fetches = 0
            while position < len(steps):
                step = steps[position]
                if step.kind == FETCH:
                    if fetches == MAX_FETCHES_PER_FUNCTION:
                        break
                    fetches += 1
                    self.fetch(step, position)
                elif step.kind == NEGATION:
                    self.negation(step)
                else:
                    self.builtin(step)
                position += 1
            header = ["def %s(%s):" % (name, ", ".join(params))] + entry
            header.extend("    " + text for text in self.prologue)
            if position < len(steps):
                name, params = "run%d" % position, ["sources", "sink", "stats"] + self.live()
                self.line("if %s(%s): return True" % (name, ", ".join(params)))
                self.prologue, entry = [], []
            else:
                name = None
                self.line("if sink(%s): return True" % (
                    self.expr(self.rule.head) if fast else self.bindings(self.bound)
                ))
            functions.append("\n".join(header + self.lines + ["    return False"]))
        return "\n\n".join(functions) + "\n"


def _tuple(parts):
    parts = list(parts)
    return "(%s,)" % ", ".join(parts) if parts else "()"


def _compile_registers(rule, steps, deferred, aggregates, from_head):
    """Lower an ordered plan into a :class:`RegisterProgram`."""
    gen = _Codegen(rule)
    fast = not (deferred or aggregates or from_head)
    source = gen.emit(steps, fast, from_head)
    namespace = gen.namespace
    exec(compile(source, "<plan of %r>" % (rule,), "exec"), namespace)
    return RegisterProgram(
        # Popped, so that the function owns its globals and nothing owns it
        # back: a dropped plan is freed at once, with no cycle to collect.
        run=namespace.pop("run"),
        source=source,
        fast=fast,
        head_ground=rule.head.variables() <= gen.bound,
    )
