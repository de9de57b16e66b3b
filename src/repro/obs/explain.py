"""Derivation-provenance explain: *why* is this atom true (or undefined)?

``explain_atom`` reconstructs a derivation tree for a ground atom against a
materialized model:

* a **true** atom gets a proof tree — a rule instance whose body facts are
  themselves recursively explained down to EDB leaves.  The search matches
  the atom against each rule head (one-sided ``match``: the model side is
  ground) and enumerates body solutions against the store's indexes, with
  a path-visited set rejecting cyclic justifications; a least fixpoint
  always contains an acyclic proof, so backtracking over rule instances is
  complete.  When the session's incremental maintenance plans are
  available, their head-bound rederivation plans (``db/plans.py``)
  pre-filter rules by ``plan_satisfiable`` before any enumeration, and
  the store's support counts are recorded on each node.

* an **undefined** atom (well-founded mode) gets a negation-loop witness:
  a chain of rule instances, each valid in the *overestimate* (positive
  subgoals true-or-undefined, negated subgoals not true) and each hinging
  on an undefined subgoal, followed until an atom on the chain repeats —
  the unfounded/negation SCC the alternating fixpoint could never resolve.
  Such a chain always exists: every overestimate instance of an undefined
  atom must cite at least one undefined subgoal (else the underestimate
  would have promoted the atom to true).

* a **false** atom gets a one-node "false" tree.

``verify_derivation`` independently re-checks a tree against the store —
every cited rule instance must actually fire (head and body literals
re-match, positives present, negated subgoals absent, builtins re-solve) —
which is both the test-suite contract and a debugging cross-check.

Aggregate rules are not explained (their group-valued justifications are
not single instances); atoms derivable only through an aggregate raise
:class:`ExplainError`.
"""

from __future__ import annotations

import sys

from repro.engine.builtins import solve_builtin
from repro.engine.seminaive.engine import PlanSources, plan_satisfiable
from repro.engine.seminaive.relation import candidates as store_candidates
from repro.hilog.errors import EvaluationError
from repro.hilog.pretty import format_rule, format_term
from repro.hilog.subst import Substitution
from repro.hilog.unify import match

__all__ = ["Derivation", "ExplainError", "explain_atom", "verify_derivation"]

_EMPTY = Substitution._trusted({})


class ExplainError(Exception):
    """No derivation could be reconstructed (or a tree failed to verify)."""


class Derivation(object):
    """One node of a derivation tree.

    ``kind`` is one of:

    ``edb``        an asserted base fact (leaf)
    ``rule``       derived by ``rule``; ``children`` explain the body
                   literals in source order
    ``builtin``    a satisfied builtin body literal (leaf)
    ``negation``   a negated body literal whose atom is false (leaf)
    ``true``       a true atom cited inside an undefined-loop witness,
                   not expanded further (leaf)
    ``undefined``  an undefined atom; with ``rule`` set, the overestimate
                   instance it hinges on; without, an unexpanded undefined
                   subgoal reference (leaf)
    ``loop``       the closure of an undefined cycle: this atom already
                   appears on the chain above (leaf; ``meta["cycle"]``)
    ``false``      the queried atom is simply false (root leaf)
    """

    __slots__ = ("atom", "kind", "rule", "children", "meta")

    def __init__(self, atom, kind, rule=None, children=(), meta=None):
        self.atom = atom
        self.kind = kind
        self.rule = rule
        self.children = tuple(children)
        self.meta = dict(meta) if meta else {}

    def size(self):
        return 1 + sum(child.size() for child in self.children)

    def depth(self):
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def to_dict(self):
        """JSON-ready plain-data view (atoms/rules pretty-printed)."""
        out = {"atom": format_term(self.atom), "kind": self.kind}
        if self.rule is not None:
            out["rule"] = format_rule(self.rule)
        if self.meta:
            out.update(self.meta)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self):
        return "Derivation(%s, %r, children=%d)" % (
            format_term(self.atom), self.kind, len(self.children))


def _proper_rules(rules):
    """Accept a Program or any iterable of rules; drop facts."""
    rules = getattr(rules, "rules", rules)
    return [rule for rule in rules if not rule.is_fact()]


class _Explainer(object):
    def __init__(self, rules, store, edb, undefined, plans=None):
        self.rules = _proper_rules(rules)
        self.store = store
        self.edb = edb
        self.undefined = undefined
        self.memo = {}
        self.support = getattr(store, "support", None)
        # Head-bound rederivation plans from the session's maintenance
        # bundles: a sound, complete satisfiability pre-filter when the
        # model is two-valued (the plans resolve negation against the
        # store alone, which matches the true-search exactly iff nothing
        # is undefined).
        self.prefilter = {}
        if plans is not None and not undefined:
            self.sources = PlanSources(store)
            for bundle in plans:
                if bundle is None:
                    continue
                for entry in bundle.rederive_plans:
                    rule, plan = entry[0], entry[1]
                    if plan is not None:
                        self.prefilter[rule] = plan

    # -- membership --------------------------------------------------------

    def _neg_holds_true(self, atom):
        """``not atom`` in the (well-founded) model: atom neither true nor
        undefined."""
        return atom not in self.store and atom not in self.undefined

    def _neg_holds_over(self, atom):
        """``not atom`` in the overestimate phase: atom not proven true."""
        return atom not in self.store

    def _candidates_true(self, pattern, subst):
        return store_candidates(self.store, pattern, subst)

    def _candidates_over(self, pattern, subst):
        out = list(store_candidates(self.store, pattern, subst))
        out.extend(self.undefined)  # match() filters non-candidates
        return out

    # -- instance enumeration ----------------------------------------------

    def _solutions(self, rule, subst, candidates, neg_holds):
        """Ground solutions of ``rule.body`` extending ``subst``.

        Backtracking with deferral: positive literals resolve against the
        store indexes immediately; builtins run as soon as their inputs are
        bound (floundering defers them); negated literals wait until
        ground.  Yields full substitutions.
        """
        literals = list(rule.body)

        def solve(remaining, subst):
            if not remaining:
                yield subst
                return
            for index, literal in enumerate(remaining):
                rest = remaining[:index] + remaining[index + 1:]
                if literal.is_builtin():
                    try:
                        extensions = solve_builtin(literal.atom, subst)
                    except EvaluationError:
                        continue  # not ready: defer behind a binder
                    for extension in extensions:
                        for solution in solve(rest, extension):
                            yield solution
                    return
                if literal.positive:
                    pattern = literal.atom
                    for candidate in candidates(pattern, subst):
                        extension = match(pattern, candidate, subst)
                        if extension is not None:
                            for solution in solve(rest, extension):
                                yield solution
                    return
                atom = subst.apply(literal.atom)
                if not atom.is_ground():
                    continue  # defer until the positives bind it
                if not neg_holds(atom):
                    return  # instance dead, no later binding can revive it
                for solution in solve(rest, subst):
                    yield solution
                return
            return  # floundered: nothing ready (non-range-restricted body)

        return solve(literals, subst)

    # -- true atoms --------------------------------------------------------

    def explain_true(self, atom, path):
        memo = self.memo.get(atom)
        if memo is not None:
            return memo
        if atom in self.edb:
            node = Derivation(atom, "edb", meta=self._support_meta(atom))
            self.memo[atom] = node
            return node
        path = path | {atom}
        skipped_aggregate = False
        for rule in self.rules:
            head_subst = match(rule.head, atom)
            if head_subst is None:
                continue
            if rule.aggregates:
                skipped_aggregate = True
                continue
            plan = self.prefilter.get(rule)
            if plan is not None and not plan_satisfiable(
                    plan, self.sources, initial=dict(head_subst.items())):
                continue
            for solution in self._solutions(
                    rule, head_subst, self._candidates_true,
                    self._neg_holds_true):
                children = self._true_children(rule, solution, path)
                if children is not None:
                    node = Derivation(
                        atom, "rule", rule=rule, children=children,
                        meta=self._support_meta(atom))
                    self.memo[atom] = node
                    return node
        if skipped_aggregate:
            raise ExplainError(
                "%s is only derivable through an aggregate rule, which "
                "explain does not reconstruct" % format_term(atom))
        return None

    def _true_children(self, rule, solution, path):
        children = []
        for literal in rule.body:
            atom = solution.apply(literal.atom)
            if literal.is_builtin():
                children.append(Derivation(atom, "builtin"))
            elif literal.positive:
                if atom in path:
                    return None  # cyclic justification: backtrack
                child = self.explain_true(atom, path)
                if child is None:
                    return None
                children.append(child)
            else:
                children.append(Derivation(atom, "negation"))
        return children

    def _support_meta(self, atom):
        if self.support is None:
            return None
        try:
            return {"support": self.support(atom)}
        except Exception:
            return None

    # -- undefined atoms ---------------------------------------------------

    def explain_undefined(self, atom, chain):
        if atom in chain:
            cycle = chain[chain.index(atom):] + [atom]
            return Derivation(atom, "loop", meta={
                "cycle": [format_term(a) for a in cycle]})
        for rule in self.rules:
            if rule.aggregates:
                continue
            head_subst = match(rule.head, atom)
            if head_subst is None:
                continue
            for solution in self._solutions(
                    rule, head_subst, self._candidates_over,
                    self._neg_holds_over):
                children = self._undefined_children(rule, solution, chain + [atom])
                if children is not None:
                    return Derivation(atom, "undefined", rule=rule,
                                      children=children)
        raise ExplainError(
            "no overestimate instance with an undefined subgoal found for "
            "%s — is the model current?" % format_term(atom))

    def _undefined_children(self, rule, solution, chain):
        """Children of one overestimate instance, following the first
        undefined subgoal deeper; None when the instance has no undefined
        subgoal (it cannot witness undefinedness)."""
        children = []
        followed = False
        for literal in rule.body:
            atom = solution.apply(literal.atom)
            if literal.is_builtin():
                children.append(Derivation(atom, "builtin"))
            elif literal.positive:
                if atom in self.store:
                    children.append(Derivation(atom, "true",
                                               meta=self._support_meta(atom)))
                elif not followed:
                    followed = True
                    children.append(self.explain_undefined(atom, chain))
                else:
                    children.append(Derivation(atom, "undefined"))
            else:
                if atom in self.undefined:
                    if not followed:
                        followed = True
                        child = self.explain_undefined(atom, chain)
                        child.meta["negated"] = True
                        children.append(child)
                    else:
                        children.append(Derivation(
                            atom, "undefined", meta={"negated": True}))
                else:
                    children.append(Derivation(atom, "negation"))
        return children if followed else None


def explain_atom(atom, rules, store, edb=frozenset(), undefined=frozenset(),
                 plans=None):
    """Reconstruct a derivation tree for ``atom`` (see module docstring)."""
    if not atom.is_ground():
        raise ExplainError("explain needs a ground atom, got %s"
                           % format_term(atom))
    explainer = _Explainer(rules, store, edb, undefined, plans=plans)
    # Deep chains (chain-200 transitive closure) recurse one search level
    # per fact; give the proof search headroom beyond the default limit.
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(max(limit, 100000))
        if atom in store:
            node = explainer.explain_true(atom, frozenset())
            if node is None:
                raise ExplainError(
                    "no acyclic derivation found for the true atom %s — is "
                    "the model current?" % format_term(atom))
            return node
        if atom in undefined:
            return explainer.explain_undefined(atom, [])
        return Derivation(atom, "false")
    finally:
        sys.setrecursionlimit(limit)


def verify_derivation(node, store, edb=frozenset(), undefined=frozenset()):
    """Re-check a derivation tree against the model; True or ExplainError.

    Every cited rule instance must fire for real: the head re-matches the
    node's atom, each body literal re-matches its child's atom under the
    accumulated bindings, positive children are present (in the
    overestimate for undefined nodes), negated subgoals are absent, and
    builtins re-solve.
    """
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(max(limit, 100000))
        _verify(node, store, edb, undefined, frozenset())
    finally:
        sys.setrecursionlimit(limit)
    return True


def _fail(message, *args):
    raise ExplainError(message % args)


def _verify(node, store, edb, undefined, ancestors):
    kind = node.kind
    atom = node.atom
    if kind == "edb":
        if atom not in edb:
            _fail("%s cited as EDB but not asserted", format_term(atom))
        if atom not in store:
            _fail("EDB atom %s missing from the store", format_term(atom))
    elif kind == "false":
        if atom in store or atom in undefined:
            _fail("%s cited as false but present in the model",
                  format_term(atom))
    elif kind == "true":
        if atom not in store:
            _fail("%s cited as true but absent", format_term(atom))
    elif kind == "builtin":
        if not atom.is_ground() or not solve_builtin(atom, _EMPTY):
            _fail("cited builtin %s does not hold", format_term(atom))
    elif kind == "negation":
        if atom in store or atom in undefined:
            _fail("negated subgoal %s is not false", format_term(atom))
    elif kind == "loop":
        if atom not in undefined:
            _fail("loop atom %s is not undefined", format_term(atom))
        if atom not in ancestors:
            _fail("loop atom %s does not close a cycle on its chain",
                  format_term(atom))
    elif kind == "undefined":
        if atom in store or atom not in undefined:
            _fail("%s cited as undefined but is not", format_term(atom))
        if node.rule is not None:
            _verify_instance(node, store, edb, undefined,
                             ancestors | {atom}, overestimate=True)
    elif kind == "rule":
        if atom not in store:
            _fail("%s cited as derived but absent from the store",
                  format_term(atom))
        _verify_instance(node, store, edb, undefined, ancestors,
                         overestimate=False)
    else:
        _fail("unknown derivation node kind %r", kind)
    return True


def _verify_instance(node, store, edb, undefined, ancestors, overestimate):
    rule = node.rule
    subst = match(rule.head, node.atom)
    if subst is None:
        _fail("rule head of %s does not match %s",
              format_rule(rule), format_term(node.atom))
    if len(node.children) != len(rule.body):
        _fail("instance of %s cites %d body facts for %d literals",
              format_rule(rule), len(node.children), len(rule.body))
    for literal, child in zip(rule.body, node.children):
        subst = match(literal.atom, child.atom, subst)
        if subst is None:
            _fail("body literal %s of %s does not match cited %s",
                  format_term(literal.atom), format_rule(rule),
                  format_term(child.atom))
        if literal.is_builtin():
            if child.kind != "builtin":
                _fail("builtin literal cited by a %r node", child.kind)
        elif literal.positive:
            if overestimate:
                if child.atom not in store and child.atom not in undefined:
                    _fail("overestimate subgoal %s is false",
                          format_term(child.atom))
            elif child.atom not in store:
                _fail("positive subgoal %s is absent", format_term(child.atom))
        else:
            if child.atom in store:
                _fail("negated subgoal %s is true", format_term(child.atom))
            if not overestimate and child.atom in undefined:
                _fail("negated subgoal %s is undefined in a two-valued "
                      "context", format_term(child.atom))
    for child in node.children:
        _verify(child, store, edb, undefined, ancestors)
