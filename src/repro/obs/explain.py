"""Derivation-provenance explain: *why* is this atom true (or undefined)?

``explain_atom`` reconstructs a derivation tree for a ground atom against a
materialized model:

* a **true** atom gets a proof tree — a rule instance whose body facts are
  themselves recursively explained down to EDB leaves.  The search runs
  each rule *backwards* from the atom through the generated function every
  other rule evaluation runs through (``compile_rule(rule, from_head=True)``,
  compiled on first need): it matches the atom against the rule head and
  joins the body over the store's indexes, and the sink it is given tries
  to explain each instance's body facts, a path-visited set rejecting
  cyclic justifications; a least fixpoint always contains an acyclic
  proof, so backtracking over rule instances is complete.

* an **undefined** atom (well-founded mode) gets a negation-loop witness:
  a chain of rule instances, each valid in the *overestimate* (positive
  subgoals true-or-undefined, negated subgoals not true) and each hinging
  on an undefined subgoal, followed until an atom on the chain repeats —
  the unfounded/negation SCC the alternating fixpoint could never resolve.
  Such a chain always exists: every overestimate instance of an undefined
  atom must cite at least one undefined subgoal (else the underestimate
  would have promoted the atom to true).  The two searches are the same
  plans over two :class:`~repro.engine.seminaive.engine.PlanSources`: the
  proof search fetches from the true atoms and tests negation against
  true-or-undefined, the overestimate search the other way round.

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

import json
import sys

from repro.engine.builtins import solve_builtin
from repro.engine.seminaive.engine import PlanSources, plan_instances
from repro.engine.seminaive.plan import compile_rule
from repro.engine.seminaive.relation import FactBuckets, StoreView
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

    def _postorder(self):
        """Every node of the tree, children before parents.  An explicit
        stack: a proof is as deep as the longest chain of the data."""
        order, stack = [], [self]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.children)
        order.reverse()
        return order

    def size(self):
        return len(self._postorder())

    def depth(self):
        depths = {}
        for node in self._postorder():
            depths[id(node)] = 1 + max(
                (depths[id(child)] for child in node.children), default=0)
        return depths[id(self)]

    def _plain(self):
        """The node's own JSON-ready fields (atoms/rules pretty-printed)."""
        out = {"atom": format_term(self.atom), "kind": self.kind}
        if self.rule is not None:
            out["rule"] = format_rule(self.rule)
        out.update(self.meta)
        return out

    def to_dict(self):
        """JSON-ready plain-data view of the tree."""
        dicts = {}
        for node in self._postorder():
            out = dicts[id(node)] = node._plain()
            if node.children:
                out["children"] = [dicts[id(child)] for child in node.children]
        return dicts[id(self)]

    def to_json(self):
        """``json.dumps(self.to_dict())``, written with an explicit stack:
        the tree nests two JSON levels per proof step, and the encoder (like
        the decoder) gives up at the interpreter's recursion limit."""
        pieces, stack = [], [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                pieces.append(item)
                continue
            text = json.dumps(item._plain())
            if not item.children:
                pieces.append(text)
                continue
            pieces.append(text[:-1] + ', "children": [')
            stack.append("]}")
            for child in reversed(item.children):
                stack += (child, ", ")
            stack.pop()  # no separator before the first child
        return "".join(pieces)

    def __repr__(self):
        return "Derivation(%s, %r, children=%d)" % (
            format_term(self.atom), self.kind, len(self.children))


def _proper_rules(rules):
    """Accept a Program or any iterable of rules; drop facts."""
    rules = getattr(rules, "rules", rules)
    return [rule for rule in rules if not rule.is_fact()]


class _Explainer(object):
    def __init__(self, rules, store, edb, undefined):
        self.rules = _proper_rules(rules)
        self.store = store
        self.edb = edb
        self.undefined = undefined
        self.memo = {}
        self.path = set()  # the true atoms being proved, root to here
        self.chain = []  # the undefined atoms being witnessed, likewise
        self.plans = {}
        # The two phases of the alternating fixpoint, as plan sources.
        over = StoreView((store, FactBuckets(undefined)))
        self.true_sources = PlanSources(store, negation=over)
        self.over_sources = PlanSources(over, negation=store)

    def _instance(self, rule, sources, atom, build):
        """The children ``build(rule, solution)`` makes of the first
        instance of ``rule`` deriving ``atom`` from ``sources`` for which it
        makes any (not ``None``) — or ``None``."""
        plan = self.plans.get(rule)
        if plan is None:
            plan = self.plans[rule] = compile_rule(rule, from_head=True)
        found = []

        def sink(solution):
            children = build(rule, solution)
            if children is None:
                return False
            found.append(children)
            return True

        plan_instances(plan, sources, atom, sink)
        return found[0] if found else None

    # -- true atoms --------------------------------------------------------

    def explain_true(self, atom):
        memo = self.memo.get(atom)
        if memo is not None:
            return memo
        if atom in self.edb:
            node = Derivation(atom, "edb")
            self.memo[atom] = node
            return node
        skipped_aggregate = False
        self.path.add(atom)
        try:
            for rule in self.rules:
                if rule.aggregates:
                    if match(rule.head, atom) is not None:
                        skipped_aggregate = True
                    continue
                children = self._instance(
                    rule, self.true_sources, atom, self._true_children)
                if children is not None:
                    node = Derivation(atom, "rule", rule=rule, children=children)
                    self.memo[atom] = node
                    return node
        finally:
            self.path.discard(atom)
        if skipped_aggregate:
            raise ExplainError(
                "%s is only derivable through an aggregate rule, which "
                "explain does not reconstruct" % format_term(atom))
        return None

    def _true_children(self, rule, solution):
        children = []
        for literal in rule.body:
            atom = solution.apply(literal.atom)
            if literal.is_builtin():
                children.append(Derivation(atom, "builtin"))
            elif literal.positive:
                if atom in self.path:
                    return None  # cyclic justification: backtrack
                child = self.explain_true(atom)
                if child is None:
                    return None
                children.append(child)
            else:
                children.append(Derivation(atom, "negation"))
        return children

    # -- undefined atoms ---------------------------------------------------

    def explain_undefined(self, atom):
        chain = self.chain
        if atom in chain:
            cycle = chain[chain.index(atom):] + [atom]
            return Derivation(atom, "loop", meta={
                "cycle": [format_term(a) for a in cycle]})
        chain.append(atom)
        for rule in self.rules:
            if rule.aggregates:
                continue
            children = self._instance(
                rule, self.over_sources, atom, self._undefined_children)
            if children is not None:
                chain.pop()
                return Derivation(atom, "undefined", rule=rule,
                                  children=children)
        raise ExplainError(
            "no overestimate instance with an undefined subgoal found for "
            "%s — is the model current?" % format_term(atom))

    def _undefined_children(self, rule, solution):
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
                    children.append(Derivation(atom, "true"))
                elif not followed:
                    followed = True
                    children.append(self.explain_undefined(atom))
                else:
                    children.append(Derivation(atom, "undefined"))
            else:
                if atom in self.undefined:
                    if not followed:
                        followed = True
                        child = self.explain_undefined(atom)
                        child.meta["negated"] = True
                        children.append(child)
                    else:
                        children.append(Derivation(
                            atom, "undefined", meta={"negated": True}))
                else:
                    children.append(Derivation(atom, "negation"))
        return children if followed else None


def explain_atom(atom, rules, store, edb=frozenset(), undefined=frozenset()):
    """Reconstruct a derivation tree for ``atom`` (see module docstring)."""
    if not atom.is_ground():
        raise ExplainError("explain needs a ground atom, got %s"
                           % format_term(atom))
    explainer = _Explainer(rules, store, edb, undefined)
    # Deep chains (chain-200 transitive closure) recurse one search level
    # per fact; give the proof search headroom beyond the default limit.
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(max(limit, 100000))
        if atom in store:
            node = explainer.explain_true(atom)
            if node is None:
                raise ExplainError(
                    "no acyclic derivation found for the true atom %s — is "
                    "the model current?" % format_term(atom))
            return node
        if atom in undefined:
            return explainer.explain_undefined(atom)
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
