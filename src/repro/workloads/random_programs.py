"""Random range-restricted normal programs.

These generators feed the reduction-theorem experiment (E2): Theorems 4.1
and 4.2 state that for *range-restricted* normal programs the HiLog
well-founded model (respectively the HiLog stable models) conservatively
extend the normal ones.  The benchmark samples many random range-restricted
programs and checks the conservative-extension relation on each.

The generated programs are deliberately modest in size (the check grounds
them over a HiLog universe fragment) and are stratified by construction so
that both semantics are total and stable models exist; a switch allows
unstratified negation for stress tests of the well-founded comparison.

:func:`random_nonstratified_program` targets the class *between* stratified
and arbitrary normal programs — range-restricted programs with controlled
cycles through negation (win/move-shaped loops seeded deliberately, plus
free negation elsewhere).  It feeds the differential-testing harness for
the well-founded semantics (``tests/engine/test_wellfounded_agreement.py``):
its samples routinely have genuinely three-valued well-founded models, so
the semi-naive alternating fixpoint, the ground alternating fixpoint and
the paper-faithful ``W_P`` iteration can be compared on all three truth
values instead of only on totals.

Both generators take ``name_open=k``: ``k`` more rules in the shape of
Example 6.3, a variable in predicate-name position under negation, guarded
by a binder (:func:`name_open_rules`) — HiLog programs proper, which the
engine specialises by a binder join and the ground oracles instantiate.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.hilog.program import Literal, Program, Rule
from repro.hilog.terms import App, Sym, Var


def name_open_rules(predicates, count, arity, rng):
    """``count`` random **name-open** rules over ``predicates`` plus the
    binder facts that close them, in the shape of Example 6.3::

        q0(N)(X0, X1) :- rel(N), N(X0, X1), not q1(N)(X1, X0).
        rel(p0).  rel(p2).

    Every rule is guarded by the binder ``rel(N)`` and anchored by a
    positive literal binding every variable (range restriction); its other
    literals read the bound relation ``N``, a fixed ``p_i`` or a
    parameterized ``q_j(N)`` — any ``j``, so the instances recurse through
    negation among themselves — positively or negatively.  Heads are
    ``q_j(N)`` only: no rule over ``predicates`` alone reads them, so the
    instances never re-settle a head."""
    binder = Sym("rel")
    name = Var("N")
    variables = tuple(Var("X%d" % i) for i in range(arity))
    parameterized = [App(Sym("q%d" % i), (name,)) for i in range(count)]
    rules = []
    for head_name in parameterized:
        anchor = rng.choice([name] + list(predicates))
        body = [Literal(App(binder, (name,))), Literal(App(anchor, variables))]
        for _ in range(rng.randint(1, 2)):
            arguments = list(variables)
            rng.shuffle(arguments)
            body.append(Literal(
                App(rng.choice([name] + list(predicates) + parameterized),
                    tuple(arguments)),
                positive=rng.random() < 0.4,
            ))
        rules.append(Rule(App(head_name, variables), tuple(body)))
    bound = rng.sample(list(predicates), rng.randint(1, len(predicates)))
    return rules + [Rule(App(binder, (predicate,))) for predicate in bound]


def random_range_restricted_program(n_predicates=3, n_constants=3, n_facts=6, n_rules=4,
                                    max_body=3, arity=2, negation="stratified", seed=0,
                                    name_open=0):
    """Generate a random range-restricted normal program — or, with
    ``name_open``, a HiLog one.

    Args:
        n_predicates: number of IDB/EDB predicate symbols ``p0, p1, ...``.
        n_constants: number of constants ``c0, c1, ...``.
        n_facts: number of ground facts.
        n_rules: number of proper rules.
        max_body: maximum number of body literals per rule.
        arity: arity of every predicate.
        negation: ``"none"``, ``"stratified"`` (negations only on
            lower-numbered predicates, keeping the program stratified) or
            ``"free"`` (negation on any predicate).
        seed: RNG seed (generation is deterministic given the seed).
        name_open: number of :func:`name_open_rules` to add (drawn from a
            generator of their own: the normal part of the program is the
            same whatever this is).
    """
    if negation not in ("none", "stratified", "free"):
        raise ValueError("negation must be 'none', 'stratified' or 'free'")
    rng = random.Random(seed)
    predicates = [Sym("p%d" % i) for i in range(n_predicates)]
    constants = [Sym("c%d" % i) for i in range(n_constants)]

    def random_ground_atom(predicate=None):
        predicate = predicate if predicate is not None else rng.choice(predicates)
        return App(predicate, tuple(rng.choice(constants) for _ in range(arity)))

    rules = [Rule(random_ground_atom()) for _ in range(n_facts)]

    variables = [Var("X%d" % i) for i in range(arity * 2)]
    for _ in range(n_rules):
        head_index = rng.randrange(n_predicates)
        head_vars = [rng.choice(variables) for _ in range(arity)]
        head = App(predicates[head_index], tuple(head_vars))

        body = []
        # One positive literal containing every head variable keeps the rule
        # range restricted (Definition 4.1).
        anchor_vars = list(head_vars)
        while len(anchor_vars) < arity:
            anchor_vars.append(rng.choice(variables))
        body.append(Literal(App(rng.choice(predicates), tuple(anchor_vars[:arity]))))
        if len(set(head_vars)) > arity:
            body.append(Literal(App(rng.choice(predicates), tuple(head_vars[arity:]))))

        for _ in range(rng.randint(0, max_body - 1)):
            literal_vars = [rng.choice(head_vars + [rng.choice(variables)]) for _ in range(arity)]
            predicate_index = rng.randrange(n_predicates)
            positive = True
            if negation != "none" and rng.random() < 0.4:
                if negation == "stratified":
                    if predicate_index < head_index:
                        positive = False
                else:
                    positive = False
            atom = App(predicates[predicate_index], tuple(literal_vars))
            if positive:
                body.append(Literal(atom))
            else:
                # Negative literals only over variables already bound by the
                # anchor literal, preserving range restriction.
                bound_vars = [v for v in literal_vars if v in anchor_vars[:arity] or v in head_vars]
                while len(bound_vars) < arity:
                    bound_vars.append(rng.choice(anchor_vars[:arity] + head_vars))
                body.append(Literal(App(predicates[predicate_index], tuple(bound_vars[:arity])),
                                    positive=False))
        rules.append(Rule(head, tuple(body)))
    if name_open:
        rules.extend(name_open_rules(
            predicates, name_open, arity, random.Random(seed * 104729 + 7)))
    return Program(tuple(rules))


def random_nonstratified_program(n_predicates=4, n_constants=3, n_facts=8,
                                 n_rules=5, max_body=3, arity=2,
                                 cycle_length=2, seed=0, name_open=0,
                                 multi_negation=0):
    """Generate a random range-restricted normal program with a *guaranteed*
    cycle through negation.

    On top of a :func:`random_range_restricted_program` sample with free
    negation, ``cycle_length`` win/move-shaped rules are added that close a
    negation loop through the first ``cycle_length`` predicates::

        p0(X0, X1) :- p1(X0, X1), not p1(X1, X0).   # and cyclically on

    Each rule's positive literal binds every variable (range restriction,
    Definition 4.1) and its negated predicate is the *next* predicate in
    the loop, so the predicate dependency graph always has a negative
    cycle ``p0 -> p1 -> ... -> p0`` — the class the stratified engine
    refuses and the alternating-fixpoint evaluator exists for.  Whether any
    ground instance actually loops depends on the random facts, so samples
    cover total and genuinely partial well-founded models alike.

    ``multi_negation`` adds that many rules with two or three negative
    literals *inside* the loop's component (head and negated predicates
    among the first ``cycle_length``)::

        p1(X0, X1) :- p3(X0, X1), not p0(X1, X0), not p1(X0, X1).

    — the shape in which several negated subgoals of one rule instance can
    be proven in the same alternation.  They are drawn from a generator of
    their own, so the rest of the program is the same whatever this is.
    """
    if cycle_length < 1:
        raise ValueError("cycle_length must be at least 1")
    if cycle_length > n_predicates:
        raise ValueError("cycle_length cannot exceed n_predicates")
    base = random_range_restricted_program(
        n_predicates=n_predicates,
        n_constants=n_constants,
        n_facts=n_facts,
        n_rules=n_rules,
        max_body=max_body,
        arity=arity,
        negation="free",
        seed=seed,
        name_open=name_open,
    )
    rng = random.Random(seed * 7919 + 13)
    predicates = [Sym("p%d" % i) for i in range(n_predicates)]
    variables = [Var("X%d" % i) for i in range(arity)]
    cycle_rules = []
    for index in range(cycle_length):
        head_pred = predicates[index]
        next_pred = predicates[(index + 1) % cycle_length]
        head_vars = tuple(variables)
        # The positive anchor binds every head variable; the negated
        # literal permutes them so ground loops can actually close.
        anchor = App(next_pred, head_vars)
        negated_vars = list(head_vars)
        rng.shuffle(negated_vars)
        cycle_rules.append(
            Rule(
                App(head_pred, head_vars),
                (
                    Literal(anchor),
                    Literal(App(next_pred, tuple(negated_vars)), positive=False),
                ),
            )
        )
    if multi_negation:
        rng = random.Random(seed * 15485863 + 29)
        looped = predicates[:cycle_length]
        for _ in range(multi_negation):
            body = [Literal(App(rng.choice(predicates), tuple(variables)))]
            for _ in range(rng.randint(2, 3)):
                negated_vars = [rng.choice(variables) for _ in range(arity)]
                body.append(Literal(
                    App(rng.choice(looped), tuple(negated_vars)), positive=False
                ))
            cycle_rules.append(
                Rule(App(rng.choice(looped), tuple(variables)), tuple(body))
            )
    return Program(base.rules + tuple(cycle_rules))
