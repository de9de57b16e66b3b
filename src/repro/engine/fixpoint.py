"""Least-model computation for definite ground programs.

This is the work-horse used by the alternating-fixpoint well-founded
semantics (via the Gelfond–Lifschitz transform), by the stable-model check
and by the unfounded-set computation: all of them repeatedly need the least
model of a set of ground Horn rules, possibly after discarding rules
"blocked" by their negative body.

The implementation is the classical linear-time counting algorithm (Dowling
& Gallier): each rule keeps a counter of not-yet-satisfied positive body
atoms; when the counter reaches zero the head is derived and propagated.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.hilog.terms import Term


def least_model_with_blocked(rules, blocked, initial=()):
    """Least model of the positive parts of ``rules``, skipping blocked rules.

    ``blocked(rule)`` should return True when the rule must be discarded
    (typically because one of its negative body atoms is true in the context
    interpretation — this realizes the Gelfond–Lifschitz reduct without
    materializing it).
    """
    rules = list(rules)
    true = set(initial)
    queue = deque(true)

    # Index: atom -> list of rule indices where the atom occurs positively.
    watchers = {}
    counters = []
    heads = []
    for idx, rule in enumerate(rules):
        if blocked(rule):
            counters.append(-1)  # never fires
            heads.append(rule.head)
            continue
        remaining = 0
        for atom in rule.positive:
            if atom in true:
                continue
            remaining += 1
            watchers.setdefault(atom, []).append(idx)
        counters.append(remaining)
        heads.append(rule.head)
        if remaining == 0 and rule.head not in true:
            true.add(rule.head)
            queue.append(rule.head)

    while queue:
        atom = queue.popleft()
        for idx in watchers.get(atom, ()):  # each occurrence decremented once
            if counters[idx] <= 0:
                continue
            counters[idx] -= 1
            if counters[idx] == 0:
                head = heads[idx]
                if head not in true:
                    true.add(head)
                    queue.append(head)
    return true


def gelfond_lifschitz(rules, context_true):
    """The Gelfond–Lifschitz operator Γ.

    Returns the least model of the reduct of ``rules`` with respect to the
    set ``context_true`` of atoms assumed true: rules with a negative body
    atom in ``context_true`` are deleted, remaining negative literals are
    dropped.
    """
    context = context_true if isinstance(context_true, (set, frozenset)) else set(context_true)
    return least_model_with_blocked(
        rules,
        blocked=lambda rule: any(atom in context for atom in rule.negative),
    )
