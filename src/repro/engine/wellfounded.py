"""The well-founded semantics for ground programs.

Two interchangeable engines are provided:

* ``engine="wp"`` — the paper-faithful construction (Definitions 3.3–3.5):
  iterate ``W_P(I) = T_P(I) ∪ ¬·U_P(I)`` from the empty partial
  interpretation until the least fixpoint is reached, where ``U_P(I)`` is the
  greatest unfounded set with respect to ``I``.

* ``engine="alternating"`` — the alternating fixpoint of the
  Gelfond–Lifschitz operator Γ (Van Gelder): the least fixpoint of Γ² is the
  set of well-founded true atoms and its greatest fixpoint is the set of
  true-or-undefined atoms.  This is asymptotically faster and is the default
  for benchmarks.

Both engines produce the same :class:`repro.engine.interpretation.Interpretation`
(the test suite cross-checks them on every program it touches).

A third, non-ground engine lives in :mod:`repro.engine.seminaive.wellfounded`:
the alternating fixpoint run semi-naively over indexed relations, without
materializing a ground program.  It reports its results through the same
:class:`WellFoundedResult` (``engine="seminaive"``, with the outer
``alternations`` count populated); the two ground engines here remain the
verification oracles for it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, NamedTuple, Optional, Set, Tuple

from repro.engine.fixpoint import gelfond_lifschitz, least_model_with_blocked
from repro.engine.grounding import GroundProgram, GroundRule
from repro.engine.interpretation import Interpretation, WellFoundedResult


def tp_operator(ground_program, interpretation):
    """``T_P(I)``: heads of rules whose body literals are all in ``I``.

    Membership is literal membership (Definition 3.5), not closed-world
    falsity: a positive body atom must be in ``I.true`` and a negative body
    atom's complement must be in ``I.false``.
    """
    derived = set()
    true = interpretation.true
    false = interpretation.false
    for rule in ground_program.rules:
        if all(atom in true for atom in rule.positive) and all(
            atom in false for atom in rule.negative
        ):
            derived.add(rule.head)
    return derived


def greatest_unfounded_set(ground_program, interpretation):
    """``U_P(I)``: the greatest unfounded set with respect to ``I``
    (Definitions 3.3/3.4).

    Computed as the complement of the least set of "founded" atoms: an atom
    is founded when it has a rule that is not refuted by ``I`` (no body
    literal's complement is in ``I``) and whose positive body atoms are all
    founded.
    """
    true = interpretation.true
    false = interpretation.false

    def refuted(rule):
        if any(atom in false for atom in rule.positive):
            return True
        return any(atom in true for atom in rule.negative)

    founded = least_model_with_blocked(ground_program.rules, blocked=refuted)
    return set(ground_program.base) - founded


def wp_operator(ground_program, interpretation):
    """``W_P(I) = T_P(I) ∪ ¬·U_P(I)`` as a new interpretation over the base."""
    true = tp_operator(ground_program, interpretation)
    false = greatest_unfounded_set(ground_program, interpretation)
    return Interpretation(true, false, base=ground_program.base)


def _well_founded_wp(ground_program):
    """Least fixpoint of ``W_P`` by direct iteration from the empty interpretation."""
    current = Interpretation((), (), base=ground_program.base)
    iterations = 0
    while True:
        iterations += 1
        next_interpretation = wp_operator(ground_program, current)
        if next_interpretation.true == current.true and next_interpretation.false == current.false:
            return WellFoundedResult(next_interpretation, iterations, "wp")
        current = next_interpretation


def _well_founded_alternating(ground_program):
    """Alternating fixpoint of the Gelfond–Lifschitz operator."""
    rules = ground_program.rules
    true = set()
    iterations = 0
    while True:
        iterations += 1
        not_false = gelfond_lifschitz(rules, true)
        new_true = gelfond_lifschitz(rules, not_false)
        if new_true == true:
            interpretation = Interpretation(
                true, set(ground_program.base) - not_false, base=ground_program.base
            )
            return WellFoundedResult(interpretation, iterations, "alternating")
        true = new_true


_ENGINES = {
    "wp": _well_founded_wp,
    "alternating": _well_founded_alternating,
}


def well_founded_model(ground_program, engine="alternating"):
    """The well-founded (partial) model of a ground program as an
    :class:`Interpretation` over the program's atom base."""
    return well_founded_model_detailed(ground_program, engine=engine).interpretation


def well_founded_model_detailed(ground_program, engine="alternating"):
    """Like :func:`well_founded_model` but also reporting iteration counts."""
    if engine not in _ENGINES:
        raise ValueError("unknown well-founded engine %r (use 'wp' or 'alternating')" % (engine,))
    return _ENGINES[engine](ground_program)


def is_total(interpretation):
    """True when the interpretation leaves nothing undefined."""
    return interpretation.is_total()
