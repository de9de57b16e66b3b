"""Classification helpers for normal programs.

A *normal* program, in the paper's terminology, is an ordinary logic program:
every atom is ``p(t1, ..., tn)`` for a predicate symbol ``p`` and first-order
terms ``ti`` (or a propositional symbol ``p``).  HiLog programs generalize
this by allowing arbitrary terms — including variables — as predicate names.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Set, Tuple

from repro.hilog.program import Program, Rule
from repro.hilog.terms import App, Sym, Term, Var


class PredicateSignature(NamedTuple):
    """A normal-program predicate: its symbol name and arity."""

    name: str
    arity: int

    def __repr__(self):
        return "%s/%d" % (self.name, self.arity)


def atom_signature(atom):
    """The :class:`PredicateSignature` of a normal atom (or ``None``)."""
    if isinstance(atom, App):
        if isinstance(atom.name, Sym):
            return PredicateSignature(atom.name.name, len(atom.args))
        return None
    if isinstance(atom, Sym):
        return PredicateSignature(atom.name, 0)
    return None


def is_normal_program(program):
    """True when every atom of the program is a normal atom.

    Delegates to :meth:`repro.hilog.program.Program.is_normal`, provided here
    for symmetry with the other classification predicates.
    """
    return program.is_normal()


def predicate_signatures(program):
    """All predicate signatures used in heads or bodies of the program."""
    signatures = set()
    for rule in program.rules:
        atoms = [rule.head] + [lit.atom for lit in rule.body if not lit.is_builtin()]
        for aggregate in rule.aggregates:
            atoms.append(aggregate.condition)
        for atom in atoms:
            signature = atom_signature(atom)
            if signature is not None:
                signatures.add(signature)
    return signatures


def edb_predicates(program):
    """Predicates defined only by facts ("extensional database").

    The paper notes (Section 6.1) that with variables in predicate names it
    may be unclear which predicates are EDB; for normal programs the split is
    syntactic and implemented here.
    """
    defined_by_rule = set()
    defined_by_fact = set()
    for rule in program.rules:
        signature = atom_signature(rule.head)
        if signature is None:
            continue
        if rule.is_fact():
            defined_by_fact.add(signature)
        else:
            defined_by_rule.add(signature)
    return defined_by_fact - defined_by_rule


def idb_predicates(program):
    """Predicates defined by at least one rule with a nonempty body."""
    result = set()
    for rule in program.rules:
        if rule.is_fact():
            continue
        signature = atom_signature(rule.head)
        if signature is not None:
            result.add(signature)
    return result
