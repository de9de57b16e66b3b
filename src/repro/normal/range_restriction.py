"""Range restriction for normal programs (Definition 4.1).

A normal program is range restricted when, in every rule, every variable
occurring in the head or in a negative body literal also occurs in a
positive body literal.  Range-restricted normal programs are domain
independent, and Theorems 4.1/4.2 of the paper show that for them the HiLog
well-founded/stable semantics conservatively extend the normal ones.

Definition 4.1 is Definition 5.5 read on rules whose predicate names are
symbols: with no name variables every variable is an argument variable,
condition 3 (the name ordering) is vacuous and the head's name binds nothing.
So the check is :func:`repro.core.range_restriction.rule_is_range_restricted`,
under the names the E1–E5 experiments call it by.
"""

from __future__ import annotations

from repro.core.range_restriction import is_range_restricted, rule_is_range_restricted


def rule_is_range_restricted_normal(rule):
    """Definition 4.1 applied to a single rule.

    Variables introduced by builtins on their left-hand side (``N is E`` /
    ``N = E``) are treated as bound, mirroring the usual safety condition for
    arithmetic in Datalog systems; the paper's function-free examples are
    unaffected by this allowance.
    """
    return rule_is_range_restricted(rule)


def is_range_restricted_normal(program):
    """Definition 4.1: every rule of the program is range restricted."""
    return is_range_restricted(program)


def unrestricted_rules(program):
    """The rules violating Definition 4.1 (useful for error reporting)."""
    return tuple(rule for rule in program.rules if not rule_is_range_restricted(rule))
