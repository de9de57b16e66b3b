"""HiLog literals, rules and programs.

A HiLog rule is ``A <- L1, ..., Ln`` where ``A`` is a HiLog term (the head)
and each ``Li`` is a HiLog literal: a term or a negated term (paper,
Definition 2.1).  A HiLog program is a finite set of such rules.

The classes here are deliberately simple, immutable containers; all semantic
machinery lives in :mod:`repro.engine`, :mod:`repro.normal` and
:mod:`repro.core`.

Rules may additionally carry *aggregate specifications* (used by the
parts-explosion program of Section 6 of the paper) and may use builtin
comparison / arithmetic literals such as ``N = P * M``; those literals are
ordinary :class:`Literal` objects whose predicate name is one of
:data:`BUILTIN_PREDICATES`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.hilog.terms import (
    App,
    Sym,
    Term,
    Var,
    functor,
    outermost_symbol,
    predicate_name,
    rename_variables,
)

#: Predicate names treated as builtins by the evaluation engine.  ``is`` and
#: ``=`` evaluate their right-hand side arithmetically when it is an
#: arithmetic expression.
BUILTIN_PREDICATES = frozenset({"=", "\\=", "<", ">", "=<", ">=", "is", "=:=", "=\\="})

#: Function symbols understood by the arithmetic evaluator.
ARITHMETIC_FUNCTORS = frozenset({"+", "-", "*", "/", "mod", "min", "max"})


class Span(NamedTuple):
    """1-based source position of a parsed construct's first token.

    Parsed rules, literals and aggregate specifications carry a ``span``
    so downstream tooling (the :mod:`repro.lint` static analyzer above
    all) can cite ``file:line:column`` instead of pretty-printing the
    offending object.  Spans are *provenance*, not identity: two
    alpha-equal rules parsed from different lines compare (and hash)
    equal, and programmatically built objects simply have ``span=None``.
    """

    line: int
    column: int

    def __str__(self) -> str:
        return "%d:%d" % (self.line, self.column)


class Literal:
    """A HiLog literal: an atom or a negated atom."""

    __slots__ = ("atom", "positive", "_hash", "span")

    def __init__(self, atom, positive=True, span=None):
        if not isinstance(atom, Term):
            raise TypeError("literal atom must be a Term, got %r" % (atom,))
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "positive", bool(positive))
        object.__setattr__(self, "_hash", hash(("lit", atom, bool(positive))))
        object.__setattr__(self, "span", span)

    def __setattr__(self, key, value):
        raise AttributeError("Literal is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and other.positive == self.positive
            and other.atom == self.atom
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from repro.hilog.pretty import format_literal

        return format_literal(self)

    @property
    def negative(self):
        """True when the literal is a negated atom."""
        return not self.positive

    def negate(self):
        """Return the complementary literal."""
        return Literal(self.atom, not self.positive, span=self.span)

    def substitute(self, subst):
        """Apply a substitution to the literal's atom."""
        return Literal(subst.apply(self.atom), self.positive, span=self.span)

    def variables(self):
        """Variables occurring anywhere in the literal."""
        return self.atom.variables()

    def is_ground(self):
        return self.atom.is_ground()

    def is_builtin(self):
        """True for comparison/arithmetic builtins such as ``X < Y`` / ``N is E``."""
        name = predicate_name(self.atom)
        return isinstance(name, Sym) and name.name in BUILTIN_PREDICATES

    def predicate(self):
        """The predicate-name term of the literal's atom."""
        return predicate_name(self.atom)


class AggregateSpec:
    """An aggregate subgoal of the form ``Result = op(Value : Condition)``.

    This models the paper's parts-explosion rule
    ``contains(Mach,X,Y,N) <- N = sum P : in(Mach,X,Y,_,P)``.  ``group_by``
    (implicitly, the variables shared between the condition and the rest of
    the rule) is determined at evaluation time.
    """

    __slots__ = ("op", "value", "condition", "result", "_hash", "span")

    SUPPORTED_OPS = ("sum", "count", "min", "max")

    def __init__(self, op, value, condition, result, span=None):
        if op not in self.SUPPORTED_OPS:
            raise ValueError("unsupported aggregate %r" % (op,))
        if not isinstance(value, Term) or not isinstance(condition, Term) or not isinstance(result, Term):
            raise TypeError("aggregate components must be Terms")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "_hash", hash(("agg", op, value, condition, result)))
        object.__setattr__(self, "span", span)

    def __setattr__(self, key, value):
        raise AttributeError("AggregateSpec is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, AggregateSpec)
            and other.op == self.op
            and other.value == self.value
            and other.condition == self.condition
            and other.result == self.result
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from repro.hilog.pretty import format_term

        return "%s = %s(%s : %s)" % (
            format_term(self.result),
            self.op,
            format_term(self.value),
            format_term(self.condition),
        )

    def variables(self):
        result = set(self.value.variables())
        result |= self.condition.variables()
        result |= self.result.variables()
        return result

    def substitute(self, subst):
        return AggregateSpec(
            self.op,
            subst.apply(self.value),
            subst.apply(self.condition),
            subst.apply(self.result),
            span=self.span,
        )


class Rule:
    """A HiLog rule ``head <- body`` (with optional aggregate subgoals)."""

    __slots__ = ("head", "body", "aggregates", "_hash", "span")

    def __init__(self, head, body=(), aggregates=(), span=None):
        if not isinstance(head, Term):
            raise TypeError("rule head must be a Term, got %r" % (head,))
        body = tuple(body)
        for literal in body:
            if not isinstance(literal, Literal):
                raise TypeError("rule body items must be Literals, got %r" % (literal,))
        aggregates = tuple(aggregates)
        for aggregate in aggregates:
            if not isinstance(aggregate, AggregateSpec):
                raise TypeError("rule aggregates must be AggregateSpecs, got %r" % (aggregate,))
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "aggregates", aggregates)
        object.__setattr__(self, "_hash", hash(("rule", head, body, aggregates)))
        object.__setattr__(self, "span", span)

    def __setattr__(self, key, value):
        raise AttributeError("Rule is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Rule)
            and other.head == self.head
            and other.body == self.body
            and other.aggregates == self.aggregates
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from repro.hilog.pretty import format_rule

        return format_rule(self)

    # -- structure ----------------------------------------------------------
    def is_fact(self):
        """True for a rule with an empty body and no aggregates."""
        return not self.body and not self.aggregates

    def is_ground(self):
        if not self.head.is_ground():
            return False
        if any(not literal.is_ground() for literal in self.body):
            return False
        return all(
            aggregate.value.is_ground()
            and aggregate.condition.is_ground()
            and aggregate.result.is_ground()
            for aggregate in self.aggregates
        )

    def positive_literals(self):
        """The positive, non-builtin body literals (as a tuple, in order)."""
        return tuple(lit for lit in self.body if lit.positive and not lit.is_builtin())

    def negative_literals(self):
        """The negative body literals (as a tuple, in order)."""
        return tuple(lit for lit in self.body if lit.negative)

    def builtin_literals(self):
        """The builtin body literals (comparisons / arithmetic)."""
        return tuple(lit for lit in self.body if lit.is_builtin())

    def variables(self):
        result = set(self.head.variables())
        for literal in self.body:
            result |= literal.variables()
        for aggregate in self.aggregates:
            result |= aggregate.variables()
        return result

    def symbols(self):
        result = set(self.head.symbols())
        for literal in self.body:
            result |= literal.atom.symbols()
        for aggregate in self.aggregates:
            result |= aggregate.value.symbols()
            result |= aggregate.condition.symbols()
            result |= aggregate.result.symbols()
        return result

    def head_predicate(self):
        """The predicate-name term of the head."""
        return predicate_name(self.head)

    def substitute(self, subst):
        """Apply a substitution to the whole rule."""
        return Rule(
            subst.apply(self.head),
            tuple(literal.substitute(subst) for literal in self.body),
            tuple(aggregate.substitute(subst) for aggregate in self.aggregates),
            span=self.span,
        )

    def rename_apart(self, counter):
        """Return a copy of the rule with fresh variable names.

        ``counter`` is a one-element list acting as a mutable integer so
        successive calls produce globally distinct names.
        """
        mapping = {}
        new_head = rename_variables(self.head, mapping, counter)
        new_body = []
        for literal in self.body:
            new_body.append(
                Literal(
                    rename_variables(literal.atom, mapping, counter),
                    literal.positive,
                    span=literal.span,
                )
            )
        new_aggregates = []
        for aggregate in self.aggregates:
            new_aggregates.append(
                AggregateSpec(
                    aggregate.op,
                    rename_variables(aggregate.value, mapping, counter),
                    rename_variables(aggregate.condition, mapping, counter),
                    rename_variables(aggregate.result, mapping, counter),
                    span=aggregate.span,
                )
            )
        return Rule(new_head, tuple(new_body), tuple(new_aggregates), span=self.span)


class Program:
    """A finite set of HiLog rules (kept in source order)."""

    __slots__ = ("rules",)

    def __init__(self, rules=()):
        rules = tuple(rules)
        for rule in rules:
            if not isinstance(rule, Rule):
                raise TypeError("program members must be Rules, got %r" % (rule,))
        object.__setattr__(self, "rules", rules)

    def __setattr__(self, key, value):
        raise AttributeError("Program is immutable")

    def __eq__(self, other):
        return isinstance(other, Program) and other.rules == self.rules

    def __hash__(self):
        return hash(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def __repr__(self):
        from repro.hilog.pretty import format_program

        return format_program(self)

    def __add__(self, other):
        """Union (concatenation, duplicates removed, order preserved)."""
        if isinstance(other, Program):
            other_rules = other.rules
        else:
            other_rules = tuple(other)
        seen = set()
        merged = []
        for rule in self.rules + tuple(other_rules):
            if rule not in seen:
                seen.add(rule)
                merged.append(rule)
        return Program(merged)

    # -- structure ----------------------------------------------------------
    def facts(self):
        """All fact rules of the program."""
        return tuple(rule for rule in self.rules if rule.is_fact())

    def proper_rules(self):
        """All non-fact rules of the program."""
        return tuple(rule for rule in self.rules if not rule.is_fact())

    def symbols(self):
        """The set of symbol names used anywhere in the program.

        This is the vocabulary that *generates* the program's HiLog Herbrand
        universe (paper, Section 2).  Builtin predicate names are excluded.
        """
        result = set()
        for rule in self.rules:
            result |= rule.symbols()
        return result - set(BUILTIN_PREDICATES)

    def head_predicates(self):
        """The set of predicate-name terms appearing in rule heads."""
        return {rule.head_predicate() for rule in self.rules}

    def ground_predicate_names(self):
        """Predicate-name terms of heads and body atoms that are ground."""
        names = set()
        for rule in self.rules:
            head_name = rule.head_predicate()
            if head_name.is_ground():
                names.add(head_name)
            for literal in rule.body:
                if literal.is_builtin():
                    continue
                name = literal.predicate()
                if name.is_ground():
                    names.add(name)
        return names

    def has_negation(self):
        """True when some rule body contains a negative literal."""
        return any(rule.negative_literals() for rule in self.rules)

    def has_aggregates(self):
        return any(rule.aggregates for rule in self.rules)

    def is_ground(self):
        return all(rule.is_ground() for rule in self.rules)

    def is_normal(self):
        """True when the program is a *normal* logic program.

        In a normal program every atom has a symbol as its predicate name
        (never a variable or a compound term) and predicate names never
        appear nested inside argument positions as applications.  Constants
        and function applications are allowed in argument positions.
        """
        for rule in self.rules:
            atoms = [rule.head] + [lit.atom for lit in rule.body if not lit.is_builtin()]
            for atom in atoms:
                if not isinstance(atom, App):
                    # A bare symbol is a propositional atom: fine.
                    if isinstance(atom, Var):
                        return False
                    continue
                if not isinstance(atom.name, Sym):
                    return False
        return True

    def rules_for(self, predicate):
        """Rules whose head predicate-name term equals ``predicate``."""
        return tuple(rule for rule in self.rules if rule.head_predicate() == predicate)

    def shares_symbols_with(self, other):
        """True when the two programs have a common (non-builtin) symbol."""
        return bool(self.symbols() & other.symbols())
