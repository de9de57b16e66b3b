"""Pretty printing of HiLog terms, literals, rules and programs.

The output round-trips through the parser (``parse_term(format_term(t)) == t``)
for every term the parser can produce, which the property-based tests verify.
"""

from __future__ import annotations

from repro.hilog.program import AggregateSpec, Literal, Program, Rule
from repro.hilog.terms import App, CONS, NIL, Num, Sym, Term, Var

#: Names the parser treats as keywords/operators in clause positions; a
#: bare symbol spelled like one must be quoted to survive the round trip
#: (``a :- not.`` is a syntax error, ``a :- 'not'.`` is the symbol).
_KEYWORD_NAMES = frozenset({"not", "is"})


#: Symbols that need quoting when printed (they would not re-lex as one
#: IDENT).  Digit-leading names need quotes too: a bare ``0A`` fails to lex
#: and a bare ``123`` re-lexes as the *number* 123, which is a different
#: term than the symbol ``'123'`` (``Num`` prints through its own branch).
def _needs_quoting(name):
    if not name:
        return True
    if name in _KEYWORD_NAMES:
        return True
    if not name[0].islower():
        return True
    return not all(ch.isalnum() or ch == "_" for ch in name)


#: All names the printer may render infix somewhere.
_INFIX_NAMES = {"+", "-", "*", "/", "=", "\\=", "<", ">", "=<", ">=", "is", "=:=", "=\\="}
#: Arithmetic operators parse as infix in *any* term position (the parser's
#: additive/multiplicative levels), so ``format_term`` prints them infix.
_ARITHMETIC_INFIX = frozenset({"+", "-", "*", "/"})
#: Comparisons (and ``is``) parse infix only at the body-literal level; in
#: ordinary term positions they must print functionally with a quoted name
#: (``'<'(a, b)``) or the output would not re-parse.
_COMPARISON_INFIX = frozenset(_INFIX_NAMES) - _ARITHMETIC_INFIX


def format_term(term):
    """Render a term in concrete HiLog syntax.

    The text is a function of the term's structure, and structure is
    identity for interned terms, so it is computed once per canonical object
    and kept in the term's ``_text`` slot (which ``Term.__repr__`` reads
    directly): every later print or ``sorted(key=repr)`` is a slot read.
    The slot dies with the object, so intern eviction frees the text with
    the term.  Two threads racing the first render both compute the same
    string and one store overwrites the other — idempotent, so no lock.
    """
    try:
        return term._text
    except AttributeError:
        text = _render_term(term)
        object.__setattr__(term, "_text", text)
        return text


def _render_term(term):
    """The uncached renderer behind :func:`format_term`; subterms go back
    through the cache."""
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Num):
        return str(term.value)
    if isinstance(term, Sym):
        if term == NIL:
            return "[]"
        if _needs_quoting(term.name):
            return "'%s'" % term.name.replace("'", "''")
        return term.name
    if isinstance(term, App):
        if term.name == CONS and len(term.args) == 2:
            return _format_list(term)
        if (
            isinstance(term.name, Sym)
            and term.name.name in _ARITHMETIC_INFIX
            and len(term.args) == 2
        ):
            left, right = term.args
            return "%s %s %s" % (_format_operand(left), term.name.name, _format_operand(right))
        # Comparison-named applications fall through to the generic path:
        # their Sym names always need quoting (non-alphanumeric, or the
        # keywords ``is``/``=<``/...), so they print as ``'<'(a, b)``.
        name = format_term(term.name)
        if (
            isinstance(term.name, App)
            and isinstance(term.name.name, Sym)
            and term.name.name.name in _ARITHMETIC_INFIX
            and len(term.name.args) == 2
        ):
            # An infix-printed name in application position must be
            # parenthesized: (a * b)(x), not a * b(x) — the latter re-parses
            # with the argument list bound to the right operand.
            name = "(%s)" % name
        args = ", ".join(format_term(arg) for arg in term.args)
        return "%s(%s)" % (name, args)
    raise TypeError("not a Term: %r" % (term,))


def _format_list(term):
    """Render a ``$cons``/``$nil`` chain using list syntax, including partial
    lists such as ``[X | Rest]``."""
    items = []
    node = term
    while isinstance(node, App) and node.name == CONS and len(node.args) == 2:
        items.append(format_term(node.args[0]))
        node = node.args[1]
    if node == NIL:
        return "[%s]" % ", ".join(items)
    return "[%s | %s]" % (", ".join(items), format_term(node))


def _format_operand(term):
    text = format_term(term)
    if isinstance(term, App) and isinstance(term.name, Sym) \
            and term.name.name in _ARITHMETIC_INFIX:
        return "(%s)" % text
    return text


def format_literal(literal):
    """Render a literal; negation uses the ``not`` keyword.

    A *positive* builtin comparison prints infix (``N is M * 2``) — the
    body-item grammar parses that form.  A *negated* one keeps the
    functional spelling ``format_term`` produces (``not \'<\'(a, b)``),
    because the grammar has no negated-infix production.  An atom that
    prints with a leading parenthesis is negated with the ``\\+`` operator:
    ``not (...)`` would re-lex as the application ``not(...)`` (the
    parser's lookahead that keeps Example 5.3's ``not(X)`` an ordinary
    symbol), whereas ``\\+`` is unambiguous.
    """
    if isinstance(literal, AggregateSpec):
        return format_aggregate(literal)
    atom = literal.atom
    if (
        literal.positive
        and isinstance(atom, App)
        and isinstance(atom.name, Sym)
        and atom.name.name in _COMPARISON_INFIX
        and len(atom.args) == 2
    ):
        left, right = atom.args
        return "%s %s %s" % (_format_operand(left), atom.name.name,
                             _format_operand(right))
    body = format_term(atom)
    if literal.positive:
        return body
    if body.startswith("("):
        return "\\+ %s" % body
    return "not %s" % body


def format_aggregate(aggregate):
    """Render an aggregate subgoal ``Result = op(Value : Condition)``."""
    return "%s = %s(%s : %s)" % (
        format_term(aggregate.result),
        aggregate.op,
        format_term(aggregate.value),
        format_term(aggregate.condition),
    )


def format_rule(rule):
    """Render a rule, with the trailing full stop."""
    head = format_term(rule.head)
    items = [format_literal(literal) for literal in rule.body]
    items.extend(format_aggregate(aggregate) for aggregate in rule.aggregates)
    if not items:
        return "%s." % head
    return "%s :- %s." % (head, ", ".join(items))


def format_program(program):
    """Render a whole program, one clause per line."""
    return "\n".join(format_rule(rule) for rule in program.rules)
