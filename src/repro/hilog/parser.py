"""Parser for the concrete HiLog syntax.

The syntax is Prolog-like.  Examples::

    tc(G)(X, Y) :- G(X, Y).
    tc(G)(X, Y) :- G(X, Z), tc(G)(Z, Y).
    winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
    maplist(F)([], []).
    maplist(F)([X|R], [Y|Z]) :- F(X, Y), maplist(F)(R, Z).
    contains(Mach, X, Y, N) :- N = sum(P : in(Mach, X, Y, _, P)).
    ?- w(m)(a).

Comments run from ``%`` to the end of the line, or between ``/*`` and ``*/``.

Grammar (informally)::

    program   ::=  clause*
    clause    ::=  rule "."
    rule      ::=  term [ ":-" body ]
    query     ::=  [ "?-" ] body "."?
    body      ::=  bodyitem ("," bodyitem)*
    bodyitem  ::=  ("not" | "\\+" | "~") atom
                |  term ":-"-free infix-comparison term      (builtin literal)
                |  term "is" term                            (builtin literal)
                |  term "=" aggop "(" term ":" atom ")"       (aggregate)
                |  atom
    term      ::=  additive arithmetic expression over applications
    application ::= primary ( "(" [ term ("," term)* ] ")" )*
    primary   ::=  VAR | NUMBER | IDENT | "(" term ")" | list

Tokens.  A name is a run of word characters (``\\w``: ``str.isalnum()``
or ``_``) that does not start with a decimal digit; its first character
decides what it is — an identifier when it is lower case, a variable when
it is upper case or ``_``, and an error otherwise.  A number is a run of
decimal digits (``\\d``, exactly the characters :func:`int` accepts, so
``p(٣)`` is ``p(3)``).  A quoted atom ``'...'`` (``''`` for a quote
inside) is an identifier that is never a keyword.  A lone ``_`` is a
fresh anonymous variable.

Negation: ``not`` is treated as the negation operator unless it is directly
followed by ``(`` with no space carrying semantic weight — i.e. ``not(X)`` is
the application of the symbol ``not`` (as in Example 5.3 of the paper) while
``not p(X)`` is the negative literal ``¬ p(X)``.  The unambiguous forms
``\\+`` and ``~`` are always negation.

One scan, one pass.  A single compiled regular expression (:data:`_TOKEN`)
scans the whole text, layout and comments included, into three flat lists:
token kinds, values and start offsets.  A punctuation token's kind is its
own text, so the parser tests a token with one list index and one string
comparison.  Line and column are computed from an offset only where they
are reported — the :class:`~repro.hilog.program.Span` of a rule, literal or
aggregate and the position of a :class:`ParseError` — so a newline inside
a quoted atom or a comment counts like any other.  Every failure is a
:class:`ParseError`, text nested deeper than the interpreter's recursion
limit allows included.
"""

from __future__ import annotations

import bisect
import itertools
import re

from repro.hilog.errors import ParseError
from repro.hilog.program import AggregateSpec, Literal, Program, Rule, Span
from repro.hilog.terms import App, Num, Sym, Var, fresh_var, make_list

#: One token after any layout.  ``IDENT`` and ``VAR`` are the ASCII names,
#: ``NAME`` any other name (its first character decides its kind), ``EOF``
#: the end of the text, and a match with no group an error.  ``/`` is
#: punctuation only when it does not open a comment, and a quoted atom
#: closes at the first quote that is not doubled.
_TOKEN = re.compile(r"""
    (?: \s+ | %[^\n]* | /\*.*?\*/ )*
    (?:
        (?P<IDENT> [a-z]\w* )
      | (?P<VAR> [A-Z_]\w* )
      | (?P<PUNCT> :- | \?- | =:= | =\\= | =< | >= | \\= | \\\+
                 | [()\[\]|,.:<>=~+\-*] | /(?!\*) )
      | (?P<NUMBER> \d+ )
      | (?P<QUOTED> '[^']*(?:''[^']*)*' )(?!')
      | (?P<NAME> [^\W\d]\w* )
      | (?P<EOF> \Z )
      |
    )""", re.VERBOSE | re.DOTALL)

_NEWLINE = re.compile("\n")

_COMPARISON_OPS = frozenset(("=", "\\=", "<", ">", "=<", ">=", "=:=", "=\\="))
_ARITHMETIC_OPS = frozenset(("+", "-", "*", "/"))
_AGG_OPS = frozenset(("sum", "count", "min", "max"))

#: Process-wide parse counter: anonymous-variable display names embed it so
#: printed output never shows two anons from different parses under one
#: name.  Distinctness itself does not depend on the names: every ``_``
#: becomes a *fresh, uninterned* :class:`Var` (see
#: :func:`repro.hilog.terms.fresh_var`).  A per-parser-only counter with
#: interned variables used to make ``_Anon1`` of every parse the *same
#: object* — silently aliasing anonymous variables across parsed fragments
#: combined into one rule — while globally unique interned names would
#: leak one interned variable per ``_`` per parse.
_PARSE_IDS = itertools.count(1)


class _Parser:
    """The scanned token lists of one text and a position in them.  One
    instance per parse call."""

    def __init__(self, text):
        self._text = text
        self._line_starts = None
        kinds = self._kinds = []
        values = self._values = []
        starts = self._starts = []
        for match in _TOKEN.finditer(text):
            kind = match.lastgroup
            if kind is None:
                raise self._scan_error(match.end())
            start = match.start(kind)
            value = match.group(kind)
            if kind == "PUNCT":
                kind = value
            elif kind == "QUOTED":
                value = value[1:-1].replace("''", "'")
            elif kind == "NAME":
                if value[0].islower():
                    kind = "IDENT"
                elif value[0].isupper():
                    kind = "VAR"
                else:
                    raise self._scan_error(start)
            kinds.append(kind)
            values.append(value)
            starts.append(start)
            if kind == "EOF":
                break
        self._pos = 0
        self._parse_id = next(_PARSE_IDS)
        self._anon_counter = 0

    # -- positions and errors ------------------------------------------------
    def _position(self, offset):
        """The 1-based ``(line, column)`` of ``offset`` in the text."""
        line_starts = self._line_starts
        if line_starts is None:
            line_starts = self._line_starts = [0] + [
                match.end() for match in _NEWLINE.finditer(self._text)]
        line = bisect.bisect_right(line_starts, offset)
        return line, offset - line_starts[line - 1] + 1

    def _span(self, index):
        return Span(*self._position(self._starts[index]))

    def _error(self, message, offset):
        line, column = self._position(offset)
        return ParseError(message, line=line, column=column)

    def _scan_error(self, offset):
        """A :class:`ParseError` for text at ``offset`` that is no token."""
        text = self._text
        if text.startswith("/*", offset):
            message = "unterminated block comment"
        elif text.startswith("'", offset):
            message = "unterminated quoted atom"
        else:
            message = "unexpected character %r" % text[offset]
        return self._error(message, offset)

    def _unexpected(self, message, index):
        """A :class:`ParseError` at token ``index``, naming the token."""
        found = self._values[index] or self._kinds[index]
        return self._error(message % (found,), self._starts[index])

    def _close(self, kind):
        """Step over the token ``kind``, which must be the current one."""
        pos = self._pos
        if self._kinds[pos] != kind:
            raise self._unexpected("expected %r but found %%r" % kind, pos)
        self._pos = pos + 1

    def _end(self):
        """Step over an optional trailing ``.``; the text must end there."""
        pos = self._pos
        kinds = self._kinds
        if kinds[pos] == ".":
            pos += 1
        if kinds[pos] != "EOF":
            raise self._unexpected("unexpected trailing input %r", pos)
        self._pos = pos

    # -- terms --------------------------------------------------------------
    def parse_term(self):
        """Parse a term, including infix arithmetic expressions: sums of
        products of applications, each operator left-associative."""
        kinds = self._kinds
        left = self._application()
        op = kinds[self._pos]
        while op in _ARITHMETIC_OPS:
            self._pos += 1
            right = self._application()
            if op == "+" or op == "-":
                factor = kinds[self._pos]
                while factor == "*" or factor == "/":
                    self._pos += 1
                    right = App(Sym(factor), (right, self._application()))
                    factor = kinds[self._pos]
            left = App(Sym(op), (left, right))
            op = kinds[self._pos]
        return left

    def _application(self):
        """A primary term applied to zero or more argument lists."""
        kinds = self._kinds
        pos = self._pos
        kind = kinds[pos]
        if kind == "IDENT" or kind == "QUOTED":
            term = Sym(self._values[pos])
            pos += 1
        elif kind == "VAR":
            name = self._values[pos]
            if name == "_":
                self._anon_counter += 1
                term = fresh_var(
                    "_Anon%d_%d" % (self._parse_id, self._anon_counter))
            else:
                term = Var(name)
            pos += 1
        elif kind == "NUMBER":
            try:
                term = Num(int(self._values[pos]))
            except ValueError as error:
                raise self._error("invalid number: %s" % error,
                                  self._starts[pos]) from None
            pos += 1
        elif kind == "(":
            self._pos = pos + 1
            term = self.parse_term()
            self._close(")")
            pos = self._pos
        elif kind == "[":
            self._pos = pos + 1
            term = self._list()
            pos = self._pos
        else:
            raise self._unexpected("expected a term but found %r", pos)
        while kinds[pos] == "(":
            pos += 1
            args = []
            if kinds[pos] != ")":
                self._pos = pos
                args.append(self.parse_term())
                while kinds[self._pos] == ",":
                    self._pos += 1
                    args.append(self.parse_term())
                self._close(")")
                pos = self._pos
            else:
                pos += 1
            term = App(term, tuple(args))
        self._pos = pos
        return term

    def _list(self):
        """The rest of a list after its ``[``."""
        kinds = self._kinds
        if kinds[self._pos] == "]":
            self._pos += 1
            return make_list([])
        items = [self.parse_term()]
        while kinds[self._pos] == ",":
            self._pos += 1
            items.append(self.parse_term())
        tail = None
        if kinds[self._pos] == "|":
            self._pos += 1
            tail = self.parse_term()
        self._close("]")
        if tail is None:
            return make_list(items)
        return make_list(items, tail=tail)

    # -- body items ----------------------------------------------------------
    def _body(self):
        """One or more comma-separated body items."""
        kinds = self._kinds
        items = [self._body_item()]
        while kinds[self._pos] == ",":
            self._pos += 1
            items.append(self._body_item())
        return items

    def _body_item(self):
        """Parse one body item: literal, builtin comparison, or aggregate.

        Returns either a :class:`Literal` or an :class:`AggregateSpec`,
        carrying the :class:`Span` of its first token.
        """
        kinds = self._kinds
        pos = self._pos
        kind = kinds[pos]
        span = self._span(pos)
        if kind == "\\+" or kind == "~" or (
            # ``not(X)`` is the application of the symbol ``not``
            # (Example 5.3); a quoted ``'not'`` is never the keyword.
            kind == "IDENT" and self._values[pos] == "not"
            and kinds[pos + 1] != "("
        ):
            self._pos = pos + 1
            return Literal(self.parse_term(), positive=False, span=span)

        left = self.parse_term()
        pos = self._pos
        op = kinds[pos]
        if op in _COMPARISON_OPS:
            self._pos = pos + 1
            if op == "=":
                aggregate = self._aggregate(left, span)
                if aggregate is not None:
                    return aggregate
            return Literal(App(Sym(op), (left, self.parse_term())), span=span)
        if op == "IDENT" and self._values[pos] == "is":
            self._pos = pos + 1
            return Literal(App(Sym("is"), (left, self.parse_term())), span=span)
        return Literal(left, span=span)

    def _aggregate(self, result, span):
        """After seeing ``result =``, try to parse ``op(Value : Condition)``.

        Returns an :class:`AggregateSpec` or ``None`` (with the token
        position restored) when the text is not an aggregate.
        """
        kinds = self._kinds
        saved = self._pos
        op = self._values[saved]
        if kinds[saved] != "IDENT" or op not in _AGG_OPS or kinds[saved + 1] != "(":
            return None
        self._pos = saved + 2
        try:
            value = self.parse_term()
            if kinds[self._pos] == ":":
                self._pos += 1
                condition = self.parse_term()
                self._close(")")
                return AggregateSpec(op, value, condition, result, span=span)
        except ParseError:
            pass
        self._pos = saved
        return None

    # -- rules, programs, queries ---------------------------------------------
    def parse_rule(self):
        """Parse one rule (without the trailing full stop)."""
        span = self._span(self._pos)
        head = self.parse_term()
        if self._kinds[self._pos] != ":-":
            return Rule(head, span=span)
        self._pos += 1
        body = []
        aggregates = []
        for item in self._body():
            if isinstance(item, AggregateSpec):
                aggregates.append(item)
            else:
                body.append(item)
        return Rule(head, tuple(body), tuple(aggregates), span=span)

    def parse_program(self):
        """Parse a whole program (a sequence of clauses terminated by '.')."""
        kinds = self._kinds
        rules = []
        while kinds[self._pos] != "EOF":
            rules.append(self.parse_rule())
            self._close(".")
        return Program(tuple(rules))

    def parse_query(self):
        """Parse a query: optional ``?-`` prefix, body, optional trailing '.'."""
        if self._kinds[0] == "?-":
            self._pos = 1
        items = self._body()
        self._end()
        for item in items:
            if isinstance(item, AggregateSpec):
                span = item.span
                raise ParseError(
                    "aggregates are not allowed in queries",
                    line=span.line, column=span.column,
                )
        return tuple(items)


def _parse(text, method):
    """Scan ``text`` and parse it with the :class:`_Parser` method."""
    parser = _Parser(text)
    try:
        return method(parser)
    except RecursionError:
        raise parser._error("nested too deeply",
                            parser._starts[parser._pos]) from None


def _term_text(parser):
    term = parser.parse_term()
    parser._end()
    return term


def _rule_text(parser):
    rule = parser.parse_rule()
    parser._end()
    return rule


def parse_term(text):
    """Parse a single HiLog term from ``text``."""
    return _parse(text, _term_text)


def parse_rule(text):
    """Parse a single HiLog rule from ``text`` (trailing '.' optional)."""
    return _parse(text, _rule_text)


def parse_program(text):
    """Parse a HiLog program (a sequence of '.'-terminated clauses)."""
    return _parse(text, _Parser.parse_program)


def parse_query(text):
    """Parse a query (with or without the leading ``?-``) into a tuple of literals."""
    return _parse(text, _Parser.parse_query)
