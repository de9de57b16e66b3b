"""Diagnostic codes, records and renderers for the HiLog linter.

Every finding the linter can produce has a *stable* code (``E...`` for
errors, ``W...`` for warnings — see :data:`CODES`), so CI gates and
``--select``/``--ignore`` filters keep working as messages are reworded.
A :class:`Diagnostic` is one finding; a :class:`Diagnostics` is the report
for one lint run, renderable as human text (:meth:`Diagnostics.to_text`)
or as a JSON document (:meth:`Diagnostics.to_json`) matching
:data:`REPORT_SCHEMA`.

Severity semantics mirror the engine's: an **error** means some evaluation
path will reject the program (unsafe rules, recursion through aggregation,
floundering plans), a **warning** means the program evaluates but is
suspicious (negation cycles the well-founded mode resolves, dead
predicates, duplicate or subsumed rules, hygiene issues, cross-product
joins).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.hilog.program import Span

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


class Code(NamedTuple):
    """A registered diagnostic code."""

    code: str
    slug: str
    severity: str
    summary: str


#: The stable code registry.  Codes are append-only: never renumber.
CODES = {
    c.code: c
    for c in (
        Code("E001", "syntax-error", SEVERITY_ERROR,
             "the source text does not parse"),
        Code("E101", "unsafe-rule", SEVERITY_ERROR,
             "a head argument variable is not bound by any positive body "
             "argument (Definition 5.5, condition 1)"),
        Code("E102", "unsafe-negation", SEVERITY_ERROR,
             "a negated literal uses a variable bound neither by positive "
             "body arguments nor by the head name (Definition 5.5, "
             "condition 2)"),
        Code("E103", "unbound-predicate-name", SEVERITY_ERROR,
             "no ordering of the positive body literals binds a predicate-"
             "name variable before its literal runs (Definition 5.5, "
             "condition 3)"),
        Code("E104", "aggregate-recursion", SEVERITY_ERROR,
             "recursion through aggregation; no evaluation mode supports "
             "three-valued aggregation"),
        Code("E105", "nonground-fact", SEVERITY_ERROR,
             "a fact contains variables, so it denotes no finite set of "
             "ground facts"),
        Code("E106", "no-safe-plan", SEVERITY_ERROR,
             "the join planner cannot order the rule body without "
             "floundering"),
        Code("E107", "nonground-aggregate-name", SEVERITY_ERROR,
             "an aggregate condition's predicate name is not ground"),
        Code("W201", "singleton-var", SEVERITY_WARNING,
             "a named variable occurs exactly once in the rule (use _ or "
             "an _-prefixed name if intentional)"),
        Code("W301", "duplicate-rule", SEVERITY_WARNING,
             "the rule is alpha-equivalent to an earlier rule"),
        Code("W302", "subsumed-rule", SEVERITY_WARNING,
             "the rule is subsumed by a more general rule, so it derives "
             "nothing new"),
        Code("W303", "arity-mismatch", SEVERITY_WARNING,
             "a predicate symbol is used with more than one arity"),
        Code("W401", "undefined-predicate", SEVERITY_WARNING,
             "a body literal refers to a predicate with no rules and no "
             "facts"),
        Code("W402", "unused-edb-relation", SEVERITY_WARNING,
             "a fact-only relation is never referenced by any rule"),
        Code("W403", "underivable-idb", SEVERITY_WARNING,
             "every rule defining the predicate depends on an undefined "
             "predicate, so it can never derive a fact"),
        Code("W501", "negation-cycle", SEVERITY_WARNING,
             "recursion through negation; perfect-model evaluation rejects "
             "this, well-founded mode handles it"),
        Code("W502", "cross-product-join", SEVERITY_WARNING,
             "a body literal shares no bound variable with the literals "
             "joined before it, forcing a cross product"),
        Code("W503", "aggregate-cycle", SEVERITY_WARNING,
             "recursion through aggregation at the predicate level; "
             "evaluation succeeds only if the data keeps the ground "
             "instance acyclic (modular stratification, Theorem 6.1)"),
        Code("W504", "unbound-name-variable", SEVERITY_WARNING,
             "a predicate-name variable beside negation or aggregation is "
             "bound by no positive ground-named literal, so the engine "
             "cannot specialise the rule and the session falls back to "
             "Figure-1 grounding"),
    )
}

#: The JSON document shape emitted by ``Diagnostics.to_json`` /
#: ``python -m repro.lint --format json``, checked by
#: :func:`validate_report`.  (Described as a JSON-Schema-like dict purely
#: for documentation; validation is hand-rolled to avoid a dependency.)
REPORT_SCHEMA = {
    "type": "object",
    "required": ["version", "errors", "warnings", "diagnostics"],
    "properties": {
        "version": {"const": 1},
        "errors": {"type": "integer", "minimum": 0},
        "warnings": {"type": "integer", "minimum": 0},
        "diagnostics": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["code", "slug", "severity", "message"],
                "properties": {
                    "code": {"type": "string", "pattern": "^[EW][0-9]{3}$"},
                    "slug": {"type": "string"},
                    "severity": {"enum": ["error", "warning"]},
                    "message": {"type": "string"},
                    "file": {"type": ["string", "null"]},
                    "line": {"type": ["integer", "null"]},
                    "column": {"type": ["integer", "null"]},
                    "rule": {"type": ["string", "null"]},
                    "hint": {"type": ["string", "null"]},
                },
            },
        },
    },
}


def validate_report(report):
    """Check a JSON report against :data:`REPORT_SCHEMA`.

    Raises :class:`ValueError` naming the first offending field; returns
    the report unchanged when valid.  Hand-rolled so the library needs no
    jsonschema dependency; the schema dict above is the documentation.
    """
    if not isinstance(report, dict):
        raise ValueError("report must be an object, got %r" % type(report).__name__)
    for key in ("version", "errors", "warnings", "diagnostics"):
        if key not in report:
            raise ValueError("report is missing %r" % key)
    if report["version"] != 1:
        raise ValueError("report version must be 1, got %r" % (report["version"],))
    for key in ("errors", "warnings"):
        if not isinstance(report[key], int) or report[key] < 0:
            raise ValueError("report[%r] must be a non-negative integer" % key)
    if not isinstance(report["diagnostics"], list):
        raise ValueError("report['diagnostics'] must be an array")
    errors = warnings = 0
    for index, item in enumerate(report["diagnostics"]):
        where = "diagnostics[%d]" % index
        if not isinstance(item, dict):
            raise ValueError("%s must be an object" % where)
        for key in ("code", "slug", "severity", "message"):
            if not isinstance(item.get(key), str):
                raise ValueError("%s[%r] must be a string" % (where, key))
        code = item["code"]
        if code not in CODES:
            raise ValueError("%s has unknown code %r" % (where, code))
        if item["severity"] not in (SEVERITY_ERROR, SEVERITY_WARNING):
            raise ValueError("%s has bad severity %r" % (where, item["severity"]))
        if item["severity"] != CODES[code].severity:
            raise ValueError(
                "%s severity %r does not match code %s"
                % (where, item["severity"], code)
            )
        if item["slug"] != CODES[code].slug:
            raise ValueError("%s slug %r does not match code %s" % (where, item["slug"], code))
        for key in ("line", "column"):
            value = item.get(key)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ValueError("%s[%r] must be a positive integer or null" % (where, key))
        for key in ("file", "rule", "hint"):
            value = item.get(key)
            if value is not None and not isinstance(value, str):
                raise ValueError("%s[%r] must be a string or null" % (where, key))
        if item["severity"] == SEVERITY_ERROR:
            errors += 1
        else:
            warnings += 1
    if report["errors"] != errors:
        raise ValueError(
            "report['errors'] is %d but %d error diagnostics are listed"
            % (report["errors"], errors)
        )
    if report["warnings"] != warnings:
        raise ValueError(
            "report['warnings'] is %d but %d warning diagnostics are listed"
            % (report["warnings"], warnings)
        )
    return report


class Diagnostic(NamedTuple):
    """One linter finding."""

    code: str
    severity: str
    message: str
    span: Optional[Span] = None
    file: Optional[str] = None
    rule: Optional[str] = None
    hint: Optional[str] = None

    @property
    def slug(self):
        return CODES[self.code].slug

    def location(self):
        """``file:line:col`` (with ``<program>`` standing in for no file)."""
        name = self.file if self.file is not None else "<program>"
        if self.span is not None:
            return "%s:%s" % (name, self.span)
        return name

    def to_text(self):
        parts = ["%s: %s %s [%s]" % (self.location(), self.code, self.message, self.slug)]
        if self.rule:
            parts.append("    rule: %s" % self.rule)
        if self.hint:
            parts.append("    hint: %s" % self.hint)
        return "\n".join(parts)

    def to_json(self):
        return {
            "code": self.code,
            "slug": self.slug,
            "severity": self.severity,
            "message": self.message,
            "file": self.file,
            "line": self.span.line if self.span is not None else None,
            "column": self.span.column if self.span is not None else None,
            "rule": self.rule,
            "hint": self.hint,
        }


def make_diagnostic(code, message, span=None, file=None, rule=None, hint=None):
    """Build a :class:`Diagnostic`, deriving the severity from the code."""
    return Diagnostic(code, CODES[code].severity, message, span, file, rule, hint)


class Diagnostics:
    """The report of one lint run: an ordered collection of findings.

    Iterable (in source order: by span, errors and warnings interleaved),
    truthy when non-empty, with :attr:`errors`/:attr:`warnings` splits and
    the two renderers.
    """

    __slots__ = ("_items", "file")

    def __init__(self, diagnostics=(), file=None):
        items = list(diagnostics)
        items.sort(key=lambda d: (
            d.file or "",
            d.span.line if d.span is not None else 0,
            d.span.column if d.span is not None else 0,
            d.code,
        ))
        self._items = tuple(items)
        self.file = file

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __bool__(self):
        return bool(self._items)

    def __repr__(self):
        return "<Diagnostics: %d error(s), %d warning(s)>" % (
            len(self.errors),
            len(self.warnings),
        )

    @property
    def errors(self):
        return tuple(d for d in self._items if d.severity == SEVERITY_ERROR)

    @property
    def warnings(self):
        return tuple(d for d in self._items if d.severity == SEVERITY_WARNING)

    def has_errors(self):
        return any(d.severity == SEVERITY_ERROR for d in self._items)

    def __add__(self, other):
        return Diagnostics(tuple(self) + tuple(other), file=self.file)

    def filter(self, select=None, ignore=None):
        """A new report keeping codes in ``select`` (all when ``None``) and
        dropping codes in ``ignore``."""
        select_set = _expand_codes(select) if select is not None else None
        ignore_set = _expand_codes(ignore) if ignore is not None else frozenset()
        kept = [
            d for d in self._items
            if (select_set is None or d.code in select_set) and d.code not in ignore_set
        ]
        return Diagnostics(kept, file=self.file)

    def to_text(self):
        if not self._items:
            return "no issues found"
        lines = [d.to_text() for d in self._items]
        lines.append(
            "%d error(s), %d warning(s)" % (len(self.errors), len(self.warnings))
        )
        return "\n".join(lines)

    def to_json(self):
        return {
            "version": 1,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_json() for d in self._items],
        }


def _expand_codes(codes):
    """Expand a code filter: exact codes, slugs, or prefixes (``E``, ``W3``)."""
    expanded = set()
    for entry in codes:
        entry = entry.strip()
        if not entry:
            continue
        if entry in CODES:
            expanded.add(entry)
            continue
        by_slug = [c.code for c in CODES.values() if c.slug == entry]
        if by_slug:
            expanded.update(by_slug)
            continue
        by_prefix = [code for code in CODES if code.startswith(entry)]
        if not by_prefix:
            raise ValueError("unknown diagnostic code or prefix %r" % entry)
        expanded.update(by_prefix)
    return frozenset(expanded)
