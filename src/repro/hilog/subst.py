"""Substitutions over HiLog terms.

A substitution maps variables to terms.  It is represented immutably (a thin
wrapper around a dict) so substitutions can be shared between choice points
in the unification and grounding code without defensive copying.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional

from repro.hilog.terms import App, Term, Var


class Substitution:
    """An immutable mapping from :class:`Var` to :class:`Term`.

    ``apply`` walks bindings transitively, so a triangular substitution such
    as ``{X: Y, Y: a}`` applies to ``X`` as ``a``.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings=None):
        if bindings is None:
            bindings = {}
        clean = {}
        for variable, value in dict(bindings).items():
            if not isinstance(variable, Var):
                raise TypeError("substitution keys must be Var, got %r" % (variable,))
            if not isinstance(value, Term):
                raise TypeError("substitution values must be Term, got %r" % (value,))
            if value is not variable:
                clean[variable] = value
        self._bindings = clean

    @classmethod
    def _trusted(cls, bindings):
        """Wrap an already-validated ``{Var: Term}`` dict without copying.

        Internal fast path for the matching/joining hot loops (the dict must
        not be mutated afterwards and must not bind a variable to itself).
        """
        subst = cls.__new__(cls)
        subst._bindings = bindings
        return subst

    # -- mapping protocol ---------------------------------------------------
    def __contains__(self, variable):
        return variable in self._bindings

    def __getitem__(self, variable):
        return self._bindings[variable]

    def get(self, variable, default=None):
        return self._bindings.get(variable, default)

    def __len__(self):
        return len(self._bindings)

    def __iter__(self):
        return iter(self._bindings)

    def items(self):
        return self._bindings.items()

    def keys(self):
        return self._bindings.keys()

    def values(self):
        return self._bindings.values()

    def __eq__(self, other):
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self):
        return hash(frozenset(self._bindings.items()))

    def __repr__(self):
        pairs = ", ".join("%s/%r" % (variable.name, value) for variable, value in sorted(
            self._bindings.items(), key=lambda item: item[0].name))
        return "{%s}" % pairs

    def is_empty(self):
        """Return ``True`` when the substitution binds no variables."""
        return not self._bindings

    # -- application --------------------------------------------------------
    def resolve(self, variable):
        """Follow bindings starting at ``variable`` until a non-variable term
        or an unbound variable is reached."""
        seen = set()
        current = variable
        while isinstance(current, Var) and current in self._bindings:
            if current in seen:
                break
            seen.add(current)
            current = self._bindings[current]
        return current

    def _deref(self, term):
        """Follow variable bindings without allocating a seen-set; bounded by
        the binding count so accidental cycles terminate (like ``resolve``)."""
        bindings = self._bindings
        hops = len(bindings)
        while type(term) is Var:
            value = bindings.get(term)
            if value is None or hops < 0:
                break
            term = value
            hops -= 1
        return term

    def apply(self, term):
        """Apply the substitution to ``term``, producing a new term.

        Implemented with an explicit stack (no recursion) so the deeply
        nested terms of non-strongly-range-restricted programs — which the
        ``terms.py`` traversals already handle iteratively — cannot hit
        Python's recursion limit here either.  Ground subterms are returned
        as-is via the cached groundness bit, without being traversed.
        """
        bindings = self._bindings
        if not bindings or term.is_ground():
            return term
        term = self._deref(term)
        if type(term) is not App:
            return term
        if term.is_ground():
            return term
        # Post-order rebuild: VISIT pushes children, BUILD pops their results.
        out = []
        work = [(term, False)]
        while work:
            node, build = work.pop()
            if build:
                count = len(node.args)
                name = out.pop()
                args = tuple(out.pop() for _ in range(count))
                if name is node.name and args == node.args:
                    out.append(node)
                else:
                    out.append(App(name, args))
                continue
            if type(node) is Var:
                node = self._deref(node)
            if type(node) is App and not node.is_ground():
                work.append((node, True))
                work.append((node.name, False))
                for arg in node.args:
                    work.append((arg, False))
            else:
                out.append(node)
        return out[0]

    # -- construction -------------------------------------------------------
    def bind(self, variable, value):
        """Return a new substitution extending this one with ``variable -> value``."""
        new_bindings = dict(self._bindings)
        new_bindings[variable] = value
        return Substitution(new_bindings)

    def compose(self, other):
        """Return the composition ``self ∘ other``.

        Applying the result is equivalent to applying ``self`` first and then
        ``other``:  ``(self.compose(other)).apply(t) == other.apply(self.apply(t))``.
        """
        new_bindings = {}
        for variable, value in self._bindings.items():
            new_bindings[variable] = other.apply(value)
        for variable, value in other.items():
            if variable not in new_bindings:
                new_bindings[variable] = value
        return Substitution(new_bindings)

    def restrict(self, variables):
        """Return the restriction of the substitution to ``variables``."""
        keep = set(variables)
        return Substitution({v: t for v, t in self._bindings.items() if v in keep})

    def as_dict(self):
        """Return a plain ``dict`` copy of the bindings."""
        return dict(self._bindings)


def empty_substitution():
    """Return the empty substitution."""
    return Substitution()


def compose(first, second):
    """Module-level alias for :meth:`Substitution.compose`."""
    return first.compose(second)
