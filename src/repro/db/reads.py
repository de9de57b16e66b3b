"""The read surface over one ``(store, undefined)`` model."""

from __future__ import annotations

from typing import AbstractSet, Iterable, Tuple, Union

from repro.engine.seminaive.relation import RelationStore, StoreView, matching_facts
from repro.hilog.errors import GroundingError
from repro.hilog.parser import parse_query, parse_term
from repro.hilog.program import Literal
from repro.hilog.terms import Term


class ModelReads:
    """The read surface over one model, a ``(store, undefined)`` pair:
    text → term parsing, the groundness check, query normalisation and the
    true / undefined / false verdict.
    :class:`~repro.db.session.DatabaseSession` reads its live model through
    it, :class:`~repro.serve.epochs.Epoch` its own published snapshot."""

    __slots__ = ()

    def _model(self) -> Tuple[Union[RelationStore, StoreView], AbstractSet[Term]]:
        """The ``(store, undefined)`` pair to read."""
        raise NotImplementedError

    def _parsed(self, text, parse):
        if isinstance(text, str):
            return parse(text)
        return text

    def _ground_atom(self, atom: Union[Term, str], caller: str) -> Term:
        atom = self._parsed(atom, parse_term)
        if not atom.is_ground():
            raise GroundingError(
                "%s() needs a ground atom, got %r" % (caller, atom))
        return atom

    def __len__(self) -> int:
        return len(self._model()[0])

    def __contains__(self, atom: Term) -> bool:
        return atom in self._model()[0]

    def ask(self, atom: Union[Term, str]) -> bool:
        """Whether a ground atom is *true* in the model.  A well-founded
        model may be partial: an undefined atom answers ``False`` here (it
        is not certainly true) — use :meth:`value` for the three-valued
        verdict."""
        store, _undefined = self._model()
        return self._ground_atom(atom, "ask") in store

    def value(self, atom: Union[Term, str]) -> str:
        """The three-valued verdict for a ground atom: ``"true"``,
        ``"undefined"`` or ``"false"`` (closed world).  Only a well-founded
        model ever answers ``"undefined"``; the other modes' are total."""
        store, undefined = self._model()
        atom = self._ground_atom(atom, "value")
        if atom in store:
            return "true"
        if atom in undefined:
            return "undefined"
        return "false"

    def query(self, query: Union[str, Term, Iterable[Literal]]) -> Tuple[Term, ...]:
        """Answer a query against the model, straight from the store's
        indexes (:func:`repro.engine.seminaive.relation.matching_facts`): the
        store holds exactly the model's *true* atoms, so the evaluating
        paths' answer contract — the true ground instances of the first
        query atom — reduces to an indexed match, whatever the query's
        shape.  Undefined instances of a well-founded model are not
        certainly true and hence never answered — see :meth:`value`."""
        store, _undefined = self._model()
        query = self._parsed(query, parse_query)
        query = (Literal(query),) if isinstance(query, Term) else tuple(query)
        if not query:
            raise ValueError("empty query")
        return matching_facts(store, query[0].atom)

    def facts(self, name: Union[Term, str], arity: int) -> Tuple[Term, ...]:
        """The model's extension of one predicate indicator."""
        store, _undefined = self._model()
        return tuple(store.fetch(self._parsed(name, parse_term), arity, (), None))
