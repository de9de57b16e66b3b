"""Property tests: intern-table eviction under random session churn.

A random interleaving of :class:`~repro.db.DatabaseSession` inserts,
retracts and intern collections over fresh and recurring constants must
keep three invariants simultaneously:

1. **correctness** — ``session.check()`` stays green (the maintained model
   equals the from-scratch recomputation) after the whole interleaving;
2. **boundedness** — after every collection, the number of *mortal* (born
   in a generation) interned terms exceeds the pre-session baseline by at
   most the total subterm volume of the session's live data (store + EDB),
   because every surviving mortal term this session caused must be pinned
   through it;
3. **identity** — every term reachable from the store (and the EDB) is
   still the canonical interned object: structurally rebuilding it from
   scratch returns the very same Python object (``is``).
"""

import gc

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import DatabaseSession
from repro.hilog.terms import (
    App,
    Num,
    Sym,
    Var,
    intern_generation,
    intern_generation_sizes,
    term_size,
)

#: A recursive closure over edges plus a non-recursive join stratum, so
#: churn exercises delete-rederive's propagation and its plain probes.
RULES = """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    hop2(X, Y) :- e(X, Z), e(Z, Y).
"""

#: A small pool of recurring endpoints plus a stream of fresh ones: fresh
#: constants are what leak without eviction, recurring ones are what must
#: keep a single canonical identity through it.
RECURRING = ("a", "b", "c")


def _ops():
    edge = st.tuples(
        st.one_of(st.sampled_from(RECURRING), st.integers(0, 30).map("f%d".__mod__)),
        st.one_of(st.sampled_from(RECURRING), st.integers(0, 30).map("f%d".__mod__)),
    )
    return st.lists(
        st.one_of(
            st.tuples(st.just("toggle"), edge),
            st.tuples(st.just("collect"), st.none()),
        ),
        min_size=1,
        max_size=30,
    )


def _rebuild(term):
    """Structurally rebuild a term through the public constructors."""
    if type(term) is App:
        return App(_rebuild(term.name), tuple(_rebuild(arg) for arg in term.args))
    if type(term) is Num:
        return Num(term.value)
    if type(term) is Var:
        return Var(term.name)
    return Sym(term.name)


def _mortal_count():
    sizes = intern_generation_sizes()
    return sum(count for gen, count in sizes.items() if gen != 0)


def _live_volume(session):
    return sum(term_size(atom) for atom in session.store) + sum(
        term_size(atom) for atom in session.edb()
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations=_ops())
def test_random_churn_keeps_model_bounds_and_identity(operations):
    gc.collect()  # release zombie sessions so their pins stop counting
    session = DatabaseSession(RULES)
    assert session.mode == "incremental"
    session.collect()
    # Mortal terms pinned by *others* (earlier tests' leftovers); this
    # session's own contribution is bounded by its live data volume.
    baseline = _mortal_count()
    for action, payload in operations:
        if action == "toggle":
            fact = "e(%s, %s)." % payload
            with intern_generation():
                atoms = session.coerce(fact)
            if atoms[0] in session.edb():
                session.retract(fact)
            else:
                session.insert(fact)
        else:
            session.collect()
            # Boundedness: every surviving mortal term this session keeps
            # alive is pinned through its store/EDB, so the population
            # cannot exceed the baseline plus the live subterm volume.
            assert _mortal_count() <= baseline + _live_volume(session)
            # Identity: everything reachable from the store/EDB is still
            # the canonical interned object.
            for atom in session.store:
                assert _rebuild(atom) is atom
            for atom in session.edb():
                assert _rebuild(atom) is atom
    session.check()
    session.collect()
    assert _mortal_count() <= baseline + _live_volume(session)
    for atom in session.store:
        assert _rebuild(atom) is atom


def test_failed_session_construction_does_not_poison_collection():
    """Regression: a session whose materialization raises (resource cap)
    must not leave a half-built pin provider behind — a later collection
    would crash on its ``None`` store while the exception traceback keeps
    the object alive."""
    from repro.hilog.errors import HiLogError
    from repro.hilog.terms import collect_generation

    lines = ["tc(X, Y) :- e(X, Y).", "tc(X, Y) :- e(X, Z), tc(Z, Y)."]
    lines.extend("e(m%d, m%d)." % (i, i + 1) for i in range(10))
    try:
        DatabaseSession("\n".join(lines), max_facts=5)
    except HiLogError:
        collect_generation()  # must not raise AttributeError
    else:
        raise AssertionError("expected the fact cap to trip")


def test_auto_collect_pins_the_pending_update_summary():
    """Regression: with ``intern_gc=1`` the automatic sweep runs before the
    update's summary reaches the caller — the summary's removed atoms (no
    longer in the store) must be pinned through that sweep, or the caller
    receives stale twins that compare unequal to freshly parsed atoms."""
    session = DatabaseSession("p(X) :- e(X).", intern_gc=1)
    session.insert("e(k1).")
    summary = session.retract("e(k1).")
    assert summary.retracted == 1
    for atom in summary.removed + summary.added:
        assert _rebuild(atom) is atom


def test_session_pin_retains_held_atoms_across_auto_collect():
    """Atoms held from an *earlier* summary survive later automatic sweeps
    when pinned through :meth:`DatabaseSession.pin`, and become
    reclaimable again after :meth:`unpin`."""
    session = DatabaseSession("p(X) :- e(X).", intern_gc=1)
    session.insert("e(c1).")
    held = session.retract("e(c1).").removed
    session.pin(held)
    session.insert("e(zzz).")  # auto-sweep; held atoms stay canonical
    session.insert("e(c1).")
    assert all(_rebuild(atom) is atom for atom in held)
    assert any(session.ask(atom) for atom in held)  # e(c1) true again
    session.unpin()
    session.retract("e(c1).")
    session.retract("e(zzz).")
    session.collect()
    session.check()


@settings(max_examples=15, deadline=None)
@given(cycles=st.integers(min_value=1, max_value=40))
def test_full_churn_returns_to_baseline(cycles):
    """Insert-then-retract of entirely fresh constants, collected at the
    end, leaves no trace beyond the relation indicators: intern sizes do
    not grow with the cycle count."""
    gc.collect()
    session = DatabaseSession(RULES)
    session.collect()
    baseline = _mortal_count()
    for index in range(cycles):
        session.insert("e(g%d, g%d)." % (index, index + 1))
    for index in range(cycles):
        session.retract("e(g%d, g%d)." % (index, index + 1))
    session.collect()
    # Everything churned was retracted: the mortal population is back to
    # (at most) the baseline — no dependence on ``cycles``.
    assert _mortal_count() <= baseline + len(RECURRING)
    session.check()
