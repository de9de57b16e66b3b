"""Incremental deductive-database sessions over the semi-naive engine.

The paper's modularly stratified programs are exactly the class a
long-lived deductive database can serve: :class:`DatabaseSession`
materializes the perfect model once and then *maintains* it under fact
assertion and retraction — delete-rederive (DRed) per stratum,
stratum-local recomputation for aggregates — instead of recomputing from
scratch on every change (Gupta, Mumick & Subrahmanian, SIGMOD'93).  A
non-stratified program's well-founded model is maintained the same way,
its three-valued strata by the cone step, which re-alternates only the
atoms a write can reach.

Quickstart::

    from repro.db import DatabaseSession

    session = DatabaseSession('''
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
        e(a, b). e(b, c).
    ''')
    session.insert("e(c, d).")
    assert session.ask("tc(a, d)")
    session.retract("e(b, c).")
    assert not session.ask("tc(a, d)")
    print(session.query("tc(a, X)"))
"""

from repro.db.maintenance import (
    Delta,
    alternating_update,
    dred_update,
    recompute_stratum,
)
from repro.db.plans import (
    ALTERNATING,
    DRED,
    RECOMPUTE,
    MaintenancePlans,
)
from repro.db.session import (
    DatabaseSession,
    SessionError,
    SessionIntegrityError,
    Transaction,
    UpdateSummary,
    open_session,
)

__all__ = [
    "DatabaseSession",
    "Transaction",
    "UpdateSummary",
    "SessionError",
    "SessionIntegrityError",
    "open_session",
    "Delta",
    "MaintenancePlans",
    "alternating_update",
    "dred_update",
    "recompute_stratum",
    "ALTERNATING",
    "DRED",
    "RECOMPUTE",
]
