"""Concurrent query serving over maintained deductive-database sessions.

The paper's thesis is that modularly stratified programs admit *efficient
query answering*; :mod:`repro.db` delivers that for one caller.  This
package composes the repository's machinery — frozen
:class:`~repro.engine.seminaive.relation.RelationStore` snapshots under
frozen :class:`~repro.engine.seminaive.relation.Delta` layers and
incremental maintenance — into a many-readers/one-writer serving layer
with **snapshot isolation**:

* :class:`~repro.serve.session.ServingSession` wraps a
  :class:`~repro.db.session.DatabaseSession`; a single writer thread drains
  a bounded update queue, coalesces queued inserts/retracts into one
  maintenance pass per batch, and publishes each result as an immutable
  **epoch** (:mod:`repro.serve.epochs`).  A reader holds an epoch and
  sees that model — never a half-applied batch — while the writer keeps
  publishing.
* :mod:`repro.serve.server` exposes the session over an asyncio HTTP front
  end (query/ask/insert/retract/stats).  Reads are answered on the event
  loop from the current epoch, in the turn that parsed the request; writes
  wait for the writer thread under a per-request deadline (``504``), and
  backpressure is explicit (bounded write queue → 503 + ``Retry-After``).
* ``python -m repro.serve`` (:mod:`repro.serve.cli`) gives daemon
  ergonomics: ``serve`` / ``query`` / ``load`` / ``stats`` subcommands.

Quickstart::

    from repro.serve import ServingSession

    serving = ServingSession('''
        tc(X, Y) :- e(X, Y).
        tc(X, Y) :- e(X, Z), tc(Z, Y).
        e(a, b). e(b, c).
    ''')
    future = serving.submit(inserts=["e(c, d)."])   # queued for the writer
    future.result()                                  # wait for the batch
    with serving.reader() as reader:                 # one epoch
        print(reader.query("tc(a, X)"))
    serving.close()
"""

from repro.serve.epochs import Epoch, EpochManager
from repro.serve.session import (
    ServeError,
    ServingClosed,
    ServingSession,
    WriteQueueFull,
)

__all__ = [
    "Epoch",
    "EpochManager",
    "ServeError",
    "ServingClosed",
    "ServingSession",
    "WriteQueueFull",
]
