"""Incremental deductive-database sessions.

A DatabaseSession materializes the perfect model of a HiLog program once
and then maintains it under fact insertion/retraction — delete-rederive,
one stratum per strongly connected component — instead of recomputing from
scratch on every change.

Run with::

    PYTHONPATH=src python examples/incremental_session.py
"""

from repro import DatabaseSession

session = DatabaseSession("""
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    reachable(Y) :- tc(root, Y).
    orphan(X) :- node(X), not reachable(X), X \\= root.
    node(root). node(a). node(b). node(c).
    e(root, a). e(a, b).
""")

print("mode:", session.mode, " strategies:", session.strategies())
print("orphans initially:", session.query("orphan(X)"))

summary = session.insert("e(b, c).")
print("insert e(b, c):", len(summary.added), "atoms became true")
print("orphans now:", session.query("orphan(X)"))

with session.transaction() as txn:   # batched; atomic; rolls back on error
    txn.retract("e(a, b).")
    txn.insert("e(root, c).")
print("after rewiring, reachable:", session.query("reachable(X)"))
print("orphans:", session.query("orphan(X)"))

session.check()   # maintained model == from-scratch recomputation
print("integrity check passed;", session.stats()["updates"], "updates applied")
