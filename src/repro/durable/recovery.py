"""Crash recovery: newest valid snapshot + WAL-tail replay.

Recovery is redo-only and runs entirely through machinery that already
exists:

1. :func:`load_latest_state` walks the directory's snapshots newest
   first and returns the first one that validates, **falling back past
   corrupt ones** (each casualty is counted in
   ``repro_recovery_corrupt_snapshots`` and reported in the recovery
   details).  No valid snapshot at all degrades gracefully: the session
   rematerializes from the program file and replays the *whole* WAL.
2. Opening the WAL truncates any torn tail at the first bad frame
   (``repro_recovery_truncated_bytes``).
3. :func:`replay` feeds every committed WAL transaction newer than the
   snapshot through ``DatabaseSession.update`` — the same write path,
   hence the same maintenance, that produced the state in
   the first place, which is deterministic over an update stream, so the
   replayed model is the model (``repro_recovery_replayed_records``).

Uncommitted transactions (a ``begin`` whose ``commit`` never made it to
disk — the process died mid-apply or mid-append) are skipped: observably
the batch never happened, its caller was never acknowledged, and the
recovered state is exactly the pre-batch state.  `DatabaseSession.open`
drives these steps and accepts ``verify=True`` to finish with a full
:meth:`~repro.db.session.DatabaseSession.check` against a from-scratch
recomputation.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import TYPE_CHECKING, Sequence, Tuple

from repro.durable.faults import fire
from repro.durable.snapshot import list_snapshots, load_snapshot
from repro.hilog.errors import CorruptSnapshot
from repro.obs.metrics import get_registry

if TYPE_CHECKING:
    from repro.db.session import DatabaseSession


def load_latest_state(directory):
    """The newest snapshot that validates, or ``None``.

    Returns ``(state, corrupt)`` where ``corrupt`` lists a short
    description of every newer snapshot that failed validation and was
    skipped."""
    corrupt = []
    registry = get_registry()
    for _txn, path in list_snapshots(directory):
        try:
            return load_snapshot(path), corrupt
        except CorruptSnapshot as error:
            corrupt.append(str(error))
            registry.counter(
                "repro_recovery_corrupt_snapshots",
                "Snapshots skipped as corrupt during recovery",
                family="durable",
            ).inc()
    return None, corrupt


def replay(session: DatabaseSession, batches: Sequence) -> Tuple[int, int]:
    """Redo committed WAL ``batches`` (oldest first) through the
    session's own maintenance machinery.  Fires the
    ``recovery.mid_replay`` crash point between transactions; a crash
    there leaves a prefix applied in memory only — the next recovery
    simply replays the full tail again.  Returns ``(txns, facts)``
    replayed."""
    started = _perf_counter()
    for batch in batches:
        fire("recovery.mid_replay")
        session.update(batch.inserts, batch.retracts)
    txns = len(batches)
    facts = sum(len(batch.inserts) + len(batch.retracts) for batch in batches)
    registry = get_registry()
    registry.counter(
        "repro_recovery_replayed_records",
        "Committed WAL transactions replayed during recovery",
        family="durable",
    ).inc(txns)
    registry.histogram(
        "repro_recovery_seconds", "Recovery replay latency",
        family="durable",
    ).observe(_perf_counter() - started)
    return txns, facts
