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
3. :func:`replay` folds every committed WAL transaction newer than the
   snapshot into one last-operation-wins batch and applies it with one
   ``DatabaseSession.update`` (``repro_recovery_replayed_records`` still
   counts the transactions).  A program has one model per EDB, so the
   model after the tail is that of the EDB the tail leaves behind, which
   the net batch reaches in one maintenance pass.

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
from typing import Sequence, Tuple

from repro.db.session import DatabaseSession, merge_ops
from repro.durable.faults import fire
from repro.durable.snapshot import list_snapshots, load_snapshot
from repro.hilog.errors import CorruptSnapshot
from repro.obs.metrics import get_registry


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
    """Redo committed WAL ``batches`` (oldest first) as one batch: each
    atom, parsed by ``session.coerce``, keeps the last operation the tail
    logged for it (:func:`~repro.db.session.merge_ops`), and the net batch
    goes through ``session.update`` once.  Every batch applied when it was
    logged, and the apply skips inserts of present atoms and retracts of
    absent ones, so the net batch leaves the EDB, hence the model, the
    tail left.  Fires the ``recovery.mid_replay`` crash point per batch
    while folding; a crash there leaves nothing applied, and the next
    recovery replays the whole tail again.  Returns ``(txns, facts)``
    replayed."""
    started = _perf_counter()
    ops = []
    for batch in batches:
        fire("recovery.mid_replay")
        ops.extend(("insert", atom) for atom in session.coerce(batch.inserts))
        ops.extend(("retract", atom) for atom in session.coerce(batch.retracts))
    if ops:
        session.update(*merge_ops(ops))
    get_registry().counter(
        "repro_recovery_replayed_records",
        "Committed WAL transactions replayed during recovery",
        family="durable",
    ).inc(len(batches))
    get_registry().histogram(
        "repro_recovery_seconds", "Recovery replay latency",
        family="durable",
    ).observe(_perf_counter() - started)
    return len(batches), len(ops)
