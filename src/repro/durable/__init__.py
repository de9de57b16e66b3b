"""Durability: write-ahead logging, snapshot checkpoints, crash recovery.

The subsystem behind ``DatabaseSession(path=...)`` and
``DatabaseSession.open(path)``:

* :mod:`repro.durable.wal` — append-only CRC32-framed log of update
  batches with begin/commit/abort transaction boundaries, configurable
  fsync policy, and torn-tail truncation on open;
* :mod:`repro.durable.snapshot` — atomic (temp + fsync + rename)
  checkpoints of the materialized model, undefined partition and WAL
  position;
* :mod:`repro.durable.recovery` — newest-valid-snapshot selection (with
  fallback past corrupt ones) and WAL-tail replay through the session's
  incremental maintenance;
* :mod:`repro.durable.manager` — the per-directory orchestrator: the
  single-writer lockfile, the program file, checkpoint scheduling;
* :mod:`repro.durable.faults` — the crash-point injection registry
  driving the kill-and-recover property tests and the CI crash matrix.

See the README's "Durability" section for the file formats and the
fsync-policy trade-offs.
"""

from repro.durable.faults import FAULT_POINTS, CrashPoint, arm, crash_at, disarm, fire
from repro.durable.manager import DirectoryLock, DurabilityManager, is_initialized
from repro.durable.recovery import load_latest_state, replay
from repro.durable.snapshot import (
    SnapshotState,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    write_snapshot,
)
from repro.durable.wal import CommittedBatch, WriteAheadLog, read_frames

__all__ = [
    "FAULT_POINTS",
    "CrashPoint",
    "arm",
    "crash_at",
    "disarm",
    "fire",
    "DirectoryLock",
    "DurabilityManager",
    "is_initialized",
    "load_latest_state",
    "replay",
    "SnapshotState",
    "list_snapshots",
    "load_snapshot",
    "prune_snapshots",
    "write_snapshot",
    "CommittedBatch",
    "WriteAheadLog",
    "read_frames",
]
