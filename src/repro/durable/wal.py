"""Append-only, CRC32-framed write-ahead log of EDB updates.

Every update batch a durable :class:`~repro.db.session.DatabaseSession`
applies is logged as one **transaction**: a ``begin`` frame, an optional
``ins``/``ret`` frame carrying the asserted/retracted facts in concrete
HiLog syntax, and a ``commit`` frame once the in-memory maintenance pass
succeeded (or an ``abort`` frame when it raised and rolled back).  The
serving writer's coalesced batches arrive here as single transactions,
so group commit falls out of the existing coalescing: one fsync covers
every op merged into the batch.

Frame format (little-endian)::

    +----------------+----------------+------------------+
    | crc32(payload) | len(payload)   | payload (JSON)   |
    |   4 bytes      |   4 bytes      |   len bytes      |
    +----------------+----------------+------------------+

Records are JSON objects: ``{"t": "begin", "x": txn}``,
``{"t": "ins"|"ret", "f": [fact_text, ...]}``, ``{"t": "commit"|"abort",
"x": txn}``.  Text payloads make the log greppable and keep replay on the
session's fact parser.

Durability policy (``fsync=``):

``"always"``
    fsync after every committed transaction — survives power loss at the
    cost of one fsync per batch.
``"batch"`` (default)
    fsync every :data:`SYNC_EVERY` committed transactions, on checkpoint
    and on close — bounded loss window, negligible steady-state overhead.
``"off"``
    never fsync (the OS flushes eventually) — for tests and bulk loads.

A crash can tear the final frame (partial ``write``) or leave a
transaction without its ``commit``.  Opening the log detects the torn
tail and **truncates at the first bad frame**; replay then applies
committed transactions only, so a dangling ``begin`` is ignored exactly
as if the batch had never run — which, observably, it hadn't.
"""

from __future__ import annotations

import json
import os
import struct

from time import perf_counter as _perf_counter
from zlib import crc32

from repro.durable.faults import fire
from repro.hilog.errors import CorruptWal
from repro.obs.metrics import get_registry

#: ``crc32(payload), len(payload)`` frame header.
_HEADER = struct.Struct("<II")

#: Committed transactions between two fsyncs under the ``"batch"`` policy.
SYNC_EVERY = 64

#: Refuse to believe a single frame beyond this (a corrupt length field
#: would otherwise make the scanner try to allocate gigabytes).
_MAX_FRAME = 1 << 28

WAL_NAME = "wal.log"


class CommittedBatch:
    """One committed WAL transaction, ready for replay."""

    __slots__ = ("txn", "inserts", "retracts")

    def __init__(self, txn, inserts, retracts):
        self.txn = txn
        self.inserts = inserts
        self.retracts = retracts

    def __repr__(self):
        return "CommittedBatch(txn=%d, +%d, -%d)" % (
            self.txn, len(self.inserts), len(self.retracts),
        )


def _frame(record):
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(crc32(payload) & 0xFFFFFFFF, len(payload)) + payload


def read_frames(path, strict=False):
    """Yield ``(offset, end, record)`` for every valid frame in ``path``.

    Stops at the first bad frame (short header, impossible length,
    truncated payload, CRC mismatch, undecodable JSON).  With
    ``strict=True`` the bad frame raises :class:`CorruptWal` instead of
    ending the iteration — that is the mode the corrupt-fixture tests and
    explicit integrity checks use; recovery itself is lenient because a
    torn tail is an expected crash artifact, not an error.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return
    offset, size = 0, len(data)
    while offset < size:
        if offset + _HEADER.size > size:
            if strict:
                raise CorruptWal(
                    "truncated frame header at byte %d" % offset,
                    path=path, offset=offset,
                )
            return
        crc, length = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        if length > _MAX_FRAME or start + length > size:
            if strict:
                raise CorruptWal(
                    "frame at byte %d claims %d payload bytes past the end"
                    % (offset, length), path=path, offset=offset,
                )
            return
        payload = data[start:start + length]
        if crc32(payload) & 0xFFFFFFFF != crc:
            if strict:
                raise CorruptWal(
                    "CRC mismatch at byte %d" % offset, path=path,
                    offset=offset,
                )
            return
        try:
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            if strict:
                raise CorruptWal(
                    "undecodable payload at byte %d" % offset, path=path,
                    offset=offset,
                )
            return
        yield offset, start + length, record
        offset = start + length


class WriteAheadLog:
    """The append side of one data directory's WAL.

    Opening scans the existing file: the torn tail (if any) is truncated
    at the first bad frame, committed transactions are collected into
    :attr:`committed` for the recovery replay, and transaction numbering
    continues past the highest id seen.  Exactly one live writer may hold
    the log — the data directory's lockfile (see
    :mod:`repro.durable.manager`) enforces that.
    """

    def __init__(self, path, fsync="batch"):
        if fsync not in ("always", "batch", "off"):
            raise ValueError(
                "fsync policy must be 'always', 'batch' or 'off', got %r"
                % (fsync,)
            )
        self.path = path
        self.policy = fsync
        #: Committed transactions found at open, oldest first (recovery
        #: replays the tail past the snapshot's txn, then drops the list).
        self.committed = []
        #: Bytes cut from the torn tail at open (0 for a clean log).
        self.truncated_bytes = 0
        self.last_txn = 0
        self._unsynced = 0
        self._fd = None

        end = self._scan()
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        size = os.fstat(self._fd).st_size
        if size > end:
            os.ftruncate(self._fd, end)
            self.truncated_bytes = size - end
        os.lseek(self._fd, 0, os.SEEK_END)

    def _scan(self):
        """Walk the existing frames; returns the end offset of the last
        valid frame (the truncation point for a torn tail)."""
        end = 0
        pending = {}
        current = None
        for _offset, frame_end, record in read_frames(self.path):
            kind = record.get("t")
            if kind == "begin":
                current = int(record.get("x", 0))
                self.last_txn = max(self.last_txn, current)
                pending[current] = ([], [])
            elif kind in ("ins", "ret"):
                ops = pending.get(current)
                if ops is not None:
                    ops[0 if kind == "ins" else 1].extend(record.get("f", ()))
            elif kind == "commit":
                txn = int(record.get("x", 0))
                ops = pending.pop(txn, None)
                if ops is not None:
                    self.committed.append(CommittedBatch(txn, ops[0], ops[1]))
            elif kind == "abort":
                pending.pop(int(record.get("x", 0)), None)
            end = frame_end
        return end

    @property
    def closed(self):
        return self._fd is None

    def _write(self, data):
        os.write(self._fd, data)

    def begin(self, insert_texts, retract_texts):
        """Append ``begin`` + op frames for one batch; returns the txn id.
        Called *before* the in-memory apply — :meth:`commit` or
        :meth:`abort` closes the transaction afterwards."""
        if self._fd is None:
            raise CorruptWal("write-ahead log is closed", path=self.path)
        self.last_txn += 1
        txn = self.last_txn
        buffer = _frame({"t": "begin", "x": txn})
        if insert_texts:
            buffer += _frame({"t": "ins", "f": list(insert_texts)})
        if retract_texts:
            buffer += _frame({"t": "ret", "f": list(retract_texts)})
        fire("wal.pre_append")
        self._write(buffer)
        fire("wal.post_append")
        get_registry().counter(
            "repro_wal_appended", "WAL records appended", family="durable",
        ).inc(1 + bool(insert_texts) + bool(retract_texts))
        return txn

    def commit(self, txn):
        """Append the ``commit`` frame and fsync per policy.  Once this
        returns, replay will reapply the batch after a crash."""
        self._write(_frame({"t": "commit", "x": txn}))
        get_registry().counter(
            "repro_wal_appended", "WAL records appended", family="durable",
        ).inc()
        self._unsynced += 1
        fire("wal.pre_fsync")
        if self.policy == "always" or (
            self.policy == "batch" and self._unsynced >= SYNC_EVERY
        ):
            self.sync()

    def abort(self, txn):
        """Append the ``abort`` frame (the in-memory apply failed and was
        rolled back; replay must skip the batch).  Never fsyncs — an
        aborted transaction is equally dead whether or not the abort frame
        survives."""
        if self._fd is None:
            return
        self._write(_frame({"t": "abort", "x": txn}))
        get_registry().counter(
            "repro_wal_appended", "WAL records appended", family="durable",
        ).inc()

    def sync(self):
        """fsync the log now (also the checkpoint/shutdown barrier)."""
        if self._fd is None or self.policy == "off":
            self._unsynced = 0
            return
        started = _perf_counter()
        os.fsync(self._fd)
        self._unsynced = 0
        get_registry().histogram(
            "repro_wal_fsync_seconds", "WAL fsync latency", family="durable",
        ).observe(_perf_counter() - started)

    def close(self):
        """Flush per policy and close the descriptor (idempotent)."""
        if self._fd is None:
            return
        if self.policy != "off":
            try:
                os.fsync(self._fd)
            except OSError:
                pass
        os.close(self._fd)
        self._fd = None

    def abandon(self):
        """Close the descriptor *without* syncing — the crash-simulation
        teardown used by the kill-and-recover tests."""
        if self._fd is None:
            return
        os.close(self._fd)
        self._fd = None
