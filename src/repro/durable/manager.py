"""Per-data-directory durability orchestration.

A :class:`DurabilityManager` owns one data directory on behalf of exactly
one :class:`~repro.db.session.DatabaseSession`:

* the **single-writer lockfile** (``lock``) — an OS-level ``flock`` held
  for the session's lifetime, so a second opener fails fast with
  :class:`~repro.hilog.errors.LockHeld` instead of interleaving WAL
  appends, and a killed process's lock evaporates with it (no stale-lock
  dance on restart);
* the **program file** (``program.hilog``) — the session's program text,
  written once at creation so :meth:`DatabaseSession.open` can rebuild
  the rules (and, when every snapshot is lost, the seed facts) without
  the caller re-supplying them;
* the **write-ahead log** (``wal.log``, :mod:`repro.durable.wal`);
* **snapshot checkpoints** (``snap-*.snap``, :mod:`repro.durable.snapshot`),
  written on demand, every ``checkpoint_every`` logged transactions, and
  at clean shutdown.

The manager is deliberately dumb about session semantics: the session
calls :meth:`log_begin` / :meth:`log_commit` / :meth:`log_abort` around
its own ``_apply``, and hands the manager fully-resolved state to
checkpoint.  Layout of a data directory::

    datadir/
        lock            single-writer flock target
        program.hilog   program text (rules + seed facts)
        wal.log         CRC32-framed write-ahead log
        snap-<txn>.snap newest-two snapshot checkpoints
"""

from __future__ import annotations

import os
import tempfile

from repro.durable import snapshot as snapshot_io
from repro.durable.wal import WAL_NAME, WriteAheadLog
from repro.hilog.errors import DurabilityError, LockHeld
from repro.hilog.pretty import format_term
from repro.obs.metrics import get_registry

try:
    import fcntl
except ImportError:  # non-POSIX fallback below
    fcntl = None

PROGRAM_NAME = "program.hilog"
LOCK_NAME = "lock"

#: Snapshots retained per directory: the newest, plus one fallback in
#: case the newest is torn by a crash mid-rename or corrupted on disk.
KEEP_SNAPSHOTS = 2


class DirectoryLock:
    """The data directory's single-writer lock.

    POSIX: a non-blocking ``flock`` on ``<dir>/lock`` — held until
    release, dropped automatically by the OS when the process dies, so a
    crashed writer never wedges the directory.  Without :mod:`fcntl`
    (Windows), falls back to a pidfile created whole by a hard link, with
    liveness probing (:meth:`_acquire_pidfile`).
    """

    def __init__(self, directory):
        self.path = os.path.join(directory, LOCK_NAME)
        self._handle = None
        if fcntl is not None:
            handle = open(self.path, "a+")
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                holder = self._read_holder(handle)
                handle.close()
                raise LockHeld(
                    "data directory %s is locked by a live session%s"
                    % (directory,
                       " (pid %s)" % holder if holder else ""),
                    path=self.path, holder=holder,
                )
            handle.seek(0)
            handle.truncate()
            handle.write("%d\n" % os.getpid())
            handle.flush()
            self._handle = handle
        else:
            self._acquire_pidfile(directory)

    @staticmethod
    def _read_holder(handle):
        try:
            handle.seek(0)
            return int(handle.read().strip() or 0) or None
        except (OSError, ValueError):
            return None

    def _acquire_pidfile(self, directory):
        """Take the lock as a pidfile: write the pid to a private temporary
        file, then hard-link it to the lock path, so the lock file appears
        with its pid in it and an existing one means the lock is taken.  A
        lock file whose holder is dead is reclaimed, and so is one without
        a pid: no writer ever leaves it mid-way, so it is a crash's
        debris."""
        fd, temporary = tempfile.mkstemp(prefix=LOCK_NAME + ".", dir=directory)
        try:
            try:
                os.write(fd, b"%d\n" % os.getpid())
            finally:
                os.close(fd)
            while True:
                try:
                    os.link(temporary, self.path)
                except FileExistsError:
                    holder = _recorded_pid(self.path)
                    if holder is not None and _pid_alive(holder):
                        raise LockHeld(
                            "data directory %s is locked (pid %s)"
                            % (directory, holder),
                            path=self.path, holder=holder,
                        )
                    try:
                        os.unlink(self.path)  # stale: dead holder, or debris
                    except FileNotFoundError:
                        pass  # another opener reclaimed it first
                    except OSError as error:
                        raise LockHeld(
                            "data directory %s is locked by a lock file that "
                            "cannot be reclaimed: %s" % (directory, error),
                            path=self.path, holder=holder,
                        )
                    continue
                self._handle = self.path
                return
        finally:
            os.unlink(temporary)

    def release(self):
        """Drop the lock (idempotent)."""
        handle, self._handle = self._handle, None
        if handle is None:
            return
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
            handle.close()
        else:
            try:
                os.unlink(handle)
            except OSError:
                pass


def _recorded_pid(path):
    """The pid a pidfile records, or ``None`` when it records none."""
    try:
        with open(path) as handle:
            return int(handle.read().strip() or 0) or None
    except (OSError, ValueError):
        return None


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass
    return True


def is_initialized(directory):
    """Whether ``directory`` holds a durable session's state."""
    return os.path.isfile(os.path.join(directory, PROGRAM_NAME))


class DurabilityManager:
    """WAL + snapshots + lockfile for one session's data directory."""

    def __init__(self, directory, fsync="batch", checkpoint_every=None):
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be None or positive")
        directory = os.path.abspath(os.path.expanduser(directory))
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.fsync_policy = fsync
        self.checkpoint_every = checkpoint_every
        self.wal = None
        #: True while recovery replays the WAL tail — the session's
        #: ``_apply`` must not re-log replayed batches.
        self.suspended = False
        self.records_since_checkpoint = 0
        #: Recovery provenance, surfaced through ``session.stats()``.
        self.recovery = {
            "snapshot_txn": None,
            "replayed_txns": 0,
            "replayed_facts": 0,
            "truncated_bytes": 0,
            "corrupt_snapshots": (),
        }
        self.closed = False
        self.lock = DirectoryLock(directory)

    # -- directory state -----------------------------------------------------

    def initialized(self):
        return is_initialized(self.directory)

    @property
    def program_path(self):
        return os.path.join(self.directory, PROGRAM_NAME)

    def write_program(self, text):
        """Persist the program text once, at directory creation, through
        the same atomic temp + fsync + rename discipline as snapshots."""
        tmp = self.program_path + ".tmp"
        with open(tmp, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.program_path)

    def read_program(self):
        try:
            with open(self.program_path, "r") as handle:
                return handle.read()
        except OSError as error:
            raise DurabilityError(
                "cannot read %s: %s" % (self.program_path, error)
            )

    # -- WAL -----------------------------------------------------------------

    def open_wal(self):
        """Open (and torn-tail-truncate) the WAL for appending; committed
        transactions found in the file stay on ``wal.committed`` for the
        recovery replay."""
        self.wal = WriteAheadLog(
            os.path.join(self.directory, WAL_NAME), fsync=self.fsync_policy
        )
        if self.wal.truncated_bytes:
            self.recovery["truncated_bytes"] = self.wal.truncated_bytes
            get_registry().counter(
                "repro_recovery_truncated_bytes",
                "Torn-tail bytes truncated from the WAL at open",
                family="durable",
            ).inc(self.wal.truncated_bytes)
        return self.wal

    @property
    def active(self):
        """Whether update batches should be logged right now."""
        return self.wal is not None and not self.wal.closed \
            and not self.suspended

    def log_begin(self, inserts, retracts):
        """Log a batch's ``begin`` + op frames (atoms rendered in concrete
        syntax); returns the WAL transaction id."""
        return self.wal.begin(
            [format_term(atom) for atom in inserts],
            [format_term(atom) for atom in retracts],
        )

    def log_commit(self, txn):
        self.wal.commit(txn)
        self.records_since_checkpoint += 1

    def log_abort(self, txn):
        self.wal.abort(txn)

    def should_checkpoint(self):
        return (
            self.checkpoint_every is not None
            and self.records_since_checkpoint >= self.checkpoint_every
        )

    # -- checkpoints ---------------------------------------------------------

    def checkpoint(self, *, rules_text, mode, edb, store, undefined):
        """Write a snapshot current through the WAL's last transaction,
        prune old snapshots, and fsync the WAL (a checkpoint is a
        durability barrier whatever the fsync policy)."""
        txn = self.wal.last_txn if self.wal is not None else 0
        path = snapshot_io.write_snapshot(
            self.directory, rules_text=rules_text, mode=mode, txn=txn,
            edb=edb, store=store, undefined=undefined,
        )
        snapshot_io.prune_snapshots(self.directory, keep=KEEP_SNAPSHOTS)
        if self.wal is not None and not self.wal.closed:
            self.wal.sync()
        self.records_since_checkpoint = 0
        return path

    def stats(self):
        info = {
            "directory": self.directory,
            "fsync": self.fsync_policy,
            "checkpoint_every": self.checkpoint_every,
            "records_since_checkpoint": self.records_since_checkpoint,
            "snapshots": len(snapshot_io.list_snapshots(self.directory)),
            "wal_last_txn": self.wal.last_txn if self.wal is not None else 0,
            "closed": self.closed,
        }
        info.update(self.recovery)
        return info

    # -- lifecycle -----------------------------------------------------------

    def close(self):
        """Clean shutdown: close the WAL (fsyncing per policy) and drop
        the lock.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        if self.wal is not None:
            self.wal.close()
        self.lock.release()

    def abandon(self):
        """Simulate a process kill: drop the descriptors without syncing
        and release the lock the way process death would.  The test hook
        behind the kill-and-recover suite."""
        if self.closed:
            return
        self.closed = True
        if self.wal is not None:
            self.wal.abandon()
        self.lock.release()
