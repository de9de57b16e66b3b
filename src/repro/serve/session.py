"""Snapshot-isolated serving sessions: many readers, one writer.

A :class:`ServingSession` wraps a :class:`~repro.db.session.DatabaseSession`
for concurrent use.  The wrapped session stays single-threaded — exactly
one **writer thread**, owned by the serving session, ever touches it:

* callers *submit* inserts/retracts (:meth:`ServingSession.submit`); the
  ops land in a bounded queue and resolve a
  :class:`concurrent.futures.Future` when their batch has been applied;
* the writer drains the queue, **coalesces** consecutive queued ops into
  one merged batch (last operation per atom wins — one maintenance pass
  absorbs any number of queued updates), applies it, and publishes the
  result as a new immutable epoch through the
  :class:`~repro.serve.epochs.EpochManager`;
* readers open a :class:`ReaderSession` (:meth:`ServingSession.reader`),
  which pins the current epoch: every query inside the block is answered
  from that one published model, however many batches the writer applies
  meanwhile — snapshot isolation without blocking the writer, and without
  the writer blocking readers.

Backpressure is explicit: when the queue holds ``max_pending`` ops,
:meth:`submit` raises :class:`WriteQueueFull` (the HTTP front end maps it
to ``503`` + ``Retry-After``) instead of buffering unboundedly.

Threading contract:

* The wrapped session must not be updated behind the serving session's
  back — all writes go through :meth:`submit` (or its
  :meth:`insert`/:meth:`retract` conveniences).
* Readers (the HTTP server's event loop, callers' threads) parse their
  queries on their own threads: constants already in the model resolve
  to its canonical terms, and the terms a query builds are dropped with
  it, so an intern sweep reclaims them.  :meth:`collect` is routed
  through the writer queue, so a sweep never races a batch.
* Term eviction is safe under pinned readers: an epoch holds every atom
  it can answer, and a held term is never evicted
  (:func:`~repro.hilog.terms.collect_terms`).
"""

from __future__ import annotations

import threading
import weakref

from collections import deque
from concurrent.futures import Future
from typing import List, Tuple

from repro.db.reads import ModelReads
from repro.db.session import DatabaseSession, merge_ops
from repro.obs.metrics import COUNT_BUCKETS, get_registry
from repro.hilog.errors import HiLogError
from repro.hilog.terms import Term
from repro.serve.epochs import EpochManager


class ServeError(HiLogError):
    """Base class for serving-layer errors."""


class WriteQueueFull(ServeError):
    """The bounded write queue is at capacity — retry after a short delay
    (the HTTP front end surfaces :attr:`retry_after` as ``Retry-After``)."""

    def __init__(self, pending, retry_after=0.05):
        super().__init__(
            "write queue full (%d ops pending); retry in %.0f ms"
            % (pending, retry_after * 1000.0)
        )
        self.pending = pending
        self.retry_after = retry_after


class ServingClosed(ServeError):
    """The serving session has been closed; no further ops are accepted."""


class _Op:
    """One queued writer operation."""

    __slots__ = ("kind", "inserts", "retracts", "future")

    def __init__(self, kind, inserts=(), retracts=()):
        # "update" | "collect" | "barrier" | "stats" | "explain" |
        # "checkpoint" (explain ops carry their query atom in the
        # ``inserts`` slot).
        self.kind = kind
        self.inserts = inserts
        self.retracts = retracts
        self.future = Future()

    # A waiter may cancel the future (e.g. an HTTP request timing out while
    # its op is still queued); the op itself still runs — resolution just
    # has nobody listening, and must not blow up the writer thread.

    def resolve(self, result):
        if not self.future.cancelled():
            try:
                self.future.set_result(result)
            except Exception:
                pass

    def fail(self, error):
        if not self.future.cancelled():
            try:
                self.future.set_exception(error)
            except Exception:
                pass


class ReaderSession(ModelReads):
    """A pinned read view over one published epoch.

    Every read (:class:`~repro.db.reads.ModelReads`) answers from the
    epoch's immutable store — concurrent writer batches are invisible until
    a new reader is opened.  Usable as a context manager (the recommended
    form); :meth:`close` releases the pin explicitly otherwise.  Closing is
    idempotent; reading after close raises :class:`ServeError`.
    """

    __slots__ = ("_manager", "_epoch")

    def __init__(self, manager):
        self._manager = manager
        self._epoch = manager.acquire()

    @property
    def epoch(self):
        """The pinned :class:`~repro.serve.epochs.Epoch` (``None`` after
        close)."""
        return self._epoch

    def _model(self):
        epoch = self._epoch
        if epoch is None:
            raise ServeError("reader session is closed")
        return epoch.store, epoch.undefined

    def close(self):
        """Release the epoch pin (idempotent)."""
        epoch, self._epoch = self._epoch, None
        if epoch is not None:
            self._manager.release(epoch)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False


class ServingSession:
    """A concurrently served deductive database.

    Args:
        program: program text, a :class:`~repro.hilog.program.Program`, or
            an already-built :class:`~repro.db.session.DatabaseSession` to
            take ownership of (it must not be updated externally afterwards).
        max_pending: write-queue bound; :meth:`submit` raises
            :class:`WriteQueueFull` beyond it.
        max_batch: most queued ops coalesced into one maintenance pass.
        session_kwargs: forwarded to :class:`DatabaseSession` when
            ``program`` is not already a session.
    """

    def __init__(self, program, max_pending=1024, max_batch=64, **session_kwargs):
        # Every argument is validated before the session is built: a
        # durable session initialises its data directory, and a rejected
        # serving knob must not leave one behind.
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if isinstance(program, DatabaseSession):
            if session_kwargs:
                raise ValueError(
                    "session_kwargs are only valid when constructing the "
                    "session here, not when wrapping an existing one"
                )
            self._session = program
        else:
            self._session = DatabaseSession(program, **session_kwargs)
        self._max_pending = max_pending
        self._max_batch = max_batch
        self._manager = EpochManager(self._session.store.snapshot)
        self._publish_hooks = []
        self._counters = {
            "submitted": 0,
            "rejected": 0,
            "applied_ops": 0,
            "failed_ops": 0,
            "batches": 0,
            "collects": 0,
        }
        self._cond = threading.Condition()
        self._pending = deque()
        self._closing = False
        self._resume = threading.Event()
        self._resume.set()
        # The initial epoch reflects the freshly materialized model; from
        # here on every applied batch publishes a successor via the
        # session's update-listener hook.
        self._manager.publish_base(
            undefined=self._session.undefined, version=0,
        )
        self._session.add_update_listener(self._on_update)
        self._writer = threading.Thread(
            target=self._writer_loop, name="repro-serve-writer", daemon=True,
        )
        self._writer.start()
        self._register_gauges()

    def _register_gauges(self):
        """Point the process-wide serving gauges at this session.

        Callback gauges close over a weak reference, so the registry (a
        process-global) never keeps a closed serving session alive; a new
        session re-registers and simply repoints the callbacks."""
        ref = weakref.ref(self)
        registry = get_registry()

        def _pending():
            serving = ref()
            return serving.pending() if serving is not None else 0

        def _writer_alive():
            serving = ref()
            return 1 if serving is not None and serving.writer_alive else 0

        def _live_epochs():
            serving = ref()
            if serving is None:
                return 0
            return serving.epochs.stats().get("live_epochs", 0)

        registry.gauge(
            "repro_serve_pending_ops", "Write-queue depth",
            family="serve", callback=_pending,
        )
        registry.gauge(
            "repro_serve_writer_alive",
            "1 while the writer thread is running", family="serve",
            callback=_writer_alive,
        )
        registry.gauge(
            "repro_serve_live_epochs", "Epochs pinned by live readers",
            family="serve", callback=_live_epochs,
        )

    # -- write side ----------------------------------------------------------

    def submit(self, inserts=(), retracts=()):
        """Queue one update op; returns a :class:`~concurrent.futures.Future`
        resolving to the batch's :class:`~repro.db.session.UpdateSummary`
        (shared by every op coalesced into the same batch).  Facts are in
        any form :meth:`DatabaseSession.insert` accepts; parsing happens on
        the writer thread.  Raises :class:`WriteQueueFull` at capacity and
        :class:`ServingClosed` after :meth:`close`."""
        op = _Op("update", inserts, retracts)
        self._enqueue(op)
        return op.future

    def insert(self, facts, timeout=None):
        """Queue an insert and wait for its batch; returns the summary."""
        return self.submit(inserts=facts).result(timeout)

    def retract(self, facts, timeout=None):
        """Queue a retract and wait for its batch; returns the summary."""
        return self.submit(retracts=facts).result(timeout)

    def collect(self):
        """Queue an intern-table sweep (runs on the writer thread, so it
        never races a batch; live epochs hold their atoms throughout).
        Returns a future resolving to the collection stats dict."""
        op = _Op("collect")
        self._enqueue(op)
        return op.future

    def flush(self, timeout=None):
        """Barrier: wait until every op queued before this call has been
        applied (or failed).  Returns the barrier's epoch id."""
        op = _Op("barrier")
        self._enqueue(op)
        return op.future.result(timeout)

    def session_stats(self, timeout=None):
        """The wrapped session's :meth:`~DatabaseSession.stats`, computed
        on the writer thread (consistent — never mid-batch)."""
        op = _Op("stats")
        self._enqueue(op)
        return op.future.result(timeout)

    def checkpoint(self, timeout=None):
        """Write a durability snapshot (a control op on the writer thread,
        so it never races a maintenance batch).  The serialized model
        comes from a **pinned frozen epoch** — the same immutable view
        readers use — so checkpointing a large model never blocks
        concurrent readers.  Returns the snapshot path; raises
        :class:`~repro.db.session.SessionError` when the wrapped session
        has no data directory."""
        op = _Op("checkpoint")
        self._enqueue(op)
        return op.future.result(timeout)

    def submit_explain(self, fact):
        """Queue a derivation-provenance explain
        (:meth:`DatabaseSession.explain`) and return its future.  Explain
        reads the *writer's* live model (EDB membership and the undefined
        partition are not epoch state), so it runs as a control op on the
        writer thread — never racing a batch, exempt from the queue bound
        like the other control ops."""
        op = _Op("explain", inserts=fact)
        self._enqueue(op)
        return op.future

    def explain(self, fact, timeout=None):
        """Blocking :meth:`submit_explain`; returns the
        :class:`~repro.obs.explain.Derivation` tree."""
        return self.submit_explain(fact).result(timeout)

    def _enqueue(self, op):
        with self._cond:
            if self._closing:
                raise ServingClosed("serving session is closed")
            # Only update ops count against (and are rejected by) the
            # write-queue bound: barriers, collects and stats are control
            # ops — rejecting a flush because the queue it is meant to
            # drain is full would be self-defeating.
            if op.kind == "update" and len(self._pending) >= self._max_pending:
                self._counters["rejected"] += 1
                raise WriteQueueFull(len(self._pending))
            self._pending.append(op)
            self._counters["submitted"] += 1
            self._cond.notify()

    def pause(self):
        """Suspend the writer after its current batch (queued ops
        accumulate; at capacity :meth:`submit` raises
        :class:`WriteQueueFull`).  For tests and drain/maintenance windows."""
        self._resume.clear()

    def resume(self):
        """Resume a paused writer."""
        self._resume.set()

    # -- writer thread -------------------------------------------------------

    def _writer_loop(self):
        while True:
            self._resume.wait()
            with self._cond:
                while not self._pending and not self._closing:
                    self._cond.wait()
                if not self._pending and self._closing:
                    return
                # A submit may have woken us out of the cond wait while
                # paused — re-check before draining (close() sets the
                # resume event, so a paused shutdown still drains).
                if not self._resume.is_set():
                    continue
                batch = []
                while self._pending and len(batch) < self._max_batch:
                    batch.append(self._pending.popleft())
            self._run_batch(batch)

    def _run_batch(self, batch):
        """Apply one drained batch: consecutive update ops merge into one
        maintenance pass; collect/barrier/stats ops are sequence points."""
        updates = []
        for op in batch:
            if op.kind == "update":
                updates.append(op)
                continue
            self._apply_updates(updates)
            updates = []
            self._run_special(op)
        self._apply_updates(updates)

    def _apply_updates(self, ops: List[_Op]) -> None:
        # Coerce per op so one malformed payload fails its own future
        # without poisoning the ops batched alongside it.
        session: DatabaseSession = self._session
        staged: List[Tuple[str, Term]] = []
        live = []
        for op in ops:
            try:
                inserts = session.coerce(op.inserts)
                retracts = session.coerce(op.retracts)
            except BaseException as error:
                self._counters["failed_ops"] += 1
                op.fail(error)
                continue
            staged.extend(("insert", atom) for atom in inserts)
            staged.extend(("retract", atom) for atom in retracts)
            live.append(op)
        if not live:
            return
        try:
            result = session.update(*merge_ops(staged))
        except BaseException as error:
            self._counters["failed_ops"] += len(live)
            for op in live:
                op.fail(error)
            return
        self._counters["applied_ops"] += len(live)
        self._counters["batches"] += 1
        registry = get_registry()
        registry.counter(
            "repro_serve_batches", "Coalesced writer batches applied",
            family="serve",
        ).inc()
        registry.histogram(
            "repro_serve_batch_ops", "Submitted ops coalesced per batch",
            family="serve", buckets=COUNT_BUCKETS,
        ).observe(len(live))
        for op in live:
            op.resolve(result)

    def _run_special(self, op):
        try:
            if op.kind == "collect":
                result = self._session.collect()
                self._counters["collects"] += 1
            elif op.kind == "stats":
                result = self._session.stats()
            elif op.kind == "explain":
                result = self._session.explain(op.inserts)
            elif op.kind == "checkpoint":
                result = self._checkpoint_from_epoch()
            else:  # barrier
                current = self._manager.current
                result = current.eid if current is not None else None
        except BaseException as error:
            op.fail(error)
        else:
            op.resolve(result)

    def _checkpoint_from_epoch(self):
        """Serialize the durability snapshot from a pinned frozen epoch —
        the immutable view readers share — so a large checkpoint never
        holds up the read side."""
        with self.reader() as reader:
            epoch = reader.epoch
            return self._session.checkpoint(
                store=epoch.store, undefined=epoch.undefined)

    def _on_update(self, summary):
        """Session update listener — the epoch publication hook.  Runs on
        the writer thread, before any automatic intern sweep."""
        epoch = self._manager.publish_delta(
            summary.added, summary.removed,
            undefined=self._session.undefined,
            version=self._counters["batches"] + 1,
        )
        for hook in tuple(self._publish_hooks):
            hook(epoch, summary)

    def add_publish_hook(self, hook):
        """Register ``hook(epoch, summary)`` to run (on the writer thread)
        after each epoch publication — test oracles and replication feeds."""
        self._publish_hooks.append(hook)
        return hook

    # -- read side -----------------------------------------------------------

    def reader(self):
        """Open a :class:`ReaderSession` pinned to the current epoch."""
        return ReaderSession(self._manager)

    def query(self, query):
        """One-shot query against the current epoch (pin, query, release)."""
        with self.reader() as reader:
            return reader.query(query)

    def ask(self, atom):
        """One-shot truth check against the current epoch."""
        with self.reader() as reader:
            return reader.ask(atom)

    def value(self, atom):
        """One-shot three-valued verdict against the current epoch."""
        with self.reader() as reader:
            return reader.value(atom)

    # -- introspection / lifecycle -------------------------------------------

    @property
    def session(self):
        """The wrapped :class:`DatabaseSession` (writer-thread property —
        do not update it directly; reads may observe a mid-batch state)."""
        return self._session

    @property
    def epochs(self):
        """The :class:`~repro.serve.epochs.EpochManager`."""
        return self._manager

    def pending(self):
        """Current write-queue depth."""
        with self._cond:
            return len(self._pending)

    @property
    def writer_alive(self):
        """Whether the writer thread is still running.  ``False`` after a
        clean :meth:`close` — but also when the writer died unexpectedly,
        which is what the HTTP ``/healthz`` probe exists to catch."""
        return self._writer.is_alive()

    def stats(self):
        """Serving-layer statistics: queue/batch counters, epoch manager
        counters, and the current epoch's size.  Safe to call from any
        thread (touches only immutable epochs and lock-guarded counters);
        see :meth:`session_stats` for the wrapped session's own view."""
        with self._cond:
            info = dict(self._counters)
            info["pending"] = len(self._pending)
            info["max_pending"] = self._max_pending
            info["max_batch"] = self._max_batch
            info["closed"] = self._closing
        info["writer_alive"] = self.writer_alive
        info["epochs"] = self._manager.stats()
        current = self._manager.current
        info["facts"] = len(current) if current is not None else 0
        return info

    def close(self, timeout=None):
        """Stop accepting ops, drain the queue, stop the writer thread and
        retire every epoch.  Idempotent.  Ops still queued when the writer
        exits (only possible when ``timeout`` expires first) fail with
        :class:`ServingClosed`."""
        with self._cond:
            if self._closing:
                self._cond.notify_all()
            else:
                self._closing = True
                self._cond.notify_all()
        self._resume.set()
        self._writer.join(timeout)
        with self._cond:
            leftovers = list(self._pending)
            self._pending.clear()
        for op in leftovers:
            op.fail(ServingClosed("serving session closed before this op ran"))
        self._session.remove_update_listener(self._on_update)
        # A durable wrapped session gets its final checkpoint and a clean
        # WAL close; a no-op for plain in-memory sessions.
        self._session.close()
        self._manager.close()

    @property
    def closed(self):
        with self._cond:
            return self._closing

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False
