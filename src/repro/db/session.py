"""Stateful deductive-database sessions.

A :class:`DatabaseSession` holds a HiLog program (its rules), an
extensional database of asserted facts, and the program's model over that
EDB in one :class:`~repro.engine.seminaive.relation.RelationStore` — the
same object for the session's whole life.  Three ideas carry the module:

**A mode is an evaluator.**  The paper gives each program class exactly
one model, so a session mode is nothing more than *which function maps the
EDB to* ``(true atoms, undefined atoms)`` — and to the per-stratum
maintenance plans that let a write patch that model.
:func:`repro.db.modes.choose_mode` picks it once, at construction —
the engine's stratum walk (whose plans are the strata it visited) or
Figure-1 recompute (no plans) — and no method compares the mode after
that: materialization and :meth:`~DatabaseSession.check` call the chosen
evaluators, and a write walks whatever plans the last evaluation left.

**A write is** :meth:`~DatabaseSession.update`.  ``insert`` / ``retract``
are one-liners over it; a :class:`Transaction` commit, the serving
writer (:mod:`repro.serve.session`) and WAL replay
(:mod:`repro.durable.recovery`) call it.  It coerces the input
(:meth:`~DatabaseSession.coerce`), logs to the WAL ahead of the apply,
maintains the model stratum by stratum — delete-rederive where the
stratum's reads are two-valued, the cone step where it alternates or
reads an atom undefined before or after the write, stratum-local
recomputation for aggregates — seals the WAL batch, then notifies the
update listeners.  Batches that may name one atom twice are
merged first by :func:`merge_ops`, the only last-operation-wins rule.

**A recompute is evaluate-and-diff into the live store.**  The recompute
mode, a write that reaches a binder plan's reads, the first write of a
name-open program after a snapshot restore, and the disaster path of
maintenance share one method: evaluate the new EDB from scratch, diff the
result against the live store, hand the result's relations to the live
store (:meth:`~repro.engine.seminaive.relation.RelationStore.adopt`), and
roll the EDB back when the evaluation fails.  ``session.store`` therefore
never changes identity — an epoch manager may keep its bound
``snapshot``.

Reads (:class:`~repro.db.reads.ModelReads`, shared with the serving
layer's pinned readers) are answered from the store through
:func:`repro.engine.seminaive.relation.matching_facts` — a handful of index
probes, no evaluation at all.
"""

from __future__ import annotations

import weakref

from itertools import chain
from time import perf_counter as _perf_counter
from typing import Any, Iterable, List, NamedTuple, Optional, Tuple, Union

from repro.db.maintenance import (
    Delta,
    alternating_update,
    dred_update,
    recompute_stratum,
)
from repro.db.modes import (
    INCREMENTAL,
    RECOMPUTE_MODE,
    WELLFOUNDED,
    choose_mode,
    with_facts,
)
from repro.db.plans import ALTERNATING, DRED, RECOMPUTE
from repro.db.reads import ModelReads
from repro.engine.interpretation import Interpretation
from repro.engine.seminaive.engine import (
    EXECUTION_STATS,
    Limits,
    SeminaiveUnsupported,
)
from repro.obs.metrics import COUNT_BUCKETS, get_registry
from repro.obs.trace import current_tracer, untraced
from repro.engine.seminaive.relation import RelationStore
from repro.hilog.errors import GroundingError, HiLogError
from repro.hilog.parser import parse_program, parse_term
from repro.hilog.program import Program, Rule
from repro.hilog.terms import Term, collect_terms, intern_table_sizes

#: What :meth:`DatabaseSession.coerce` accepts: a ground atom, a fact rule,
#: program text holding only facts, or an iterable of any of those.
Facts = Union[Term, Rule, str, Iterable[Any]]


class SessionError(HiLogError):
    """Misuse of the session API — e.g. opening a nested transaction while
    another is still staging, or operating on a committed/rolled-back
    transaction."""


class SessionIntegrityError(SessionError):
    """The maintained model diverged from the from-scratch model — an
    incremental maintenance bug surfaced by :meth:`DatabaseSession.check`."""


class UpdateSummary(NamedTuple):
    """Net effect of one update batch on the session."""

    #: Asserted facts that were not already in the EDB.
    inserted: int
    #: Retracted facts that were actually in the EDB.
    retracted: int
    #: Atoms that became true (EDB and derived; unordered).
    added: Tuple[Term, ...]
    #: Atoms that became false (unordered).
    removed: Tuple[Term, ...]
    #: Number of strata the write reached, whose maintenance ran (0 for a
    #: write evaluated from scratch).
    strata_touched: int
    #: ``"incremental"``, ``"wellfounded"``, ``"recompute"`` or
    #: ``"rebuild"`` (disaster path).
    mode: str
    #: Atoms that became undefined / stopped being undefined (well-founded
    #: mode only; always empty when the maintained model is total).
    undefined_added: Tuple[Term, ...] = ()
    undefined_removed: Tuple[Term, ...] = ()


def merge_ops(ops: Iterable[Tuple[str, Term]]) -> Tuple[List[Term], List[Term]]:
    """The last-operation-wins merge: ``ops`` are ``("insert" | "retract",
    atom)`` pairs in the order they were staged; returns the ``(inserts,
    retracts)`` of one batch in which every atom appears once, under the
    last action staged for it.  A transaction commit and the serving
    writer's coalesced batch are both this."""
    final = {}
    for action, atom in ops:
        final[atom] = action
    return (
        [atom for atom, action in final.items() if action == "insert"],
        [atom for atom, action in final.items() if action == "retract"],
    )


class Transaction:
    """A batch of staged inserts/retracts applied atomically on commit.

    Usable as a context manager: a clean exit commits, an exception rolls
    the staged operations back (the session is untouched either way until
    commit).  Within one transaction the *last* operation on an atom wins.

    A session allows **one open transaction at a time**: opening a second
    before the first commits or rolls back raises :class:`SessionError`
    (interleaved staging used to corrupt silently — two batches would
    commit each other's halves), as does staging into or re-committing a
    transaction that is already closed.
    """

    def __init__(self, session: "DatabaseSession") -> None:
        self._session = session
        self._ops: List[Tuple[str, Term]] = []
        self._result: Optional[UpdateSummary] = None
        self._closed = False
        # Tracked (weakly): a session allows one open transaction.
        session._transactions.add(self)

    def _check_open(self, action):
        if self._closed:
            raise SessionError(
                "cannot %s: this transaction is already %s" % (
                    action, "committed" if self._result is not None
                    else "rolled back",
                )
            )

    def _stage(self, action, facts):
        self._check_open(action)
        atoms = self._session.coerce(facts)
        self._ops.extend((action, atom) for atom in atoms)
        return self

    def insert(self, facts):
        """Stage assertions."""
        return self._stage("insert", facts)

    def retract(self, facts):
        """Stage retractions."""
        return self._stage("retract", facts)

    def commit(self) -> UpdateSummary:
        """Apply the staged batch; returns the :class:`UpdateSummary`.

        Closes the transaction whether or not the batch applies cleanly —
        a failed commit's staged operations are gone, not silently
        retryable against a store the failure may have rebuilt."""
        self._check_open("commit")
        inserts, retracts = merge_ops(self._ops)
        self._ops = []
        self._closed = True
        self._result = self._session.update(inserts, retracts)
        return self._result

    def rollback(self):
        """Discard the staged operations and close the transaction
        (idempotent — rolling back twice is a no-op)."""
        self._ops = []
        self._closed = True

    @property
    def result(self):
        """The summary of the last commit (``None`` before commit)."""
        return self._result

    def __enter__(self):
        return self

    def __exit__(self, exc_type, _exc, _tb):
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False


#: Per mode: the :meth:`DatabaseSession.stats` counter every write counts
#: under besides ``updates`` (``None``: none), the one a write evaluated
#: from scratch counts under (``None``: none — every write of the mode is),
#: and the ``mode`` that write's summary reports.  A walked session
#: evaluates from scratch only on its disaster path — a rebuild — or, for
#: a name-open program, when a write reaches a binder plan's reads.
_MODE_LABELS = {
    INCREMENTAL: (None, "rebuilds", "rebuild"),
    WELLFOUNDED: ("wellfounded_updates", "rebuilds", WELLFOUNDED),
    RECOMPUTE_MODE: ("recompute_mode_updates", None, RECOMPUTE_MODE),
}


class DatabaseSession(ModelReads):
    """A long-lived deductive database over one HiLog program.

    Args:
        program: a :class:`~repro.hilog.program.Program` or program text;
            its facts seed the extensional database, its proper rules are
            fixed for the session's lifetime.
        strategy: ``"auto"`` (the engine's stratum walk, maintained per
            stratum, whenever it accepts the program; Figure 1 otherwise)
            or ``"recompute"`` (Figure 1, whatever the program).  See
            :mod:`repro.db.modes`.
        max_facts / max_term_depth: the engine's resource caps.
        intern_gc: when set to a positive integer N, the session sweeps the
            term intern tables (:meth:`collect`) automatically after every N
            updates, bounding intern memory under fact churn.  ``None``
            (the default) never collects automatically — call
            :meth:`collect` yourself for long-lived serving processes.
        path: a data directory making the session **durable**: every
            update batch is written to a CRC32-framed write-ahead log
            before the call returns, snapshot checkpoints capture the
            materialized model, and :meth:`DatabaseSession.open` recovers
            the session after a crash (newest valid snapshot + WAL-tail
            replay).  The directory must be fresh — reopening an existing
            one goes through :meth:`open`.  A single-writer lockfile
            guards the directory (:class:`~repro.hilog.errors.LockHeld`).
        fsync: WAL durability policy for ``path`` sessions — ``"always"``
            (fsync per committed batch), ``"batch"`` (default; fsync every
            64 batches, at checkpoints and on close) or ``"off"``.
        checkpoint_every: write a snapshot automatically every N logged
            update batches (``None`` — the default — checkpoints only on
            demand, at creation and at :meth:`close`).
        validate: run the :mod:`repro.lint` static analyzer over the
            program before materialization — ``"off"`` (default; skip),
            ``"warn"`` (emit a :class:`UserWarning` carrying the report
            when it is non-empty, then proceed) or ``"strict"`` (raise
            :class:`~repro.hilog.errors.DiagnosticError` when the report
            contains *errors*; warnings alone proceed).  Whatever ran is
            kept on :attr:`diagnostics` and summarized in :meth:`stats`.

    The transient terms an update builds — parsed fact strings,
    over-deleted candidates, rederivation probes — and the fresh constants
    of since-retracted facts are evicted by :meth:`collect`, which drops
    every interned term that nothing holds (:mod:`repro.hilog.terms`).
    Holding a term is what keeps it canonical: the session's store, EDB,
    rules and plans hold theirs, and an atom a caller keeps from a query
    answer or an update summary stays the very object the session will
    use for that fact, however many collections run meanwhile.
    """

    def __init__(self, program, strategy="auto", max_facts=1000000,
                 max_term_depth=None, intern_gc=None, path=None,
                 fsync="batch", checkpoint_every=None, validate="off",
                 _manager=None, _recover=None):
        if strategy not in ("auto", RECOMPUTE_MODE):
            raise ValueError(
                "unknown strategy %r (use 'auto' or 'recompute')"
                % (strategy,)
            )
        if validate not in ("strict", "warn", "off"):
            raise ValueError(
                "validate must be 'strict', 'warn' or 'off', got %r"
                % (validate,)
            )
        if intern_gc is not None and (not isinstance(intern_gc, int) or intern_gc <= 0):
            raise ValueError("intern_gc must be None or a positive integer")
        if fsync not in ("always", "batch", "off"):
            raise ValueError(
                "fsync policy must be 'always', 'batch' or 'off', got %r"
                % (fsync,)
            )
        self._durable = None
        self._program_text = program if isinstance(program, str) else None
        if path is not None and _manager is None:
            from repro.durable.manager import is_initialized

            if is_initialized(path):
                raise SessionError(
                    "data directory %r already holds a durable session; "
                    "recover it with DatabaseSession.open(path)" % (path,)
                )
        if isinstance(program, str):
            program = parse_program(program)
        self._diagnostics = None
        if validate != "off":
            from repro.lint import lint_program

            report = lint_program(program)
            self._diagnostics = report
            if report.has_errors() and validate == "strict":
                from repro.hilog.errors import DiagnosticError

                raise DiagnosticError(
                    "program failed strict validation:\n%s" % report.to_text(),
                    diagnostics=report,
                )
            if report and validate == "warn":
                import warnings as _warnings

                _warnings.warn(
                    "program validation found issues:\n%s" % report.to_text(),
                    stacklevel=2,
                )
        self._rules = Program(tuple(program.proper_rules()))
        # The assertions, insertion-ordered: terms hash by identity, so a
        # set would hand a stratum's recomputation and a checkpoint its
        # atoms in an order that changes from one process to the next.
        self._edb = {}
        for rule in program.facts():
            # Every evaluation path of the repository requires ground facts
            # (cf. seminaive_evaluate and the Figure-1 grounding); reject
            # them up front with a clear error rather than at first update.
            if not rule.head.is_ground():
                raise GroundingError("fact %r is not ground" % (rule.head,))
            self._edb[rule.head] = None
        self._limits = Limits(max_facts, max_term_depth)
        self._mode, plans, self._evaluate, self._reference = \
            choose_mode(self._rules, self._limits, strategy)
        self._stats = {
            "updates": 0,
            "dred_updates": 0,
            "alternating_updates": 0,
            "recompute_updates": 0,
            "stratum_fallbacks": 0,
            "rebuilds": 0,
            "recompute_mode_updates": 0,
            "wellfounded_updates": 0,
        }
        self._intern_gc_every = intern_gc
        self._updates_since_collect = 0
        self._transactions = weakref.WeakSet()
        self._update_listeners = []
        self._cone = 0
        if _recover is not None:
            # Recovered EDB replaces the program file's seed facts — the
            # snapshot captured the post-churn extensional database.
            self._edb = dict.fromkeys(sorted(_recover.edb, key=repr))
        if _recover is not None and _recover.store is not None \
                and _recover.mode == self._mode:
            # Snapshot restore: the store and undefined partition drop in
            # directly — no evaluation.
            self._store = _recover.store
            self._install(_recover.undefined, plans)
        else:
            # No usable snapshot (or the resolved mode differs from the
            # snapshot's, whose model another evaluator made): materialize
            # from the recovered EDB the slow, safe way.
            try:
                model = self._evaluate(self._edb)
            except SeminaiveUnsupported:
                # The walk compiled the rules but refused the facts (an
                # instance re-settling a head, aggregation over undefined
                # atoms): demote to the Figure-1 recompute fallback.
                self._mode, plans, self._evaluate, self._reference = \
                    choose_mode(self._rules, self._limits, RECOMPUTE_MODE)
                model = self._evaluate(self._edb)
            self._store = model.store
            self._install(model.undefined, model.plans, model.rewalk)
        if path is not None or _manager is not None:
            manager = _manager
            if manager is None:
                from repro.durable.manager import DurabilityManager

                manager = DurabilityManager(
                    path, fsync=fsync, checkpoint_every=checkpoint_every,
                )
            try:
                self._attach_durability(manager, _recover)
            except BaseException:
                manager.close()
                self._durable = None
                raise

    # -- durability ---------------------------------------------------------

    @classmethod
    def open(cls, path, strategy="auto", max_facts=1000000,
             max_term_depth=None, intern_gc=None, fsync="batch",
             checkpoint_every=None, verify=False, validate="off"):
        """Recover a durable session from its data directory.

        Loads the newest snapshot that validates (falling back past
        corrupt ones), replays the committed WAL tail through the
        maintenance machinery, and returns the live session — holding the
        directory's single-writer lock (:class:`~repro.hilog.errors.LockHeld`
        when another session already does).  ``verify=True`` finishes
        with a full :meth:`check` against a from-scratch recomputation.
        Recovery provenance (snapshot used, corrupt snapshots skipped,
        torn-tail bytes truncated, transactions replayed) is available
        under ``stats()["durability"]``.
        """
        from repro.durable.manager import DurabilityManager
        from repro.durable.recovery import load_latest_state
        from repro.hilog.errors import DurabilityError

        manager = DurabilityManager(
            path, fsync=fsync, checkpoint_every=checkpoint_every,
        )
        try:
            if not manager.initialized():
                raise DurabilityError(
                    "%r is not a durable session directory (no %s)"
                    % (path, "program.hilog")
                )
            state, corrupt = load_latest_state(manager.directory)
            manager.recovery["corrupt_snapshots"] = tuple(corrupt)
            program = state.rules_text if state is not None \
                else manager.read_program()
            session = cls(
                program, strategy=strategy, max_facts=max_facts,
                max_term_depth=max_term_depth, intern_gc=intern_gc,
                validate=validate, _manager=manager, _recover=state,
            )
        except BaseException:
            manager.close()
            raise
        if verify:
            session.check()
        return session

    def _attach_durability(self, manager, state):
        """Wire the durability manager in: persist the program text (fresh
        directories), open the WAL — truncating any torn tail — replay the
        committed tail past the snapshot, and leave the directory covered
        by a checkpoint."""
        from repro.durable.recovery import replay

        fresh = not manager.initialized()
        if self._program_text is None:
            from repro.hilog.pretty import format_program

            self._program_text = format_program(
                with_facts(self._rules, self._edb))
        if fresh:
            manager.write_program(self._program_text)
        self._durable = manager
        wal = manager.open_wal()
        if not fresh:
            since = state.txn if state is not None else 0
            manager.recovery["snapshot_txn"] = (
                state.txn if state is not None else None
            )
            batches = [b for b in wal.committed if b.txn > since]
            manager.suspended = True
            try:
                txns, facts = replay(self, batches)
            finally:
                manager.suspended = False
            manager.recovery["replayed_txns"] = txns
            manager.recovery["replayed_facts"] = facts
            manager.records_since_checkpoint = txns
        wal.committed = []
        if fresh or manager.should_checkpoint():
            # A fresh directory gets an immediate checkpoint so recovery
            # never needs a from-scratch rematerialization; a recovered one
            # re-checkpoints only when the replayed tail already exceeds
            # the checkpoint interval.
            self.checkpoint()

    def checkpoint(self, store=None, undefined=None):
        """Write a snapshot checkpoint now (atomic temp + fsync + rename);
        returns its path.  ``store``/``undefined`` override the serialized
        source — the serving layer passes a pinned frozen epoch so
        checkpointing never blocks concurrent readers.  Raises
        :class:`SessionError` for sessions without a data directory."""
        if self._durable is None:
            raise SessionError(
                "session has no data directory (construct with path=... or "
                "DatabaseSession.open)"
            )
        return self._durable.checkpoint(
            rules_text=self._program_text, mode=self._mode, edb=self._edb,
            store=self._store if store is None else store,
            undefined=self._undefined if undefined is None else undefined,
        )

    def close(self, checkpoint=True):
        """Shut a durable session down cleanly: take a final checkpoint
        (when anything was logged since the last one), fsync and close the
        WAL, release the directory lock.  Idempotent; a no-op for sessions
        without a data directory.  The session's in-memory side stays
        queryable, but further updates raise — reopen with
        :meth:`DatabaseSession.open`."""
        durable = self._durable
        if durable is None or durable.closed:
            return
        if checkpoint and durable.records_since_checkpoint:
            self.checkpoint()
        durable.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False

    # -- fact coercion ------------------------------------------------------

    def coerce(self, facts: Facts) -> List[Term]:
        """Normalize update input into a list of ground atoms — what
        :meth:`update` does to both its arguments, public so a caller
        batching several submissions (the serving writer) can reject a
        malformed one on its own before merging the rest.

        Accepts a :class:`Term`, a fact :class:`Rule`, program text holding
        only facts, or an iterable of any of those.
        """
        if isinstance(facts, str):
            program = parse_program(facts if facts.rstrip().endswith(".") else facts + ".")
            atoms = []
            for rule in program.rules:
                if not rule.is_fact():
                    raise ValueError("updates must be facts, got rule %r" % (rule,))
                atoms.append(rule.head)
        elif isinstance(facts, Term):
            atoms = [facts]
        elif isinstance(facts, Rule):
            if not facts.is_fact():
                raise ValueError("updates must be facts, got rule %r" % (facts,))
            atoms = [facts.head]
        else:
            atoms = []
            for item in facts:
                atoms.extend(self.coerce(item))
        for atom in atoms:
            if not atom.is_ground():
                raise GroundingError("cannot assert/retract non-ground %r" % (atom,))
        return atoms

    # -- intern-table housekeeping ------------------------------------------

    def add_update_listener(self, listener):
        """Register ``listener(summary)`` to run after every applied update
        (insert/retract/update/transaction commit), before any automatic
        intern sweep — the **epoch publication hook** the serving layer
        (:mod:`repro.serve`) uses to turn each maintained batch into an
        immutable reader snapshot while the summary's atoms are still
        guaranteed canonical.  Listeners run on the updating thread, in
        registration order; exceptions propagate to the updater."""
        self._update_listeners.append(listener)
        return listener

    def remove_update_listener(self, listener):
        """Unregister a listener added by :meth:`add_update_listener`
        (no-op when absent)."""
        try:
            self._update_listeners.remove(listener)
        except ValueError:
            pass

    def _after_update(self, result):
        """Post-update bookkeeping: notify update listeners (the serving
        layer's epoch publication hook), then run the automatic intern
        sweep when ``intern_gc`` is configured.  The summary ``result``
        holds its atoms through the sweep, so the caller receives canonical
        terms even for the atoms the write removed from the store."""
        for listener in tuple(self._update_listeners):
            listener(result)
        self._updates_since_collect += 1
        every = self._intern_gc_every
        if every is not None and self._updates_since_collect >= every:
            self.collect()

    def collect(self):
        """Sweep the global term intern tables
        (:func:`~repro.hilog.terms.collect_terms`): evict every interned
        term that nothing holds — this session's transients and retracted
        constants, other sessions', anyone's.

        With churn-heavy workloads this is what keeps
        :func:`~repro.hilog.terms.intern_table_sizes` bounded by the *live*
        term volume instead of growing with every constant ever seen.  The
        sweep visits every interned term, so it costs time in the size of
        the tables, not of the garbage.  Returns the collection stats dict.
        """
        started = _perf_counter()
        stats = collect_terms()
        self._updates_since_collect = 0
        duration = _perf_counter() - started
        get_registry().histogram(
            "repro_session_collect_seconds", "Intern-table sweep latency",
            family="session",
        ).observe(duration)
        tracer = current_tracer()
        if tracer is not None:
            tracer.emit("collect", duration_s=duration,
                        **{key: value for key, value in stats.items()
                           if isinstance(value, (int, float))})
        return stats

    # -- updates ------------------------------------------------------------

    def insert(self, facts: Facts) -> UpdateSummary:
        """Assert facts; maintain the model.  Returns an :class:`UpdateSummary`."""
        return self.update(inserts=facts)

    def retract(self, facts: Facts) -> UpdateSummary:
        """Retract facts; maintain the model.  Returns an :class:`UpdateSummary`."""
        return self.update(retracts=facts)

    def update(self, inserts: Facts = (), retracts: Facts = ()) -> UpdateSummary:
        """Apply assertions and retractions as one batch — the session's
        only write entry (see the module docstring).  An atom on both sides
        raises :class:`ValueError`; :func:`merge_ops` settles such batches
        beforehand."""
        result = self._apply(self.coerce(inserts), self.coerce(retracts))
        self._after_update(result)
        return result

    def transaction(self):
        """A :class:`Transaction` staging updates for one atomic commit.

        Raises :class:`SessionError` while a previously opened transaction
        is still staging (not yet committed or rolled back): interleaving
        two staging batches on one session corrupts the last-operation-wins
        merge, so re-entrant/nested use is rejected up front.  A
        transaction that is simply dropped (garbage collected) without
        closing releases the slot."""
        if not all(live._closed for live in tuple(self._transactions)):
            raise SessionError(
                "a transaction is already open on this session; commit or "
                "roll it back before opening another (nested/re-entrant "
                "transactions are not supported)"
            )
        return Transaction(self)

    def _install(self, undefined, plans, rewalk=frozenset()):
        """Install the model's undefined atoms — indexed, in ``repr`` order,
        as an evaluator's and a snapshot's come as sets, whose order depends
        on the hash seed — the per-stratum maintenance plans a write walks
        (``None``: every write evaluates from scratch) and ``rewalk``, the
        indicators a write must not change for them to stay valid."""
        self._undefined = RelationStore(sorted(undefined, key=repr))
        self._undefined_atoms = None
        self._plans = plans
        self._rewalk = rewalk
        self._owner = {}
        self._unknown_stratum = None
        for index, bundle in enumerate(plans or ()):
            if bundle.head_indicators is None:
                if self._unknown_stratum is None:
                    self._unknown_stratum = index
                continue
            for indicator in bundle.head_indicators:
                self._owner[indicator] = index

    def _by_stratum(self, atoms):
        """``atoms`` grouped by the index of the stratum defining their
        predicate — ``None`` for purely extensional predicates."""
        groups = {}
        for atom in atoms:
            owner = self._owner.get(atom.indicator, self._unknown_stratum)
            groups.setdefault(owner, []).append(atom)
        return groups

    def _apply(self, inserts, retracts):
        """One maintained update batch, wrapped in the observability layer:
        per-update latency/size metrics (family ``"session"``) and, when a
        tracer is installed, a ``maintenance`` span carrying the register
        executor's fetch/candidate deltas."""
        started = _perf_counter()
        tracer = current_tracer()
        stats_before = EXECUTION_STATS.snapshot() if tracer is not None else None
        registry = get_registry()
        # Durable sessions log the batch ahead of the apply (begin + op
        # frames), then seal it with a commit frame only after the
        # in-memory maintenance succeeded — replay must never redo a batch
        # that raised and rolled back.  A crash between the two leaves a
        # dangling begin, which recovery skips: observably, the batch
        # never happened and its caller was never acknowledged.
        durable = self._durable
        txn = None
        if durable is not None:
            if durable.closed:
                raise SessionError(
                    "durable session is closed; reopen with "
                    "DatabaseSession.open(%r)" % durable.directory
                )
            if durable.active and (inserts or retracts):
                txn = durable.log_begin(inserts, retracts)
        try:
            result = self._apply_inner(inserts, retracts)
        except Exception:
            if txn is not None:
                durable.log_abort(txn)
            registry.counter(
                "repro_session_update_failures",
                "Update batches that raised", family="session",
            ).inc()
            raise
        if txn is not None:
            durable.log_commit(txn)
            if durable.should_checkpoint():
                self.checkpoint()
        duration = _perf_counter() - started
        registry.counter(
            "repro_session_updates", "Update batches applied",
            family="session",
        ).inc()
        registry.histogram(
            "repro_session_update_seconds", "Update batch latency",
            family="session",
        ).observe(duration)
        registry.histogram(
            "repro_session_batch_facts",
            "EDB facts touched per update batch", family="session",
            buckets=COUNT_BUCKETS,
        ).observe(result.inserted + result.retracted)
        if tracer is not None:
            stats = EXECUTION_STATS.diff(stats_before)
            tracer.emit(
                "maintenance", mode=result.mode,
                inserted=result.inserted, retracted=result.retracted,
                added=len(result.added), removed=len(result.removed),
                strata=result.strata_touched, duration_s=duration,
                fetches=stats["fetches"], candidates=stats["candidates"],
                alternations=stats["alternations"], cone=self._cone,
            )
        return result

    def _apply_inner(self, inserts, retracts):
        overlap = set(inserts) & set(retracts)
        if overlap:
            raise ValueError(
                "atoms both inserted and retracted in one batch: %s"
                % sorted(map(repr, overlap))
            )
        ins = [atom for atom in dict.fromkeys(inserts) if atom not in self._edb]
        rem = [atom for atom in dict.fromkeys(retracts) if atom in self._edb]
        self._edb.update(dict.fromkeys(ins))
        for atom in rem:
            del self._edb[atom]
        self._stats["updates"] += 1
        counter = _MODE_LABELS[self._mode][0]
        if counter is not None:
            self._stats[counter] += 1
        self._cone = 0

        rewalk = self._rewalk
        if self._plans is None or (rewalk and any(
                atom.indicator in rewalk for atom in chain(ins, rem))):
            return self._recompute(ins, rem)

        delta, undefined_delta = Delta(), Delta()
        stratum_ins, stratum_rem = self._by_stratum(ins), self._by_stratum(rem)
        try:
            for atom in stratum_ins.get(None, ()):
                if self._store.add(atom):
                    delta.record_add(atom)
            self._limits.check(self._store, delta.added)
            for atom in stratum_rem.get(None, ()):
                if self._store.remove(atom):
                    delta.record_remove(atom)

            touched = 0
            for index, plans in enumerate(self._plans):
                edb_added = stratum_ins.get(index, [])
                edb_removed = stratum_rem.get(index, [])
                if not edb_added and not edb_removed \
                        and not delta.touches(plans.reads) \
                        and not undefined_delta.touches(plans.reads):
                    continue
                touched += 1
                self._maintain_stratum(plans, delta, undefined_delta,
                                       edb_added, edb_removed)
        except HiLogError as error:
            # Disaster path: the incremental machinery failed mid-update
            # (resource cap, integrity check) and may have left the store
            # half-mutated.  Recompute from scratch; when that fails too
            # (the update itself is unevaluable, e.g. it blows the fact
            # cap) the session is back at the pre-update state and the
            # original failure surfaces.
            try:
                return self._recompute(ins, rem, dirty=True)
            except HiLogError:
                raise error
        if rewalk and (delta.touches(rewalk) or undefined_delta.touches(rewalk)):
            # A derived atom a binder plan reads changed: the instances the
            # plans were compiled for may not be the model's any more.
            return self._recompute(ins, rem, dirty=True)
        if not undefined_delta.is_empty():
            self._undefined_atoms = None

        return UpdateSummary(
            inserted=len(ins),
            retracted=len(rem),
            added=tuple(delta.added),
            removed=tuple(delta.removed),
            strata_touched=touched,
            mode=self._mode,
            undefined_added=tuple(undefined_delta.added),
            undefined_removed=tuple(undefined_delta.removed),
        )

    def _reads_uncertain(self, reads, undefined_delta):
        """Whether a stratum reading ``reads`` reads an atom undefined before
        or after the write (``undefined_delta`` holds the changes so far,
        the undefined store the values below the stratum as they are now)."""
        undefined = self._undefined
        if not len(undefined) and undefined_delta.is_empty():
            return False
        if reads is None:
            return True
        return any(
            undefined.relation(name, arity) is not None
            or undefined_delta.removed.has_facts(name, arity)
            for name, arity in reads
        )

    def _maintain_stratum(self, plans, delta, undefined_delta, edb_added,
                          edb_removed):
        """Maintain one stratum by its strategy — a two-valued stratum by
        delete-rederive, one reading an atom undefined before or after the
        write by the cone step, as an alternating one always is."""
        strategy = plans.strategy
        if strategy != ALTERNATING \
                and self._reads_uncertain(plans.reads, undefined_delta):
            if strategy == RECOMPUTE:
                raise SeminaiveUnsupported(
                    "a stratum without maintenance plans (aggregation) reads "
                    "possibly-undefined atoms"
                )
            strategy = ALTERNATING
        try:
            if strategy == ALTERNATING:
                self._cone += alternating_update(
                    plans.bundle, self._store, self._undefined, delta,
                    undefined_delta, self._edb, edb_added + edb_removed,
                    self._limits,
                )
                self._stats["alternating_updates"] += 1
            elif strategy == DRED:
                dred_update(
                    plans.bundle, self._store, delta, self._edb, edb_added,
                    edb_removed, self._limits,
                )
                self._stats["dred_updates"] += 1
            else:
                recompute_stratum(plans, self._store, delta, self._edb, self._limits)
                self._stats["recompute_updates"] += 1
        except HiLogError:
            if strategy != DRED or plans.head_indicators is None:
                raise
            # A delta invalidated the settled stratum in a way the
            # incremental step could not absorb: recompute just this stratum.
            self._stats["stratum_fallbacks"] += 1
            recompute_stratum(plans, self._store, delta, self._edb, self._limits)

    def _recompute(self, ins, rem, dirty=False):
        """The one from-scratch update: evaluate the model over the EDB
        (which already holds ``ins`` / ``rem``), diff it against the live
        store and move it in — how a session without maintenance plans
        writes, a well-founded write that reaches a binder plan's reads,
        and a session whose maintenance failed.  An evaluation that raises
        (the update made the program unevaluable, e.g. no longer modularly
        stratified) rolls the EDB change back.

        ``dirty``: a failed incremental step half-mutated the live store,
        so the pre-update model is evaluated back into it first — the diff
        is accurate and a failure leaves the session as the update found it."""
        _counter, counter, label = _MODE_LABELS[self._mode]
        if counter is not None:
            self._stats[counter] += 1
        try:
            if dirty:
                before = self._evaluate(set(self._edb).difference(ins).union(rem))
                self._store.adopt(before.store)
                self._install(before.undefined, before.plans, before.rewalk)
            model = self._evaluate(self._edb)
        except HiLogError:
            for atom in ins:
                del self._edb[atom]
            self._edb.update(dict.fromkeys(rem))
            raise
        added, removed = self._store.adopt(model.store)
        old = self._undefined
        self._install(model.undefined, model.plans, model.rewalk)
        new = self._undefined
        return UpdateSummary(
            inserted=len(ins),
            retracted=len(rem),
            added=tuple(added),
            removed=tuple(removed),
            strata_touched=0,
            mode=label,
            undefined_added=tuple(atom for atom in new if atom not in old),
            undefined_removed=tuple(atom for atom in old if atom not in new),
        )

    # -- reads --------------------------------------------------------------

    def _model(self):
        return self._store, self._undefined

    def explain(self, fact):
        """Why is this ground atom true (or undefined)?  Returns a
        :class:`~repro.obs.explain.Derivation` tree.

        A true atom gets a proof: a rule instance re-verified against the
        store, its positive body facts recursively explained down to the
        EDB.  In well-founded mode an undefined atom gets a negation-loop
        witness: a chain of overestimate rule instances hinging on
        undefined subgoals until the chain bites its own tail — the
        negation SCC the alternating fixpoint could not resolve.  A false
        atom returns a single ``"false"`` node.  Raises
        :class:`~repro.obs.explain.ExplainError` for non-ground input and
        atoms derivable only through aggregates.
        """
        from repro.obs.explain import ExplainError, explain_atom

        fact = self._parsed(fact, parse_term)
        if not isinstance(fact, Term):
            raise ExplainError("explain() takes a ground atom or its text, "
                               "got %r" % (fact,))
        return explain_atom(
            fact, self._rules, self._store,
            edb=frozenset(self._edb), undefined=self._undefined,
        )

    @property
    def true(self):
        """The maintained model's true atoms (a fresh frozenset, O(n))."""
        return frozenset(self._store)

    @property
    def undefined(self):
        """The maintained model's undefined atoms, a frozenset (empty
        outside well-founded mode — the other modes maintain total models).
        It is built from the indexed store the session maintains them in
        only when that store changed since the last call."""
        if self._undefined_atoms is None:
            self._undefined_atoms = frozenset(self._undefined)
        return self._undefined_atoms

    def is_total(self):
        """True when the maintained model leaves nothing undefined."""
        return not self._undefined

    def model(self):
        """The maintained model as an :class:`Interpretation`: total in
        incremental/recompute mode, possibly partial (true atoms explicit,
        undefined atoms in the base) in well-founded mode."""
        true = frozenset(self._store)
        return Interpretation(true=true, base=true | self.undefined)

    def edb(self):
        """The current extensional database (asserted facts)."""
        return frozenset(self._edb)

    @property
    def mode(self):
        """``"recompute"`` for a Figure-1 session; for a walked one a
        description of its compiled rules — ``"wellfounded"`` when a
        stratum alternates or a rule is name-open, else
        ``"incremental"``."""
        return self._mode

    @property
    def diagnostics(self):
        """The lint report produced at construction, or ``None`` when the
        session was opened with ``validate="off"``."""
        return self._diagnostics

    @property
    def store(self):
        """The backing relation store (treat as read-only)."""
        return self._store

    def strategies(self):
        """Maintenance strategy per stratum, as the next write would take
        it: ``"alternating"`` (the cone step) for a stratum that alternates
        or reads an atom undefined now, ``"dred"`` or ``"recompute"``
        otherwise.  Empty in recompute mode, and in a session of a program
        with a name-open rule restored from a snapshot until its first
        write walks the strata."""
        empty = Delta()
        return tuple(
            ALTERNATING if plans.strategy == DRED
            and self._reads_uncertain(plans.reads, empty) else plans.strategy
            for plans in self._plans or ()
        )

    def stats(self):
        """Counters and sizes describing the session so far."""
        info = dict(self._stats)
        info.update(
            mode=self._mode,
            facts=len(self._store),
            undefined_facts=len(self._undefined),
            edb_facts=len(self._edb),
            strata=len(self._plans or ()),
            strategies=self.strategies(),
            store=self._store.stats(),
            intern=intern_table_sizes(),
            updates_since_collect=self._updates_since_collect,
        )
        if self._diagnostics is not None:
            info["lint"] = {
                "errors": len(self._diagnostics.errors),
                "warnings": len(self._diagnostics.warnings),
            }
        if self._durable is not None:
            info["durability"] = self._durable.stats()
        return info

    def check(self):
        """Verify the maintained model — true atoms and undefined partition
        — against a from-scratch recomputation.

        Each mode is accountable to the evaluator it is built on
        (:mod:`repro.db.modes`): incremental and well-founded sessions
        answer to an independent run of the engine's stratum walk, compiled
        for the call, so this catches maintenance-algorithm bugs (delete-
        rederive, the cone step, the plans a walk left); for recompute
        sessions, whose every write is their evaluator's, it validates the
        session's state bookkeeping (EDB tracking, rollbacks, partition
        sync).  Engine correctness is covered independently by the
        differential harness against the ground oracles
        (``tests/engine/test_wellfounded_agreement.py``).  The reference
        runs untraced: its walk is the auditor's, not the session's.

        Returns ``True`` on agreement; raises :class:`SessionIntegrityError`
        with sample differences otherwise.  Intended for tests, benchmarks
        and paranoid deployments — it costs a full evaluation.
        """
        with untraced():
            reference = self._reference(self._edb)
        scratch = frozenset(reference.store)
        scratch_undefined = frozenset(reference.undefined)
        maintained, undefined = frozenset(self._store), self.undefined
        if maintained == scratch and undefined == scratch_undefined:
            return True
        missing = sorted(map(repr, (scratch - maintained)
                             | (scratch_undefined - undefined)))[:5]
        spurious = sorted(map(repr, (maintained - scratch)
                              | (undefined - scratch_undefined)))[:5]
        raise SessionIntegrityError(
            "maintained model diverged from recomputation: missing %s, "
            "spurious %s" % (missing, spurious)
        )


def open_session(program, **kwargs):
    """Convenience constructor: ``open_session(text_or_program, ...)``."""
    return DatabaseSession(program, **kwargs)
