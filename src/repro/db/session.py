"""Stateful deductive-database sessions with incremental view maintenance.

A :class:`DatabaseSession` holds a HiLog program (its rules) together with
an extensional database of asserted facts, materializes the perfect model
once through the semi-naive engine, and then keeps the model consistent
under :meth:`~DatabaseSession.insert` / :meth:`~DatabaseSession.retract` /
batched :meth:`~DatabaseSession.transaction` updates without recomputing it
from scratch:

* non-recursive positive strata are maintained by the **counting**
  algorithm (support counts per fact; Gupta–Mumick–Subrahmanian,
  SIGMOD'93),
* recursive strata and strata with stratified negation by
  **delete-rederive** (DRed),
* aggregate strata by stratum-local recomputation, which is also the
  fallback whenever an incremental step trips an integrity check.

Programs outside the semi-naive engine's stratified class still get a
session:

* programs with a cycle through negation at the predicate-indicator level
  (win/move games over cyclic graphs, the class between stratified and
  arbitrary normal programs) run in **well-founded mode**: every update
  recomputes the three-valued well-founded model through the semi-naive
  alternating fixpoint (:mod:`repro.engine.seminaive.wellfounded`) — no
  grounding, and the maintained store holds the certainly-true atoms while
  :attr:`DatabaseSession.undefined` exposes the undefined ones;
* everything else (variable predicate names mixed with negation, recursion
  through aggregation) falls back to whole-model recomputation through the
  Figure-1 procedure (``perfect_model_for_hilog``),

so the session API is uniform across every program class the repository
supports.

One documented semantic divergence, inherited from the two evaluators:
for an aggregate whose condition predicate is settled in a *lower*
stratum, the engine's stratified semantics (incremental sessions,
:func:`~repro.engine.seminaive.seminaive_evaluate`) folds over the full
condition extension, while the Figure-1 ground path (recompute-mode
sessions, ``perfect_model_for_hilog``) folds only over the condition
atoms of the aggregate's own component — deriving nothing for settled
conditions.  Each session mode is verified (:meth:`DatabaseSession.check`)
against the evaluator it is built on; see
:meth:`DatabaseSession.recompute_reference`.

Queries are answered from the maintained store through
:func:`repro.core.magic.evaluate.answer_from_store` (the session-backed
path of ``magic_evaluate``) — a handful of index probes, no evaluation at
all.
"""

from __future__ import annotations

import weakref

from time import perf_counter as _perf_counter
from typing import NamedTuple, Tuple

from repro.core.magic.evaluate import answer_from_store
from repro.core.modular import perfect_model_for_hilog
from repro.db.maintenance import (
    Delta,
    _Limits,
    counting_update,
    dred_update,
    materialize_counting_stratum,
    recompute_stratum,
)
from repro.db.plans import COUNTING, DRED, RECOMPUTE, build_maintenance_plans
from repro.engine.interpretation import Interpretation
from repro.engine.seminaive.engine import (
    EXECUTION_STATS,
    SeminaiveUnsupported,
    evaluate_stratum,
    seminaive_evaluate,
    stratify_program,
)
from repro.obs.metrics import COUNT_BUCKETS, get_registry
from repro.obs.trace import current_tracer
from repro.engine.seminaive.wellfounded import (
    compile_well_founded,
    seminaive_well_founded,
)
from repro.engine.seminaive.relation import RelationStore, predicate_indicator
from repro.hilog.errors import GroundingError, HiLogError
from repro.hilog.parser import parse_program, parse_query, parse_term
from repro.hilog.program import Literal, Program, Rule
from repro.hilog.terms import (
    Term,
    collect_generation,
    current_generation,
    intern_generation,
    intern_table_sizes,
    register_flush_hook,
    register_pin_provider,
)

#: Session evaluation modes.
INCREMENTAL = "incremental"
WELLFOUNDED = "wellfounded"
RECOMPUTE_MODE = "recompute"


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
    #: Number of strata whose maintenance ran (0 for recompute mode).
    strata_touched: int
    #: ``"incremental"``, ``"wellfounded"``, ``"recompute"`` or
    #: ``"rebuild"`` (disaster path).
    mode: str
    #: Atoms that became undefined / stopped being undefined (well-founded
    #: mode only; always empty when the maintained model is total).
    undefined_added: Tuple[Term, ...] = ()
    undefined_removed: Tuple[Term, ...] = ()


class Transaction:
    """A batch of staged inserts/retracts applied atomically on commit.

    Usable as a context manager: a clean exit commits, an exception rolls
    the staged operations back (the session is untouched either way until
    commit).  Within one transaction the *last* operation on an atom wins.

    A session allows **one open transaction at a time**: opening a second
    before the first commits or rolls back raises :class:`SessionError`
    (interleaved staging used to corrupt silently — two batches would race
    on the same pin registry and commit each other's halves), as does
    staging into or re-committing a transaction that is already closed.
    """

    def __init__(self, session):
        self._session = session
        self._ops = []
        self._result = None
        self._closed = False
        # Tracked (weakly) so the session's pin provider keeps staged atoms
        # interned if an intern collection runs between staging and commit.
        session._transactions.add(self)

    def _check_open(self, action):
        if self._closed:
            raise SessionError(
                "cannot %s: this transaction is already %s" % (
                    action, "committed" if self._result is not None
                    else "rolled back",
                )
            )

    def insert(self, facts):
        """Stage assertions."""
        self._check_open("insert")
        for atom in self._session._coerce_in_generation(facts):
            self._ops.append(("insert", atom))
        return self

    def retract(self, facts):
        """Stage retractions."""
        self._check_open("retract")
        for atom in self._session._coerce_in_generation(facts):
            self._ops.append(("retract", atom))
        return self

    def commit(self):
        """Apply the staged batch; returns the :class:`UpdateSummary`.

        Closes the transaction whether or not the batch applies cleanly —
        a failed commit's staged operations are gone, not silently
        retryable against a store the failure may have rebuilt."""
        self._check_open("commit")
        final = {}
        for action, atom in self._ops:
            final[atom] = action
        inserts = [atom for atom, action in final.items() if action == "insert"]
        retracts = [atom for atom, action in final.items() if action == "retract"]
        self._ops = []
        self._closed = True
        session = self._session
        with intern_generation():
            self._result = session._apply(inserts, retracts)
        session._after_update(self._result)
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


class DatabaseSession:
    """A long-lived deductive database over one HiLog program.

    Args:
        program: a :class:`~repro.hilog.program.Program` or program text;
            its facts seed the extensional database, its proper rules are
            fixed for the session's lifetime.
        strategy: ``"auto"`` (incremental maintenance when the program is
            in the semi-naive engine's stratified class, semi-naive
            well-founded recomputation when it only has indicator-level
            cycles through negation, Figure-1 whole-model recomputation
            otherwise), ``"incremental"`` / ``"wellfounded"`` (raise
            :class:`~repro.engine.seminaive.SeminaiveUnsupported` outside
            the respective class) or ``"recompute"``.
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

    Every update runs inside an **intern generation**
    (:mod:`repro.hilog.terms`), so the transient terms it builds — parsed
    fact strings, over-deleted candidates, rederivation probes — and the
    fresh constants of since-retracted facts are evictable by
    :meth:`collect`.  The session registers a pin provider covering its
    store, EDB, rules, compiled plans and staged transactions, so
    collection (from this session or any other) never evicts a term the
    session still reaches.  Terms handed *out* of the session (query
    answers, update summaries) are only guaranteed canonical while the
    session still reaches them — the pending update's summary is pinned
    through its own automatic sweep, but atoms held from *earlier*
    summaries or since-retracted answers must be retained explicitly:
    :meth:`pin` them (works under ``intern_gc`` too), pass them to a
    manual ``collect(pins=...)``, or simply re-obtain them at top level
    (intern hits outside a generation promote the term to immortal).
    """

    def __init__(self, program, strategy="auto", max_facts=1000000,
                 max_term_depth=None, intern_gc=None, path=None,
                 fsync="batch", checkpoint_every=None, validate="off",
                 _manager=None, _recover=None):
        if strategy not in ("auto", INCREMENTAL, WELLFOUNDED, RECOMPUTE_MODE):
            raise ValueError(
                "unknown strategy %r (use 'auto', 'incremental', "
                "'wellfounded' or 'recompute')" % (strategy,)
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
        self._edb = set()
        for rule in program.facts():
            # Every evaluation path of the repository requires ground facts
            # (cf. seminaive_evaluate and the Figure-1 grounding); reject
            # them up front with a clear error rather than at first update.
            if not rule.head.is_ground():
                raise GroundingError("fact %r is not ground" % (rule.head,))
            self._edb.add(rule.head)
        self._limits = _Limits(max_facts, max_term_depth)
        self._parse_cache = {}

        self._plans = None
        self._wf_plans = None
        self._owner = {}
        self._unknown_stratum = None
        self._mode = RECOMPUTE_MODE
        self._undefined = frozenset()
        if strategy in ("auto", INCREMENTAL):
            try:
                stratification = stratify_program(self._rules, by_component=True)
                self._plans = [
                    build_maintenance_plans(rules, stratification.recursive)
                    for rules in stratification.strata
                ]
                for index, plans in enumerate(self._plans):
                    if plans.head_indicators is None:
                        if self._unknown_stratum is None:
                            self._unknown_stratum = index
                        continue
                    for indicator in plans.head_indicators:
                        self._owner[indicator] = index
                self._mode = INCREMENTAL
            except SeminaiveUnsupported:
                if strategy == INCREMENTAL:
                    raise
                self._plans = None
        if strategy in ("auto", WELLFOUNDED) and self._mode == RECOMPUTE_MODE:
            # The non-stratified fast fallback: programs whose only obstacle
            # is an indicator-level cycle through negation are recomputed
            # per update with the semi-naive alternating fixpoint instead of
            # the (orders-of-magnitude slower) Figure-1 grounding path.  The
            # strata depend on the rules alone, so they are compiled here,
            # once, and every update re-evaluates them over the new EDB.
            try:
                self._wf_plans = compile_well_founded(self._rules)
                self._mode = WELLFOUNDED
            except SeminaiveUnsupported:
                if strategy == WELLFOUNDED:
                    raise
        self._stats = {
            "updates": 0,
            "counting_updates": 0,
            "dred_updates": 0,
            "recompute_updates": 0,
            "stratum_fallbacks": 0,
            "rebuilds": 0,
            "recompute_mode_updates": 0,
            "wellfounded_updates": 0,
        }
        self._version = 0
        self._program_cache = None
        self._store = None
        self._intern_gc_every = intern_gc
        self._updates_since_collect = 0
        self._transactions = weakref.WeakSet()
        self._active_transaction = None
        self._update_listeners = []
        self._pinned = {}
        if _recover is not None:
            # Recovered EDB replaces the program file's seed facts — the
            # snapshot captured the post-churn extensional database.
            self._edb = set(_recover.edb)
        if _recover is not None and _recover.store is not None \
                and _recover.mode == self._mode:
            # Snapshot restore: the store (with counting-support counts)
            # and undefined partition drop in directly — no evaluation.
            self._store = _recover.store
            self._undefined = _recover.undefined
        else:
            # No usable snapshot (or the resolved mode differs from the
            # snapshot's, making its support counts meaningless):
            # materialize from the recovered EDB the slow, safe way.
            try:
                self._materialize()
            except SeminaiveUnsupported:
                # The mode probe accepted the program but compilation
                # declined (e.g. an unschedulable rule body): demote to the
                # Figure-1 recompute fallback unless the caller pinned the
                # fast mode.
                if strategy in (INCREMENTAL, WELLFOUNDED):
                    raise
                self._mode = RECOMPUTE_MODE
                self._plans = None
                self._materialize()
        # Registered weakly, and only once construction has succeeded: the
        # registry never keeps the session alive, a dead session's
        # pins/flushes drop out of collection automatically, and a session
        # whose materialization raised (the exception traceback can keep the
        # half-built object alive) never participates in collections.
        self._pin_handle = register_pin_provider(self._intern_pin_roots)
        self._flush_handle = register_flush_hook(self._flush_parse_cache)
        if path is not None or _manager is not None:
            manager = _manager
            if manager is None:
                from repro.durable.manager import DurabilityManager

                manager = DurabilityManager(
                    path, fsync=fsync, checkpoint_every=checkpoint_every,
                )
            try:
                self._attach_durability(manager, _recover, program)
            except BaseException:
                manager.close()
                self._durable = None
                raise

    # -- materialization ----------------------------------------------------

    def _sorted_edb(self):
        """The EDB in ``repr`` order — the deterministic fact order every
        from-scratch evaluation is fed in (a slot read per atom already
        rendered, see :func:`repro.hilog.pretty.format_term`)."""
        return sorted(self._edb, key=repr)

    def _full_program(self):
        """The session's program with the current EDB as facts (cached per
        version, for from-scratch recomputation and query fallbacks)."""
        if self._program_cache is not None and self._program_cache[0] == self._version:
            return self._program_cache[1]
        facts = tuple(Rule(atom) for atom in self._sorted_edb())
        program = Program(self._rules.rules + facts)
        self._program_cache = (self._version, program)
        return program

    def _wellfounded_from_scratch(self):
        """The semi-naive well-founded model of the rules over the current
        EDB — the single source for well-founded materialization,
        :meth:`recompute_reference` and :meth:`check`."""
        return seminaive_well_founded(
            self._rules, extra_facts=self._sorted_edb(),
            max_facts=self._limits.max_facts,
            max_term_depth=self._limits.max_term_depth,
            compiled=self._wf_plans,
        )

    def _materialize(self):
        """(Re)compute the store — and the support counts of counting
        strata — from the rules and the current EDB."""
        if self._mode == WELLFOUNDED:
            result = self._wellfounded_from_scratch()
            self._undefined = result.undefined
            self._store = result.store
            return
        if self._mode == INCREMENTAL:
            store = RelationStore()
            for atom in self._edb:
                store.add_support(atom)
            for plans in self._plans:
                if plans.strategy == COUNTING:
                    # Non-recursive stratum: a single base pass sees every
                    # derivation exactly once — count them all.
                    materialize_counting_stratum(plans, store, self._limits)
                else:
                    evaluate_stratum(
                        plans.stratum, store,
                        max_facts=self._limits.max_facts,
                        max_term_depth=self._limits.max_term_depth,
                    )
        else:
            model = perfect_model_for_hilog(
                self._full_program(), strategy="seminaive",
                max_atoms=self._limits.max_facts,
            )
            store = RelationStore(model.true)
        self._store = store

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

    def _attach_durability(self, manager, state, program):
        """Wire the durability manager in: persist the program text (fresh
        directories), open the WAL — truncating any torn tail — replay the
        committed tail past the snapshot, and leave the directory covered
        by a checkpoint."""
        from repro.durable.recovery import replay

        fresh = not manager.initialized()
        if self._program_text is None:
            from repro.hilog.pretty import format_program

            self._program_text = format_program(self._full_program())
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
        checkpointing never blocks concurrent readers; support counts
        always come from the live store (the two are identical between
        writer batches, which is when this runs).  Raises
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
            supports=self._store.support_counts(),
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

    def _coerce_facts(self, facts):
        """Normalize user input into a list of ground atoms.

        Accepts a :class:`Term`, a fact :class:`Rule`, program text holding
        only facts, or an iterable of any of those.  Parsed fact strings are
        memoized (terms are interned and immutable, so the cached atoms are
        the canonical objects): update streams re-asserting the same facts
        skip the lexer/parser entirely.
        """
        if isinstance(facts, str):
            cached = self._parse_cache.get(facts)
            if cached is not None:
                return list(cached)
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
                atoms.extend(self._coerce_facts(item))
        for atom in atoms:
            if not atom.is_ground():
                raise GroundingError("cannot assert/retract non-ground %r" % (atom,))
        if isinstance(facts, str):
            if len(self._parse_cache) >= 4096:
                self._parse_cache.clear()
            self._parse_cache[facts] = tuple(atoms)
        return atoms

    def _coerce_in_generation(self, facts):
        """Coerce staged facts inside a (short) intern generation, so parse
        transients stay evictable even when staging and commit straddle a
        collection (the staged atoms themselves are pinned through the
        session's transaction registry)."""
        with intern_generation():
            return self._coerce_facts(facts)

    # -- intern-table housekeeping ------------------------------------------

    def _intern_pin_roots(self):
        """Root terms this session retains — the pin set every intern
        collection must keep: stored atoms (IDB + EDB), asserted facts,
        rule terms (covering every compiled-plan constant), and the atoms
        staged in live transactions."""
        yield from self._store.pin_roots()
        yield from self._edb
        yield from self._undefined
        yield from self._pinned
        yield from self._rules.pin_roots()
        if self._plans is not None:
            for plans in self._plans:
                yield from plans.pin_roots()
        for transaction in tuple(self._transactions):
            for _action, atom in transaction._ops:
                yield atom

    def _flush_parse_cache(self):
        """Flush-hook target: drop memoized fact-string parses so the cache
        neither pins evicted-generation atoms nor hands out stale (formerly
        canonical) objects after a collection."""
        self._parse_cache.clear()

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
        layer's epoch publication hook), then trigger the automatic intern
        sweep when ``intern_gc`` is configured (skipped while any generation
        is open — an enclosing computation's terms are not yet pinnable).
        The update's own summary is pinned through the sweep: its removed
        atoms just left the store, but the caller has not even received them
        yet, so evicting them here would hand back stale twins."""
        for listener in tuple(self._update_listeners):
            listener(result)
        self._updates_since_collect += 1
        every = self._intern_gc_every
        if every is not None and self._updates_since_collect >= every \
                and current_generation() == 0:
            self.collect(
                pins=result.added + result.removed
                + result.undefined_added + result.undefined_removed
            )

    def pin(self, terms):
        """Keep ``terms`` (a :class:`~repro.hilog.terms.Term` or an iterable
        of them) canonical across every future collection, including the
        automatic ``intern_gc`` sweeps, until :meth:`unpin`.

        This is the retention mechanism for results the session handed out
        — :class:`UpdateSummary` atoms, since-retracted query answers —
        that a caller keeps beyond the next update: automatic sweeps pin
        only the *pending* update's summary, so older held atoms would
        otherwise be evicted and stop matching the live model (terms
        compare by identity).  Re-obtaining a term at top level (parsing
        its text while no generation is open) promotes it to immortal and
        is the zero-bookkeeping alternative.
        """
        if isinstance(terms, Term):
            terms = (terms,)
        for term in terms:
            if not isinstance(term, Term):
                raise TypeError("pin() takes Terms, got %r" % (term,))
            self._pinned[term] = None

    def unpin(self, terms=None):
        """Release pins taken by :meth:`pin` (all of them when ``terms`` is
        ``None``); the terms become reclaimable at the next collection."""
        if terms is None:
            self._pinned.clear()
            return
        if isinstance(terms, Term):
            terms = (terms,)
        for term in terms:
            self._pinned.pop(term, None)

    def collect(self, pins=()):
        """Sweep the global term intern tables: evict every term born in a
        closed generation (this session's past updates, other sessions',
        explicit :func:`~repro.hilog.terms.intern_generation` blocks) that
        no registered pin provider — and no root in ``pins`` — reaches.

        With churn-heavy workloads this is what keeps
        :func:`~repro.hilog.terms.intern_table_sizes` bounded by the *live*
        fact volume instead of growing with every constant ever seen.  Pass
        ``pins`` for terms you received from the session and still hold —
        :meth:`query` answers and :class:`UpdateSummary` atom tuples pin
        directly (``collect(pins=answers)``), substitutions through
        ``Substitution.pin_roots()``.  Returns the collection stats dict.
        """
        started = _perf_counter()
        stats = collect_generation(pins=pins)
        # Reset only after a successful sweep: a GenerationError (collect
        # inside an open generation) must not postpone the next auto-gc.
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

    def insert(self, facts):
        """Assert facts; maintain the model.  Returns an :class:`UpdateSummary`."""
        with intern_generation():
            result = self._apply(self._coerce_facts(facts), [])
        self._after_update(result)
        return result

    def retract(self, facts):
        """Retract facts; maintain the model.  Returns an :class:`UpdateSummary`."""
        with intern_generation():
            result = self._apply([], self._coerce_facts(facts))
        self._after_update(result)
        return result

    def update(self, inserts=(), retracts=()):
        """Apply assertions and retractions as one batch."""
        with intern_generation():
            result = self._apply(
                self._coerce_facts(inserts), self._coerce_facts(retracts)
            )
        self._after_update(result)
        return result

    def transaction(self):
        """A :class:`Transaction` staging updates for one atomic commit.

        Raises :class:`SessionError` while a previously opened transaction
        is still staging (not yet committed or rolled back): interleaving
        two staging batches on one session corrupts the last-operation-wins
        merge and the pin bookkeeping, so re-entrant/nested use is rejected
        up front.  A transaction that is simply dropped (garbage collected)
        without closing releases the slot."""
        active = self._active_transaction() \
            if self._active_transaction is not None else None
        if active is not None and not active._closed:
            raise SessionError(
                "a transaction is already open on this session; commit or "
                "roll it back before opening another (nested/re-entrant "
                "transactions are not supported)"
            )
        transaction = Transaction(self)
        self._active_transaction = weakref.ref(transaction)
        return transaction

    def _owning_stratum(self, atom):
        """The stratum index defining the atom's predicate, or ``None`` for
        purely extensional predicates."""
        indicator = predicate_indicator(atom)
        owner = self._owner.get(indicator)
        if owner is not None:
            return owner
        return self._unknown_stratum

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
                alternations=stats["alternations"],
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
        self._edb.update(ins)
        self._edb.difference_update(rem)
        self._version += 1
        self._stats["updates"] += 1

        if self._mode != INCREMENTAL:
            return self._apply_by_recompute(ins, rem)

        delta = Delta()
        base_ins, base_rem = [], []
        stratum_ins, stratum_rem = {}, {}
        for atom in ins:
            owner = self._owning_stratum(atom)
            if owner is None:
                base_ins.append(atom)
            else:
                stratum_ins.setdefault(owner, []).append(atom)
        for atom in rem:
            owner = self._owning_stratum(atom)
            if owner is None:
                base_rem.append(atom)
            else:
                stratum_rem.setdefault(owner, []).append(atom)

        try:
            for atom in base_ins:
                self._limits.check(atom, self._store)
                if self._store.add_support(atom):
                    delta.record_add(atom)
            for atom in base_rem:
                if self._store.remove_support(atom):
                    delta.record_remove(atom)

            touched = 0
            for index, plans in enumerate(self._plans):
                edb_added = stratum_ins.get(index, [])
                edb_removed = stratum_rem.get(index, [])
                if not edb_added and not edb_removed and not delta.touches(plans.reads):
                    continue
                touched += 1
                self._maintain_stratum(plans, delta, edb_added, edb_removed)
        except HiLogError as error:
            # Disaster path: the incremental machinery failed mid-update
            # (resource cap, integrity check) and may have left the store
            # half-mutated.  Rebuild the *pre-update* model first so the
            # summary can report an accurate diff, then rebuild with the
            # new EDB; if the latter fails (the update itself is
            # unevaluable, e.g. it blows the fact cap), stay at the
            # pre-update state and surface the failure.
            self._stats["rebuilds"] += 1
            self._edb.difference_update(ins)
            self._edb.update(rem)
            self._version += 1
            self._materialize()
            old_true = frozenset(self._store)
            self._edb.update(ins)
            self._edb.difference_update(rem)
            self._version += 1
            try:
                self._materialize()
            except HiLogError:
                self._edb.difference_update(ins)
                self._edb.update(rem)
                self._version += 1
                self._materialize()
                raise error
            new_true = frozenset(self._store)
            return UpdateSummary(
                inserted=len(ins),
                retracted=len(rem),
                added=tuple(new_true - old_true),
                removed=tuple(old_true - new_true),
                strata_touched=0,
                mode="rebuild",
            )

        return UpdateSummary(
            inserted=len(ins),
            retracted=len(rem),
            added=tuple(delta.added),
            removed=tuple(delta.removed),
            strata_touched=touched,
            mode=INCREMENTAL,
        )

    def _maintain_stratum(self, plans, delta, edb_added, edb_removed):
        try:
            if plans.strategy == COUNTING:
                counting_update(
                    plans, self._store, delta, edb_added, edb_removed, self._limits
                )
                self._stats["counting_updates"] += 1
            elif plans.strategy == DRED:
                dred_update(
                    plans, self._store, delta, self._edb, edb_added, edb_removed,
                    self._limits,
                )
                self._stats["dred_updates"] += 1
            else:
                recompute_stratum(plans, self._store, delta, self._edb, self._limits)
                self._stats["recompute_updates"] += 1
        except HiLogError:
            if plans.strategy == RECOMPUTE or plans.head_indicators is None:
                raise
            # A delta invalidated the settled stratum in a way the
            # incremental step could not absorb: recompute just this stratum.
            self._stats["stratum_fallbacks"] += 1
            recompute_stratum(plans, self._store, delta, self._edb, self._limits)

    def _apply_by_recompute(self, ins, rem):
        old_true = frozenset(self._store)
        old_undefined = self._undefined
        if self._mode == WELLFOUNDED:
            self._stats["wellfounded_updates"] += 1
        else:
            self._stats["recompute_mode_updates"] += 1
        try:
            self._materialize()
        except HiLogError:
            # Roll the EDB change back; the update made the program
            # unevaluable (e.g. no longer modularly stratified).
            self._edb.difference_update(ins)
            self._edb.update(rem)
            self._version += 1
            raise
        new_true = frozenset(self._store)
        return UpdateSummary(
            inserted=len(ins),
            retracted=len(rem),
            added=tuple(new_true - old_true),
            removed=tuple(old_true - new_true),
            strata_touched=0,
            mode=self._mode,
            undefined_added=tuple(self._undefined - old_undefined),
            undefined_removed=tuple(old_undefined - self._undefined),
        )

    # -- reads --------------------------------------------------------------

    def __len__(self):
        return len(self._store)

    def __contains__(self, atom):
        return atom in self._store

    def ask(self, atom):
        """Whether a ground atom is *true* in the maintained model.

        In well-founded mode the model may be partial: an undefined atom
        answers ``False`` here (it is not certainly true) — use
        :meth:`value` for the three-valued verdict.
        """
        if isinstance(atom, str):
            with intern_generation():
                atom = parse_term(atom)
        if not atom.is_ground():
            raise GroundingError("ask() needs a ground atom, got %r" % (atom,))
        return atom in self._store

    def value(self, atom):
        """The three-valued verdict for a ground atom: ``"true"``,
        ``"undefined"`` or ``"false"`` (closed world).  Outside well-founded
        mode the maintained model is total, so this never answers
        ``"undefined"``."""
        if isinstance(atom, str):
            with intern_generation():
                atom = parse_term(atom)
        if not atom.is_ground():
            raise GroundingError("value() needs a ground atom, got %r" % (atom,))
        if atom in self._store:
            return "true"
        if atom in self._undefined:
            return "undefined"
        return "false"

    def explain(self, fact):
        """Why is this ground atom true (or undefined)?  Returns a
        :class:`~repro.obs.explain.Derivation` tree.

        A true atom gets a proof: a rule instance re-verified against the
        store, its positive body facts recursively explained down to the
        EDB (in incremental mode the maintenance bundles' head-bound
        rederivation plans pre-filter candidate rules, and counting-stratum
        support counts annotate each node).  In well-founded mode an
        undefined atom gets a negation-loop witness: a chain of
        overestimate rule instances hinging on undefined subgoals until the
        chain bites its own tail — the negation SCC the alternating
        fixpoint could not resolve.  A false atom returns a single
        ``"false"`` node.  Raises
        :class:`~repro.obs.explain.ExplainError` for non-ground input and
        atoms derivable only through aggregates.
        """
        from repro.obs.explain import ExplainError, explain_atom

        if isinstance(fact, str):
            with intern_generation():
                fact = parse_term(fact)
        if not isinstance(fact, Term):
            raise ExplainError("explain() takes a ground atom or its text, "
                               "got %r" % (fact,))
        return explain_atom(
            fact, self._rules, self._store,
            edb=frozenset(self._edb), undefined=self._undefined,
            plans=self._plans,
        )

    def query(self, query):
        """Answer a query against the maintained model.

        Every query is answered straight from the store's indexes (the
        session-backed path of
        :func:`repro.core.magic.evaluate.answer_from_store`): the store
        holds exactly the model's *true* atoms, so the evaluating paths'
        answer contract — the true ground instances of the first query
        atom — reduces to an indexed match, whatever the query's shape.
        In well-founded mode the model may be partial: undefined instances
        are not certainly true and hence never answered — inspect
        :attr:`undefined` / :meth:`value` for the third truth value.
        """
        if isinstance(query, str):
            with intern_generation():
                query = parse_query(query)
        if isinstance(query, Term):
            query = (Literal(query),)
        else:
            query = tuple(query)
        if not query:
            raise ValueError("empty query")
        return answer_from_store(self._store, query).answers

    @property
    def true(self):
        """The maintained model's true atoms (a fresh frozenset, O(n))."""
        return frozenset(self._store)

    @property
    def undefined(self):
        """The maintained model's undefined atoms (empty outside
        well-founded mode — the other modes maintain total models)."""
        return self._undefined

    def is_total(self):
        """True when the maintained model leaves nothing undefined."""
        return not self._undefined

    def model(self):
        """The maintained model as an :class:`Interpretation`: total in
        incremental/recompute mode, possibly partial (true atoms explicit,
        undefined atoms in the base) in well-founded mode."""
        true = frozenset(self._store)
        return Interpretation(true=true, base=true | self._undefined)

    def facts(self, name, arity):
        """The maintained extension of one predicate indicator."""
        if isinstance(name, str):
            with intern_generation():
                name = parse_term(name)
        return tuple(self._store.facts(name, arity))

    def edb(self):
        """The current extensional database (asserted facts)."""
        return frozenset(self._edb)

    @property
    def mode(self):
        """``"incremental"``, ``"wellfounded"`` or ``"recompute"``."""
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
        """Maintenance strategy per stratum (empty in recompute mode)."""
        if self._plans is None:
            return ()
        return tuple(plans.strategy for plans in self._plans)

    def stats(self):
        """Counters and sizes describing the session so far."""
        info = dict(self._stats)
        info.update(
            mode=self._mode,
            facts=len(self._store),
            undefined_facts=len(self._undefined),
            edb_facts=len(self._edb),
            strata=len(self._plans) if self._plans is not None else 0,
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

    def recompute_reference(self):
        """The from-scratch model the session's mode is accountable to.

        Incremental sessions replay :func:`~repro.engine.seminaive.seminaive_evaluate`
        (stratum-by-stratum semantics, aggregates folding over the full
        condition extension); well-founded sessions replay
        :func:`~repro.engine.seminaive.wellfounded.seminaive_well_founded`;
        recompute sessions replay the Figure-1 procedure they are built on.
        Returns a frozenset of true atoms.
        """
        # The evaluation's transient terms live in their own generation, so
        # paranoid deployments calling check() under churn do not accrete
        # immortal intermediates.  Atoms of the returned model that are in
        # the maintained store stay pinned through it; divergent atoms are
        # sweepable once the caller lets go of the result.
        with intern_generation():
            if self._mode == INCREMENTAL:
                return seminaive_evaluate(
                    self._rules, extra_facts=self._sorted_edb(),
                    max_facts=self._limits.max_facts,
                    max_term_depth=self._limits.max_term_depth,
                ).true
            if self._mode == WELLFOUNDED:
                return self._wellfounded_from_scratch().true
            return perfect_model_for_hilog(
                self._full_program(), strategy="seminaive",
                max_atoms=self._limits.max_facts,
            ).true

    def check(self):
        """Verify the maintained model against a from-scratch recomputation
        (:meth:`recompute_reference`); well-founded sessions additionally
        verify the undefined partition.

        As the module docstring notes, each mode is accountable to the
        evaluator it is built on: for incremental sessions this catches
        maintenance-algorithm bugs, while for recompute/well-founded
        sessions — which already rematerialize through the same evaluator
        on every update — it validates the session's state bookkeeping
        (EDB tracking, rollbacks, partition sync), not the evaluator
        itself.  Engine correctness is covered independently by the
        differential harness against the ground oracles
        (``tests/engine/test_wellfounded_agreement.py``).

        Returns ``True`` on agreement; raises :class:`SessionIntegrityError`
        with sample differences otherwise.  Intended for tests, benchmarks
        and paranoid deployments — it costs a full evaluation.
        """
        scratch_undefined = self._undefined
        if self._mode == WELLFOUNDED:
            with intern_generation():
                reference = self._wellfounded_from_scratch()
            scratch = reference.true
            scratch_undefined = reference.undefined
        else:
            scratch = self.recompute_reference()
        maintained = frozenset(self._store)
        if maintained == scratch and self._undefined == scratch_undefined:
            return True
        missing = sorted(map(repr, (scratch - maintained)
                             | (scratch_undefined - self._undefined)))[:5]
        spurious = sorted(map(repr, (maintained - scratch)
                              | (self._undefined - scratch_undefined)))[:5]
        raise SessionIntegrityError(
            "maintained model diverged from recomputation: missing %s, "
            "spurious %s" % (missing, spurious)
        )


def open_session(program, **kwargs):
    """Convenience constructor: ``open_session(text_or_program, ...)``."""
    return DatabaseSession(program, **kwargs)
