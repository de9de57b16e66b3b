"""Exception hierarchy for the HiLog substrate."""


class HiLogError(Exception):
    """Base class for all errors raised by the HiLog reproduction library."""


class ParseError(HiLogError):
    """Raised when HiLog source text cannot be parsed.

    Attributes:
        message: human readable description of the problem.
        line: 1-based line number of the offending token, when known.
        column: 1-based column number of the offending token, when known.
    """

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = " at line %d" % line
            if column is not None:
                location += ", column %d" % column
        super().__init__(message + location)
        self.message = message
        self.line = line
        self.column = column


class DiagnosticError(HiLogError):
    """Raised when static analysis rejects a program (strict validation).

    Attributes:
        diagnostics: the :class:`repro.lint.Diagnostics` report that caused
            the rejection.  The message embeds its human-readable rendering
            so uncaught errors still cite codes and source spans.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class UnificationError(HiLogError):
    """Raised when two terms cannot be unified and the caller asked to raise."""


class GroundingError(HiLogError):
    """Raised when a program cannot be grounded under the requested policy.

    The usual cause is an unsafe rule: a variable in the head or in a negative
    literal that never becomes bound by a positive body literal, so the set of
    relevant instances is not finite.
    """


class EvaluationError(HiLogError):
    """Raised when evaluation of a (ground) program fails.

    Examples include arithmetic builtins applied to non-numeric arguments and
    aggregate groups over undefined subgoals.
    """


class StratificationError(HiLogError):
    """Raised when a program fails a stratification condition that the caller
    required (for example when asking for the perfect-model evaluation of a
    program that is not modularly stratified)."""


class FrozenStoreError(HiLogError):
    """Raised when a mutator is invoked on a frozen relation store.

    Snapshot epochs (:mod:`repro.serve`) freeze the stores concurrent
    readers see; any attempt to add or remove facts through a frozen view
    is a bug in the caller, not a recoverable condition."""


class DurabilityError(HiLogError):
    """Base class for the durability subsystem (:mod:`repro.durable`):
    write-ahead log, snapshot checkpoints and crash recovery."""


class CorruptWal(DurabilityError):
    """A write-ahead log frame failed validation (bad CRC, impossible
    length, truncated payload).  Recovery does not *raise* this for a torn
    tail — it truncates at the first bad frame and reports the damage in
    the recovery details — but direct frame reads and mid-file corruption
    surface it.

    Attributes:
        path: the WAL file.
        offset: byte offset of the first bad frame.
    """

    def __init__(self, message, path=None, offset=None):
        super().__init__(message)
        self.path = path
        self.offset = offset


class CorruptSnapshot(DurabilityError):
    """A snapshot file failed validation (bad magic, CRC mismatch,
    undecodable body, or ids in a valid body that name no term or the
    wrong relation).  Recovery falls back past corrupt snapshots to the
    newest valid one and reports each casualty in the recovery details.

    Attributes:
        path: the snapshot file.
    """

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class LockHeld(DurabilityError):
    """Another live session holds the data directory's single-writer
    lockfile.  Two writers interleaving WAL appends would corrupt the log,
    so opening fails fast instead.

    Attributes:
        path: the lockfile.
        holder: pid recorded by the holding process, when readable.
    """

    def __init__(self, message, path=None, holder=None):
        super().__init__(message)
        self.path = path
        self.holder = holder
