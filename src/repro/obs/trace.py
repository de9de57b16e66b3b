"""Opt-in structured tracing of evaluation, maintenance, and serving.

A tracer is an in-memory ring buffer of structured events (plain dicts:
``{"kind": ..., "seq": ..., "ts": ..., **fields}``) plus an optional JSON
Lines sink.  The engine, the well-founded alternation, the session update
path, and the HTTP server all emit through :func:`current_tracer`; when no
tracer is installed (the default), each hook costs a single contextvar read
per *operation* — never per candidate fact — so the hot loops stay exactly
as fast as before this layer existed.

Event kinds currently emitted:

``iteration``    one semi-naive fixpoint round (delta size)
``stratum``      one stratum evaluated to fixpoint (iterations, added,
                 duration, register fetch/candidate deltas)
``evaluate``     a full program evaluation, perfect or well-founded model
                 alike (strata, iterations, alternations, true and
                 undefined facts)
``alternation``  one alternating-fixpoint round (overestimate/underestimate
                 layer sizes; ``overdeleted`` atoms the round took out of
                 the overestimate, ``rederived`` of them it put back,
                 ``removed`` that stayed out and reseeded the
                 underestimate — all 0 on a stratum's first round, which
                 builds both estimates from scratch)
``specialise``   name-open rules compiled into ground-named instances for
                 one round of binder answers (instances, strata, duration);
                 absent when the memoised specialisation was reused
``maintenance``  one session update batch (mode, op counts, delta sizes,
                 duration, register stats, alternations, and ``cone``: the
                 atoms the cone steps of a well-founded write re-alternated)
``cone``         one stratum of a well-founded session patched by the cone
                 step (cone atoms, undefined among them, alternations)
``collect``      an intern-table sweep (swept/kept sizes, duration)
``rebase``       an epoch-manager overlay rebase into a fresh base snapshot
``slow_request`` an HTTP request slower than the server's slow-query bar

**Breaking change to the trace format (PR 19):** the ``wellfounded``
summary event (``strata``, ``iterations``, ``alternations``, ``true``,
``undefined``, ``duration_s``) is no longer emitted.  The two evaluators
became one stratum walk, which ends every evaluation in one ``evaluate``
event with those fields — ``facts=`` is what ``true=`` was.  A consumer
that selects JSONL lines by ``kind == "wellfounded"`` must select
``evaluate`` instead; ``alternation`` events are unchanged.

Install a tracer for a scope with ``tracing(tracer)`` (contextvar, test
friendly) or process-wide with ``set_global_tracer`` (what the serving CLI
``--trace-log`` flag does — contextvars set in the main thread are not
visible to the already-running writer thread, so the global fallback is
what makes writer-side maintenance spans reach the sink).
"""

from __future__ import annotations

import contextlib
import contextvars
import io
import json
import threading
import time
from collections import deque

__all__ = [
    "EvaluationTracer",
    "current_tracer",
    "set_global_tracer",
    "tracing",
    "untraced",
]


class EvaluationTracer(object):
    """Ring buffer of structured events with an optional JSONL sink."""

    def __init__(self, capacity=4096, sink=None):
        self._events = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._owns_sink = False
        if isinstance(sink, str):
            sink = io.open(sink, "a", encoding="utf-8")
            self._owns_sink = True
        self._sink = sink

    # -- emission ----------------------------------------------------------

    def emit(self, kind, **fields):
        event = dict(fields)
        event["kind"] = kind
        event["ts"] = time.time()
        with self._lock:
            event["seq"] = self._seq
            self._seq += 1
            self._events.append(event)
            sink = self._sink
            if sink is not None:
                try:
                    sink.write(json.dumps(event, sort_keys=True, default=str))
                    sink.write("\n")
                    sink.flush()
                except (OSError, ValueError):
                    self._sink = None  # dead sink: keep the ring alive
        return event

    @contextlib.contextmanager
    def span(self, kind, **fields):
        """Timed event: yields a mutable field dict the caller may extend;
        on exit the event is emitted with a measured ``duration_s``."""
        span_fields = dict(fields)
        started = time.perf_counter()
        try:
            yield span_fields
        finally:
            span_fields["duration_s"] = time.perf_counter() - started
            self.emit(kind, **span_fields)

    # -- read side ---------------------------------------------------------

    def events(self, kind=None):
        with self._lock:
            snapshot = list(self._events)
        if kind is None:
            return snapshot
        return [event for event in snapshot if event["kind"] == kind]

    def __len__(self):
        return len(self._events)

    def clear(self):
        with self._lock:
            self._events.clear()

    def close(self):
        with self._lock:
            sink, self._sink = self._sink, None
        if sink is not None and self._owns_sink:
            try:
                sink.close()
            except OSError:
                pass


_GLOBAL_TRACER = None
_TRACER_VAR = contextvars.ContextVar("repro_tracer", default=None)
#: The scope value of :func:`untraced`: no tracer, not even the global one.
_UNTRACED = object()


def current_tracer():
    """The installed tracer, or None (the fast default).

    Contextvar override first — ``tracing(...)`` and ``untraced()`` scopes
    — then the process global set by ``set_global_tracer`` (which
    background threads see)."""
    tracer = _TRACER_VAR.get()
    if tracer is not None:
        return None if tracer is _UNTRACED else tracer
    return _GLOBAL_TRACER


def set_global_tracer(tracer):
    """Install ``tracer`` process-wide; returns the previous global."""
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return previous


@contextlib.contextmanager
def tracing(tracer):
    """Scope ``current_tracer()`` to ``tracer`` inside the with-block."""
    token = _TRACER_VAR.set(tracer)
    try:
        yield tracer
    finally:
        _TRACER_VAR.reset(token)


@contextlib.contextmanager
def untraced():
    """Emit nothing inside the with-block, whatever tracer is installed —
    for work that is not the traced computation's own, such as a session
    check's reference evaluation."""
    token = _TRACER_VAR.set(_UNTRACED)
    try:
        yield
    finally:
        _TRACER_VAR.reset(token)
