"""The benchmark's own in-memory span tracer.

One span per call into a layer: name, start, end, the span that caused
it, an ``op`` identifier shared by all spans of one request, and the
counts taken at that boundary.  Spans stay in memory and are written out
when the run ends.  The program's own ``--trace-log`` /
``EvaluationTracer`` are deliberately not used: spans inside ``src/repro``
are a later change.
"""

import itertools
import time

from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stack = []

    def record(self, name, start, end, parent=None, op=None, span_id=None,
               **counts):
        """Append a finished span; returns its id.  Safe to call from the
        client threads (one list append under the interpreter lock)."""
        if span_id is None:
            span_id = next(self._ids)
        self.spans.append({
            "id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "op": op, "counts": counts,
        })
        return span_id

    @contextmanager
    def span(self, name, op=None):
        """Time a block on the calling thread; nested spans take the
        enclosing one as parent.  Yields the span's ``counts`` dict, and
        leaves the duration in ``counts["seconds"]`` for the caller."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        counts = {}
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._stack.pop()
            counts["seconds"] = end - start
            self.record(name, start, end, parent, op, span_id, **counts)

    def self_seconds(self):
        """Total self time per span name: a span's duration minus the part
        of that interval its child spans cover."""
        children = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"]))
        totals = {}
        for span in self.spans:
            covered = 0.0
            cursor = span["start"]
            for start, end in sorted(children.get(span["id"], ())):
                start = max(start, cursor)
                end = min(end, span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            own = (span["end"] - span["start"]) - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def to_dict(self):
        origin = min((span["start"] for span in self.spans), default=0.0)
        spans = [dict(span, start=span["start"] - origin,
                      end=span["end"] - origin) for span in self.spans]
        return {"spans": spans, "self_seconds": self.self_seconds()}
