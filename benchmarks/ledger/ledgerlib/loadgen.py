"""The closed-loop load generator: one client on one keep-alive connection,
which sends its next request only when the previous reply has arrived
(callers of a database wait for their answer).

Requests are encoded before the run and replies are kept as raw bytes, so
inside the measured window the client does nothing but send, wait and read
the clock; decoding and checking happen after the clock has stopped.

The traffic is sent in *segments*: between two segments the server sits
idle while the run takes its other samples (a cold start, a restart, a
batch evaluation), so every metric's samples span the whole run and a
disturbance of a few seconds spoils a minority of each.
"""

import http.client
import time

from collections import namedtuple

from .serverproc import HOST, REQUEST_TIMEOUT

#: One completed request: the op's index in the list; when the client
#: turned to it (the previous reply in hand, or the segment's start), sent
#: it and had its reply (``perf_counter``); HTTP status (0: no reply at
#: all) and raw body; whether it counts as measured (else warm-up) and
#: whether the client-side tracer was on for it.
Reply = namedtuple(
    "Reply", "index began sent received status raw measured traced")

#: Ops per block when the traced run alternates tracing on and off.
TRACE_BLOCK = 16

_HEADERS = {"Content-Type": "application/json"}


class Client:
    """The one client of a traffic phase; works through ``ops`` in order
    over as many segments as the caller asks for."""

    def __init__(self, port, ops, tracer=None):
        self.ops = ops
        self.replies = []
        self._tracer = tracer
        self._connection = http.client.HTTPConnection(
            HOST, port, timeout=REQUEST_TIMEOUT)

    @property
    def exhausted(self):
        return len(self.replies) >= len(self.ops)

    def run(self, seconds, measured=True):
        """Send ops for ``seconds`` seconds (or until they run out)."""
        tracer = self._tracer
        connection = self._connection
        received = time.perf_counter()
        deadline = received + seconds
        for index in range(len(self.replies), len(self.ops)):
            if received >= deadline:
                break
            op = self.ops[index]
            traced = tracer is not None and (index // TRACE_BLOCK) % 2 == 1
            began = received
            sent = time.perf_counter()
            try:
                connection.request("POST", op.path, op.body, _HEADERS)
                flushed = time.perf_counter() if traced else None
                response = connection.getresponse()
                raw = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                # Refused, reset or timed out: counted as failed, and the
                # next request needs a fresh connection.
                status, raw, flushed = 0, b"", None
                connection.close()
            received = time.perf_counter()
            if traced and flushed is not None:
                op_id = "c/%d" % index
                root = tracer.record("client.request", sent, received,
                                     op=op_id, path=op.path,
                                     bytes_in=len(raw))
                tracer.record("client.send", sent, flushed, parent=root,
                              op=op_id)
                tracer.record("client.wait", flushed, received, parent=root,
                              op=op_id)
            self.replies.append(Reply(index, began, sent, received, status,
                                      raw, measured, traced))

    def close(self):
        self._connection.close()
