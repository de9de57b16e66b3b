"""Asyncio HTTP front end for a :class:`~repro.serve.session.ServingSession`.

A deliberately small HTTP/1.1 server on the standard library only — enough
protocol for clients, curl and the bundled CLI, not a framework.  Reads
(``/query``, ``/ask``, ``/value``) are answered inline on the event loop:
take the current epoch, read it, respond, with no ``await`` in between.
Epochs are frozen and a read holds the interpreter lock throughout, so a
thread pool would buy no parallelism, only a hop to it and back.  Writes
go through the serving session's bounded queue.  Each request on a
connection gets one deadline, ``request_timeout`` after the server starts
waiting for it: it bounds reading the request and waiting for the writer
thread, and creates no task of its own.

Endpoints (JSON in, JSON out):

``POST /query``    ``{"query": "tc(a, X)"}``
    → ``{"answers": [...], "count": n, "epoch": eid}``
``POST /ask``      ``{"atom": "tc(a, b)"}`` → ``{"result": true}``
``POST /value``    ``{"atom": ...}`` → ``{"value": "true"|"undefined"|"false"}``
``POST /insert``   ``{"facts": "e(a, b). e(b, c)."[, "wait": false]}``
``POST /retract``  ``{"facts": ...[, "wait": false]}``
    → the batch's update summary, or ``{"queued": true}`` with
    ``"wait": false`` (fire-and-forget; parse errors surface in stats only)
``GET  /explain``  ``?q=tc(a,%20b)`` → the atom's derivation tree
    (:meth:`~repro.db.session.DatabaseSession.explain`, computed on the
    writer thread)
``GET  /metrics``  the process metrics registry in Prometheus text
    exposition format (request-latency histograms, writer-queue gauges,
    session maintenance metrics)
``GET  /stats``    serving-layer statistics, per-endpoint request counts,
    and the slow-query log
``GET  /healthz``  liveness probe: ``503`` once the writer thread has
    died or the serving session is closed — not an unconditional 200

Error mapping: a full write queue answers ``503`` with a ``Retry-After``
header (backpressure is the client's problem to pace, not the server's to
buffer); a write or ``/explain`` the writer has not answered by the
deadline answers ``504``, and a connection that has not sent a whole
request by then is dropped;
malformed input answers ``400`` — a bad request line, header or JSON body,
a missing field, HiLog text the parser or the reader rejects (a
:class:`~repro.hilog.errors.ParseError` on any endpoint, a non-ground
``/ask`` or ``/value``), a write that is the request's fault
(:data:`_CLIENT_ERRORS`); ``500`` is left for genuine faults.

Every request lands in the ``"http"`` metric family
(``repro_http_request_seconds`` histogram, ``repro_http_requests``
counters labelled by endpoint and status), and requests slower than
``slow_query_ms`` are kept in a bounded in-memory slow-query log (also
emitted as ``slow_request`` trace events when a tracer is installed).
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
import urllib.parse

from collections import deque

from repro.hilog.errors import (
    EvaluationError,
    GroundingError,
    HiLogError,
    ParseError,
    StratificationError,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import current_tracer
from repro.serve.session import ServingClosed, ServingSession, WriteQueueFull

#: Refuse request bodies beyond this size (1 MiB) — the write path is for
#: update streams, not bulk loads; use the CLI ``load`` command for those.
MAX_BODY = 1 << 20

#: What the writer thread raises about the *request* — text that does not
#: parse, a rule where facts are required, a non-ground atom, an update the
#: session rolled back as unevaluable — and the client can fix: ``400``.
#: Anything else out of the writer (``OSError`` from the WAL,
#: ``DurabilityError``, ``SessionError``) is the server's fault: ``500``.
_CLIENT_ERRORS = (
    ParseError, GroundingError, EvaluationError, StratificationError,
    ValueError, TypeError,
)

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class _HttpError(Exception):
    """A response-shaped error raised by request handling."""

    def __init__(self, status, message, headers=()):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = tuple(headers)


class ServeServer:
    """The HTTP server bound to one serving session.

    Args:
        serving: the :class:`ServingSession` to expose.
        host / port: bind address (port 0 picks a free port; see
            :attr:`address` after :meth:`start`).
        request_timeout: per-request deadline in seconds, armed when the
            server starts waiting for a request on a connection — covers
            reading the request and waiting for the writer thread (a write
            batch, ``/explain``).  A read answers inline, within the loop
            turn that parsed it, and is not cut short.
        slow_query_ms: requests slower than this (milliseconds) land in
            the slow-query log (``/stats``) and, when a tracer is
            installed, emit ``slow_request`` trace events.
    """

    #: Endpoints that get their own metric label; anything else (404
    #: scans, typos) collapses into ``"other"`` so label cardinality
    #: stays bounded no matter what clients throw at the port.
    ENDPOINTS = frozenset((
        "/query", "/ask", "/value", "/insert", "/retract",
        "/explain", "/metrics", "/stats", "/healthz",
    ))

    #: Slow-query log depth — a diagnostic window, not an archive.
    SLOW_LOG_CAPACITY = 64

    def __init__(self, serving, host="127.0.0.1", port=8273,
                 request_timeout=10.0, slow_query_ms=500.0):
        self._serving = serving
        self._host = host
        self._port = port
        self._timeout = request_timeout
        self._slow_query_ms = slow_query_ms
        self._server = None
        self._requests = 0
        self._requests_by_endpoint = {}
        self._slow_log = deque(maxlen=self.SLOW_LOG_CAPACITY)

    @property
    def address(self):
        """``(host, port)`` actually bound (after :meth:`start`)."""
        sockets = self._server.sockets if self._server is not None else None
        if not sockets:
            return (self._host, self._port)
        return sockets[0].getsockname()[:2]

    async def start(self):
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port,
        )
        return self

    async def serve_forever(self):
        """Run until cancelled (:meth:`start` must have completed)."""
        async with self._server:
            await self._server.serve_forever()

    async def stop(self):
        """Stop accepting connections (the serving session itself is left
        to its owner)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer):
        loop = asyncio.get_running_loop()
        try:
            while True:
                # The request's deadline.  A connection still short of a
                # whole request at it is dropped: closing the transport
                # ends the pending read at EOF (a timer, where ``wait_for``
                # would wrap the read in a task).  The writer's future is
                # awaited with what remains.
                deadline = loop.time() + self._timeout
                expiry = loop.call_at(deadline, writer.close)
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    await self._respond_error(writer, error, close=True)
                    break
                finally:
                    expiry.cancel()
                if request is None:
                    break  # client closed, or the deadline passed
                method, path, keep_alive, body = request
                endpoint = path.partition("?")[0]
                if endpoint not in self.ENDPOINTS:
                    endpoint = "other"
                started = time.perf_counter()
                try:
                    status, payload = await self._dispatch(
                        method, path, body, deadline)
                except asyncio.TimeoutError:
                    self._observe(endpoint, 504, started, method, path)
                    await self._respond_error(writer, _HttpError(
                        504, "request exceeded %.1fs" % self._timeout,
                    ), close=True)
                    break
                except _HttpError as error:
                    self._observe(endpoint, error.status, started,
                                  method, path)
                    await self._respond_error(writer, error,
                                              close=not keep_alive)
                    if not keep_alive:
                        break
                    continue
                except Exception as error:  # surface, don't kill the server
                    self._observe(endpoint, 500, started, method, path)
                    await self._respond_error(writer, _HttpError(
                        500, "%s: %s" % (type(error).__name__, error),
                    ), close=not keep_alive)
                    if not keep_alive:
                        break
                    continue
                self._observe(endpoint, status, started, method, path)
                await self._respond(writer, status, payload,
                                    close=not keep_alive)
                if not keep_alive:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        """Parse one request into ``(method, path, keep_alive, body)``;
        ``None`` on a closed connection — cleanly between requests, or
        part-way through one."""
        line = await self._read_line(reader)
        if not line:
            return None
        try:
            method, path, version = line.decode("latin-1").split(None, 2)
        except ValueError:
            raise _HttpError(400, "malformed request line")
        headers = {}
        while True:
            line = await self._read_line(reader)
            if not line:
                return None
            if line in (b"\r\n", b"\n"):
                break
            try:
                name, value = line.decode("latin-1").split(":", 1)
            except ValueError:
                raise _HttpError(400, "malformed header")
            headers[name.strip().lower()] = value.strip().lower()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            raise _HttpError(400, "bad Content-Length")
        if length > MAX_BODY:
            raise _HttpError(413, "body exceeds %d bytes" % MAX_BODY)
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            return None  # closed before the body it announced arrived
        # HTTP/1.1 keeps a connection open unless told to close; HTTP/1.0
        # closes it unless asked to keep it alive.
        tokens = {token.strip()
                  for token in headers.get("connection", "").split(",")}
        if version.strip().upper() == "HTTP/1.0":
            keep_alive = "keep-alive" in tokens
        else:
            keep_alive = "close" not in tokens
        return method.upper(), path, keep_alive, body

    @staticmethod
    async def _read_line(reader):
        try:
            return await reader.readline()
        except ValueError:  # longer than the stream's 64 KiB line limit
            raise _HttpError(400, "request line or header too long")

    # -- observation ---------------------------------------------------------

    def _observe(self, endpoint, status, started, method, path):
        """Record one finished request: counters, latency, slow log."""
        duration = time.perf_counter() - started
        self._requests += 1
        self._requests_by_endpoint[endpoint] = (
            self._requests_by_endpoint.get(endpoint, 0) + 1
        )
        registry = get_registry()
        registry.histogram(
            "repro_http_request_seconds",
            "HTTP request latency in seconds, by endpoint.",
            family="http", labels={"endpoint": endpoint},
        ).observe(duration)
        registry.counter(
            "repro_http_requests",
            "HTTP requests served, by endpoint and status.",
            family="http",
            labels={"endpoint": endpoint, "status": str(status)},
        ).inc()
        if duration * 1000.0 >= self._slow_query_ms:
            entry = {
                "method": method, "path": path, "status": status,
                "duration_ms": round(duration * 1000.0, 3),
                "ts": time.time(),
            }
            self._slow_log.append(entry)
            tracer = current_tracer()
            if tracer is not None:
                tracer.emit("slow_request", **entry)

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self, method, path, body, deadline):
        path, _, query = path.partition("?")
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "use GET")
            alive = self._serving.writer_alive
            closed = self._serving.closed
            ok = alive and not closed
            return 200 if ok else 503, {
                "ok": ok,
                "writer_alive": alive,
                "closed": closed,
                "pending": self._serving.pending(),
            }
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "use GET")
            return 200, get_registry().render_prometheus()
        if path == "/explain":
            if method != "GET":
                raise _HttpError(405, "use GET")
            return await self._do_explain(query, deadline)
        if path == "/stats":
            if method != "GET":
                raise _HttpError(405, "use GET")
            stats = dict(self._serving.stats())
            stats["requests"] = self._requests
            stats["requests_by_endpoint"] = dict(self._requests_by_endpoint)
            stats["slow_query_ms"] = self._slow_query_ms
            stats["slow_queries"] = list(self._slow_log)
            return 200, stats
        if path in ("/query", "/ask", "/value", "/insert", "/retract"):
            if method != "POST":
                raise _HttpError(405, "use POST")
            payload = self._parse_json(body)
            if path == "/query":
                return self._do_query(payload)
            if path == "/ask":
                return self._do_ask(payload, "ask")
            if path == "/value":
                return self._do_ask(payload, "value")
            return await self._do_write(payload, path == "/insert", deadline)
        raise _HttpError(404, "no such endpoint: %s" % path)

    @staticmethod
    def _parse_json(body):
        if not body:
            raise _HttpError(400, "JSON body required")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise _HttpError(400, "bad JSON: %s" % error)
        if not isinstance(payload, dict):
            raise _HttpError(400, "JSON body must be an object")
        return payload

    def _field(self, payload, name):
        value = payload.get(name)
        if not isinstance(value, str) or not value.strip():
            raise _HttpError(400, "field %r (a nonempty string) required" % name)
        return value

    def _in_reader(self, read):
        """Run ``read(reader)`` on the current epoch, on the loop.  A closed
        session answers 503; input the reader rejects — text that does not
        parse, a non-ground ``/ask`` — answers 400; anything else is a
        fault (500)."""
        try:
            reader = self._serving.reader()
            return reader.eid, read(reader)
        except ServingClosed as error:
            raise _HttpError(503, str(error))
        except (HiLogError, ValueError) as error:
            raise _HttpError(400, str(error))

    @staticmethod
    async def _writer_result(future, deadline, *client_errors):
        """Await a future the writer thread resolves (wrapped for the
        loop) until ``deadline``, past which ``asyncio.TimeoutError``
        propagates to the connection handler's 504.
        :data:`_CLIENT_ERRORS` and ``client_errors`` answer 400, any other
        failure propagates to the handler's 500."""
        loop = asyncio.get_running_loop()
        try:
            # ``wait_for`` on a future, not a coroutine: no task is made.
            return await asyncio.wait_for(
                asyncio.wrap_future(future), deadline - loop.time())
        except _CLIENT_ERRORS + client_errors as error:
            raise _HttpError(400, "%s: %s" % (type(error).__name__, error))

    def _do_query(self, payload):
        text = self._field(payload, "query")
        eid, answers = self._in_reader(
            lambda reader: [str(answer) for answer in reader.query(text)])
        return 200, {"answers": answers, "count": len(answers), "epoch": eid}

    def _do_ask(self, payload, kind):
        text = self._field(payload, "atom")
        eid, result = self._in_reader(
            lambda reader: getattr(reader, kind)(text))
        key = "result" if kind == "ask" else "value"
        return 200, {key: result, "epoch": eid}

    async def _do_explain(self, query, deadline):
        params = urllib.parse.parse_qs(query)
        values = params.get("q") or []
        if not values or not values[0].strip():
            raise _HttpError(400, "query parameter 'q' (an atom) required")
        text = values[0]
        try:
            future = self._serving.submit_explain(text)
        except ServingClosed as error:
            raise _HttpError(503, str(error))
        # Imported on use: 0.5 MiB resident a server that never explains saves.
        from repro.obs.explain import ExplainError

        tree = await self._writer_result(future, deadline, ExplainError)
        # Encoded here: a proof is as deep as the data's longest chain, and
        # ``json.dumps`` refuses a payload nested past the recursion limit.
        return 200, ('{"atom": %s, "explanation": %s}' % (
            json.dumps(text), tree.to_json())).encode("utf-8")

    async def _do_write(self, payload, insert, deadline):
        facts = self._field(payload, "facts")
        wait = payload.get("wait", True)
        try:
            if insert:
                future = self._serving.submit(inserts=facts)
            else:
                future = self._serving.submit(retracts=facts)
        except WriteQueueFull as error:
            raise _HttpError(503, str(error), headers=(
                ("Retry-After", "%.3f" % error.retry_after),
            ))
        except ServingClosed as error:
            raise _HttpError(503, str(error))
        if not wait:
            return 200, {"queued": True, "pending": self._serving.pending()}
        summary = await self._writer_result(future, deadline)
        return 200, {
            "inserted": summary.inserted,
            "retracted": summary.retracted,
            "added": len(summary.added),
            "removed": len(summary.removed),
            "strata_touched": summary.strata_touched,
            "mode": summary.mode,
            "undefined_added": len(summary.undefined_added),
            "undefined_removed": len(summary.undefined_removed),
        }

    # -- responses -----------------------------------------------------------

    async def _respond(self, writer, status, payload, close,
                       extra_headers=()):
        if isinstance(payload, str):
            # Pre-rendered text body (the /metrics exposition format).
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            # ``bytes`` is JSON already encoded (/explain).
            body = payload if isinstance(payload, bytes) \
                else json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        lines = [
            "HTTP/1.1 %d %s" % (status, _REASONS.get(status, "Unknown")),
            "Content-Type: %s" % content_type,
            "Content-Length: %d" % len(body),
            "Connection: %s" % ("close" if close else "keep-alive"),
        ]
        for name, value in extra_headers:
            lines.append("%s: %s" % (name, value))
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _respond_error(self, writer, error, close):
        await self._respond(
            writer, error.status, {"error": error.message},
            close=close, extra_headers=error.headers,
        )


async def serve(serving, host="127.0.0.1", port=8273, request_timeout=10.0,
                slow_query_ms=500.0, ready=None):
    """Run a server for ``serving`` until cancelled or signalled.

    SIGTERM / SIGINT trigger a graceful shutdown: the listening socket
    closes first (intake stops), then the caller — :func:`run` — drains
    the write queue and, for a durable session, takes a final checkpoint
    and closes the WAL.  Handler installation is best-effort (skipped off
    the main thread, as in the test harness, where cancellation is the
    shutdown path instead).

    ``ready``, when given, is a callable invoked with the
    :class:`ServeServer` once it is accepting connections (used by the CLI
    to print the bound address, and by tests to learn the port)."""
    server = ServeServer(serving, host=host, port=port,
                         request_timeout=request_timeout,
                         slow_query_ms=slow_query_ms)
    await server.start()
    if ready is not None:
        ready(server)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, ValueError, RuntimeError, OSError):
            pass  # non-main thread or unsupported platform
    forever = asyncio.ensure_future(server.serve_forever())
    stopper = asyncio.ensure_future(stop.wait())
    try:
        await asyncio.wait(
            (forever, stopper), return_when=asyncio.FIRST_COMPLETED,
        )
    finally:
        for task in (forever, stopper):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for signum in installed:
            try:
                loop.remove_signal_handler(signum)
            except (ValueError, RuntimeError, OSError):
                pass
        await server.stop()


def run(program, host="127.0.0.1", port=8273, request_timeout=10.0,
        slow_query_ms=500.0, ready=None, **serving_kwargs):
    """Blocking convenience: build a :class:`ServingSession` for
    ``program``, serve it until interrupted or signalled, then shut both
    down cleanly — queued writes drain, and a durable session gets its
    final checkpoint and a clean WAL close."""
    serving = (program if isinstance(program, ServingSession)
               else ServingSession(program, **serving_kwargs))
    try:
        asyncio.run(serve(serving, host=host, port=port,
                          request_timeout=request_timeout,
                          slow_query_ms=slow_query_ms, ready=ready))
    except KeyboardInterrupt:
        pass
    finally:
        serving.close()
