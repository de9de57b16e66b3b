"""HTTP front-end tests: real sockets on an ephemeral port, endpoint
behavior, backpressure mapping, request timeouts and clean shutdown."""

import asyncio
import http.client
import gc
import json
import re
import socket
import threading
import time
import urllib.parse

import pytest

from repro.obs.metrics import parse_prometheus_text
from repro.serve import ServingClosed, ServingSession
from repro.serve.server import ServeServer, serve

TC_PROGRAM = """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
    e(a, b). e(b, c).
"""


class RunningServer:
    """Runs the asyncio server on a background thread for the tests."""

    def __init__(self, serving, request_timeout=5.0, slow_query_ms=500.0):
        self.serving = serving
        self._ready = threading.Event()
        #: What reached the event loop's exception handler: exceptions no
        #: request handler caught.
        self.loop_errors = []
        self._loop = None
        self._task = None
        self.address = None
        self._thread = threading.Thread(
            target=self._run, args=(request_timeout, slow_query_ms),
            daemon=True)
        self._thread.start()
        assert self._ready.wait(10), "server did not start"

    def _run(self, request_timeout, slow_query_ms):
        asyncio.run(self._main(request_timeout, slow_query_ms))

    async def _main(self, request_timeout, slow_query_ms):
        def on_ready(server):
            self.address = server.address
            self._ready.set()

        self._loop = asyncio.get_event_loop()
        self._loop.set_exception_handler(
            lambda _loop, context: self.loop_errors.append(context))
        self._task = self._loop.create_task(serve(
            self.serving, port=0, request_timeout=request_timeout,
            slow_query_ms=slow_query_ms, ready=on_ready,
        ))
        try:
            await self._task
        except asyncio.CancelledError:
            pass

    def stop(self):
        self._loop.call_soon_threadsafe(self._task.cancel)
        self._thread.join(10)
        assert not self._thread.is_alive(), "server thread did not exit"

    # -- tiny test client ----------------------------------------------------

    def request(self, method, path, payload=None, connection=None):
        conn = connection or http.client.HTTPConnection(*self.address,
                                                        timeout=10)
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = json.loads(response.read().decode("utf-8"))
        result = (response.status, data, dict(response.getheaders()))
        if connection is None:
            conn.close()
        return result

    def get(self, path, **kwargs):
        return self.request("GET", path, **kwargs)

    def post(self, path, payload, **kwargs):
        return self.request("POST", path, payload, **kwargs)

    def send_bytes(self, data):
        """Send ``data`` on a raw socket, half-close, and return everything
        the server answers before it closes its side."""
        with socket.create_connection(self.address, timeout=10) as sock:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            answer = b""
            try:
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    answer += chunk
            except ConnectionResetError:
                pass  # closed over bytes it had not read; the answer came first
        return answer

    def get_raw(self, path):
        """GET without JSON-decoding: (status, content_type, text)."""
        conn = http.client.HTTPConnection(*self.address, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return (response.status,
                    response.getheader("Content-Type", ""),
                    response.read().decode("utf-8"))
        finally:
            conn.close()


@pytest.fixture
def server():
    serving = ServingSession(TC_PROGRAM, max_pending=4)
    running = RunningServer(serving)
    try:
        yield running
    finally:
        running.stop()
        serving.close()


class TestEndpoints:
    def test_healthz_and_stats(self, server):
        status, body, _headers = server.get("/healthz")
        assert status == 200
        assert body["ok"] is True and body["writer_alive"] is True
        assert body["closed"] is False and body["pending"] == 0
        status, body, _headers = server.get("/stats")
        assert status == 200
        assert body["epochs"]["published"] >= 1
        assert body["requests"] >= 1
        assert body["writer_alive"] is True
        assert body["requests_by_endpoint"]["/healthz"] == 1
        assert body["slow_queries"] == []

    def test_query_ask_value(self, server):
        status, body, _headers = server.post("/query", {"query": "tc(a, X)"})
        assert status == 200
        assert sorted(body["answers"]) == ["tc(a, b)", "tc(a, c)"]
        assert body["count"] == 2 and body["epoch"] == 0
        status, body, _headers = server.post("/ask", {"atom": "tc(a, c)"})
        assert status == 200 and body["result"] is True
        status, body, _headers = server.post("/value", {"atom": "tc(c, a)"})
        assert status == 200 and body["value"] == "false"

    def test_insert_then_retract(self, server):
        status, body, _headers = server.post("/insert",
                                             {"facts": "e(c, d)."})
        assert status == 200
        assert body["inserted"] == 1 and body["mode"] == "incremental"
        status, body, _headers = server.post("/query", {"query": "tc(a, X)"})
        assert body["count"] == 3 and body["epoch"] == 1
        status, body, _headers = server.post("/retract",
                                             {"facts": "e(c, d)."})
        assert status == 200 and body["retracted"] == 1
        status, body, _headers = server.post("/ask", {"atom": "tc(a, d)"})
        assert body["result"] is False

    def test_fire_and_forget_write(self, server):
        status, body, _headers = server.post(
            "/insert", {"facts": "e(c, e).", "wait": False})
        assert status == 200 and body["queued"] is True
        server.serving.flush(5)
        status, body, _headers = server.post("/ask", {"atom": "tc(a, e)"})
        assert body["result"] is True

    def test_keep_alive_serves_multiple_requests(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            for _ in range(3):
                status, body, headers = server.post(
                    "/query", {"query": "e(X, Y)"}, connection=conn)
                assert status == 200 and body["count"] == 2
                assert headers.get("Connection") == "keep-alive"
        finally:
            conn.close()

    def test_error_mapping(self, server):
        status, body, _headers = server.get("/nope")
        assert status == 404
        status, body, _headers = server.get("/query")
        assert status == 405
        status, body, _headers = server.post("/query", {"wrong": "field"})
        assert status == 400
        status, body, _headers = server.post("/insert",
                                             {"facts": "p(X) :- q(X)."})
        assert status == 400 and "error" in body
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            conn.request("POST", "/query", body="{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            response.read()
        finally:
            conn.close()

    @pytest.mark.parametrize("path, field, text", [
        ("/query", "query", "tc(a1, "),   # unterminated term
        ("/query", "query", "3 +"),
        ("/ask", "atom", "tc(a1, "),
        ("/ask", "atom", "3 +"),
        ("/ask", "atom", "tc(a, X)"),     # non-ground
        ("/value", "atom", "tc(a1, "),
        ("/value", "atom", "3 +"),
        ("/value", "atom", "tc(a, X)"),
    ])
    def test_malformed_reads_map_to_400(self, server, path, field, text):
        # Regression: ParseError is a HiLogError, not a ValueError, and
        # used to fall through to the 500 handler.
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            status, body, _headers = server.post(path, {field: text},
                                                 connection=conn)
            assert status == 400 and body["error"]
            # the connection and the server are still good
            status, body, _headers = server.post(
                "/query", {"query": "tc(a, X)"}, connection=conn)
            assert status == 200 and body["count"] == 2
        finally:
            conn.close()

    @pytest.mark.parametrize("path, field, text", [
        ("/query", "query", "tc(a, %s)"),
        ("/insert", "facts", "e(a, %s)."),
    ])
    def test_deeply_nested_text_maps_to_400(self, server, path, field, text):
        # Regression: the parser's RecursionError is not a client error,
        # and the request answered 500.
        nested = "f(" * 3000 + "b" + ")" * 3000
        status, body, _headers = server.post(path, {field: text % nested})
        assert status == 400 and "nested too deeply" in body["error"]
        status, body, _headers = server.post("/query", {"query": "tc(a, X)"})
        assert status == 200 and body["count"] == 2

    def test_reader_fault_still_maps_to_500(self, server, monkeypatch):
        def broken(_self, _query):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.serve.epochs.Epoch.query", broken)
        status, body, _headers = server.post("/query", {"query": "tc(a, X)"})
        assert status == 500 and "RuntimeError" in body["error"]

    def test_storage_fault_on_write_maps_to_500(self, tmp_path, monkeypatch):
        # Regression: every writer exception used to answer 400, telling
        # the client to fix a request the server failed to store.
        serving = ServingSession(TC_PROGRAM, path=str(tmp_path / "data"))
        running = RunningServer(serving)
        try:
            edb = serving.session.edb()

            def disk_full(_self, _inserts, _retracts):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(
                "repro.durable.manager.DurabilityManager.log_begin", disk_full)
            status, body, _headers = running.post(
                "/insert", {"facts": "e(c, d)."})
            assert status == 500 and "OSError" in body["error"]
            # nothing was applied, and the next read sees the old model
            assert serving.session.edb() == edb
            status, body, _headers = running.post(
                "/query", {"query": "tc(a, X)"})
            assert status == 200 and body["count"] == 2
            # input the client can fix still answers 400
            status, body, _headers = running.post(
                "/insert", {"facts": "p(X) :- q(X)."})
            assert status == 400 and "error" in body
            monkeypatch.undo()
            status, body, _headers = running.post(
                "/insert", {"facts": "e(c, d)."})
            assert status == 200 and body["inserted"] == 1
        finally:
            running.stop()
            serving.close()

    @pytest.mark.parametrize("request_bytes", [
        b"POST /insert HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"GET /" + b"x" * 70000 + b" HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"x" * 70000 + b"\r\n\r\n",
    ], ids=["negative-length", "long-request-line", "long-header"])
    def test_bad_framing_maps_to_400(self, server, request_bytes):
        answer = server.send_bytes(request_bytes)
        assert answer.startswith(b"HTTP/1.1 400 "), answer[:80]
        assert b"Connection: close" in answer
        self.assert_loop_saw_nothing(server)

    def test_body_shorter_than_its_length_is_a_closed_connection(self, server):
        answer = server.send_bytes(
            b"POST /insert HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"facts\"")
        assert answer == b""
        self.assert_loop_saw_nothing(server)

    @staticmethod
    def assert_loop_saw_nothing(server):
        # An uncaught handler exception is reported when its task is
        # collected; a further round trip lets the loop get that far.
        assert server.get("/healthz")[0] == 200
        gc.collect()
        assert server.get("/healthz")[0] == 200
        assert server.loop_errors == []

    def test_backpressure_maps_to_503_with_retry_after(self, server):
        server.serving.pause()
        try:
            for i in range(4):
                status, _body, _headers = server.post(
                    "/insert", {"facts": "p(b%d)." % i, "wait": False})
                assert status == 200
            status, body, headers = server.post(
                "/insert", {"facts": "p(overflow).", "wait": False})
            assert status == 503
            assert float(headers["Retry-After"]) > 0
            assert "queue full" in body["error"]
        finally:
            server.serving.resume()
        server.serving.flush(5)

    def test_request_timeout_maps_to_504(self):
        serving = ServingSession(TC_PROGRAM)
        running = RunningServer(serving, request_timeout=0.3)
        try:
            serving.pause()  # the batch never applies within the budget
            status, body, _headers = running.post(
                "/insert", {"facts": "e(z, z)."})
            assert status == 504
            assert "exceeded" in body["error"]
        finally:
            serving.resume()
            running.stop()
            serving.close()

    def test_clean_shutdown_leaves_session_usable(self):
        serving = ServingSession(TC_PROGRAM)
        running = RunningServer(serving)
        status, _body, _headers = running.get("/healthz")
        assert status == 200
        running.stop()
        # the server released its sockets; the serving session lives on
        assert serving.ask("tc(a, c)")
        serving.insert("e(c, d).", timeout=5)
        assert serving.ask("tc(a, d)")
        serving.close()
        with pytest.raises(ConnectionError):
            running.get("/healthz")


def read_to_eof(sock):
    answer = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return answer
        answer += chunk


def exchange(address, data):
    """Send ``data`` on a raw socket that stays open for writing (no
    half-close, unlike :meth:`RunningServer.send_bytes`) and return
    ``(answer, seconds)``: everything the server sends until it closes its
    side, and how long it took to close."""
    with socket.create_connection(address, timeout=10) as sock:
        started = time.monotonic()
        sock.sendall(data)
        answer = read_to_eof(sock)
        return answer, time.monotonic() - started


class TestConnections:
    @pytest.mark.parametrize("request_bytes, connections", [
        (b"GET /healthz HTTP/1.0\r\n\r\n", [b"close"]),
        (b"GET /healthz HTTP/1.1\r\nConnection: TE, close\r\n\r\n",
         [b"close"]),
        (b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
         b"GET /healthz HTTP/1.0\r\n\r\n", [b"keep-alive", b"close"]),
    ], ids=["http10", "token-list", "http10-keep-alive"])
    def test_connection_header_and_version_decide_keep_alive(
            self, server, request_bytes, connections):
        # Regression: HTTP/1.0 without "Connection: keep-alive" was answered
        # keep-alive and held open until the request timeout (5 s here).
        answer, seconds = exchange(server.address, request_bytes)
        assert answer.count(b"HTTP/1.1 200 OK") == len(connections)
        assert re.findall(rb"Connection: (\S+)", answer) == connections
        assert seconds < 2.5

    @pytest.mark.parametrize("request_bytes, responses", [
        (b"GET /healthz HTTP/1.1\r\n", 0),
        (b"POST /query HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"q", 0),
        (b"GET /healthz HTTP/1.1\r\n\r\n", 1),
    ], ids=["stalled-headers", "stalled-body", "idle-keep-alive"])
    def test_deadline_drops_stalled_and_idle_connections(
            self, request_bytes, responses):
        serving = ServingSession(TC_PROGRAM)
        running = RunningServer(serving, request_timeout=0.5)
        try:
            answer, seconds = exchange(running.address, request_bytes)
            assert answer.count(b"HTTP/1.1 200 OK") == responses
            assert 0.45 <= seconds < 4.0
            TestEndpoints.assert_loop_saw_nothing(running)
        finally:
            running.stop()
            serving.close()


class TestReadPath:
    def test_reads_never_wait_for_the_writer(self):
        serving = ServingSession(TC_PROGRAM)
        running = RunningServer(serving, request_timeout=1.0)
        try:
            serving.pause()
            with socket.create_connection(running.address, timeout=10) as a:
                body = b'{"facts": "e(c, d)."}'
                a.sendall(b"POST /insert HTTP/1.1\r\nConnection: close\r\n"
                          b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
                for _ in range(500):
                    if serving.pending():
                        break
                    time.sleep(0.01)
                assert serving.pending() == 1
                status, body, _headers = running.post(
                    "/query", {"query": "tc(a, X)"})
                assert (status, body["count"], body["epoch"]) == (200, 2, 0)
                serving.resume()
                answer = read_to_eof(a)
            assert answer.startswith(b"HTTP/1.1 200 ")
            assert json.loads(answer.partition(b"\r\n\r\n")[2])[
                "inserted"] == 1
            status, body, _headers = running.post(
                "/query", {"query": "tc(a, X)"})
            assert (status, body["count"]) == (200, 3)
            serving.pause()
            status, _body, _headers = running.post(
                "/insert", {"facts": "e(d, f)."})
            assert status == 504
            status, body, _headers = running.post(
                "/query", {"query": "tc(a, X)"})
            assert (status, body["count"]) == (200, 3)
            serving.resume()
            serving.flush(5)
            assert running.loop_errors == []
        finally:
            serving.resume()
            running.stop()
            serving.close()

    def test_a_read_creates_no_task_and_no_executor_hop(self, server):
        tasks, hops = [], []
        installed = threading.Event()

        def counting_factory(loop, coro, **kwargs):
            tasks.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        def install():
            loop = server._loop
            run_in_executor = loop.run_in_executor

            def counting_run_in_executor(*args):
                hops.append(args)
                return run_in_executor(*args)

            loop.set_task_factory(counting_factory)
            loop.run_in_executor = counting_run_in_executor
            installed.set()

        server._loop.call_soon_threadsafe(install)
        assert installed.wait(5)
        conn = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            server.get("/healthz", connection=conn)  # the connection's task
            del tasks[:]
            for _ in range(50):
                status, body, _headers = server.post(
                    "/query", {"query": "tc(a, X)"}, connection=conn)
                assert (status, body["count"]) == (200, 2)
                status, body, _headers = server.post(
                    "/ask", {"atom": "tc(a, c)"}, connection=conn)
                assert (status, body["result"]) == (200, True)
        finally:
            conn.close()
        assert tasks == [] and hops == []


class TestObservabilityEndpoints:
    def test_metrics_exposition(self, server):
        server.post("/query", {"query": "tc(a, X)"})
        server.post("/insert", {"facts": "e(c, zz)."})
        status, content_type, text = server.get_raw("/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        parsed = parse_prometheus_text(text)
        assert "repro_http_requests_total" in parsed
        assert "repro_http_request_seconds_bucket" in parsed
        assert "repro_serve_pending_ops" in parsed
        assert "repro_serve_writer_alive" in parsed
        query_series = [
            value for labels, value in parsed["repro_http_requests_total"]
            if labels.get("endpoint") == "/query"
            and labels.get("status") == "200"
        ]
        assert query_series and query_series[0] >= 1

    def test_metrics_is_get_only(self, server):
        status, _body, _headers = server.post("/metrics", {"x": "y"})
        assert status == 405

    def test_explain_true_atom(self, server):
        path = "/explain?q=" + urllib.parse.quote("tc(a, c)")
        status, body, _headers = server.get(path)
        assert status == 200
        assert body["atom"] == "tc(a, c)"
        tree = body["explanation"]
        assert tree["kind"] == "rule" and tree["atom"] == "tc(a, c)"
        assert any(child["kind"] == "edb" for child in tree["children"])

    def test_explain_false_atom(self, server):
        path = "/explain?q=" + urllib.parse.quote("tc(c, a)")
        status, body, _headers = server.get(path)
        assert status == 200 and body["explanation"]["kind"] == "false"

    def test_explain_reflects_updates(self, server):
        server.post("/insert", {"facts": "e(c, d)."})
        status, body, _headers = server.get(
            "/explain?q=" + urllib.parse.quote("tc(a, d)"))
        assert status == 200 and body["explanation"]["kind"] == "rule"

    def test_explain_of_a_deep_proof(self):
        depth = 600
        edges = " ".join("e(n%d, n%d)." % (i, i + 1) for i in range(depth))
        serving = ServingSession(
            edges + "reach(n%d). reach(X) :- e(X, Y), reach(Y)." % depth)
        running = RunningServer(serving)
        try:
            status, content_type, text = running.get_raw(
                "/explain?q=" + urllib.parse.quote("reach(n0)"))
        finally:
            running.stop()
            serving.close()
        assert (status, content_type) == (200, "application/json")
        # Nested 2 x depth deep: more than json.loads takes by default.
        assert text.count('"kind": "rule"') == depth
        assert text.count('"kind": "edb"') == depth + 1

    def test_explain_requires_q(self, server):
        status, body, _headers = server.get("/explain")
        assert status == 400 and "q" in body["error"]

    def test_explain_bad_atom_maps_to_400(self, server):
        status, body, _headers = server.get(
            "/explain?q=" + urllib.parse.quote("tc(a, X) :- nope"))
        assert status == 400 and "error" in body

    def test_404_collapses_into_other_endpoint_label(self, server):
        server.get("/definitely/not/an/endpoint")
        _status, _ct, text = server.get_raw("/metrics")
        parsed = parse_prometheus_text(text)
        other = [
            value for labels, value in parsed["repro_http_requests_total"]
            if labels.get("endpoint") == "other"
            and labels.get("status") == "404"
        ]
        assert other and other[0] >= 1


class TestSlowQueryLog:
    def test_slow_requests_are_logged_and_bounded(self):
        serving = ServingSession(TC_PROGRAM)
        running = RunningServer(serving, slow_query_ms=0.0)
        try:
            for _ in range(3):
                running.post("/query", {"query": "tc(a, X)"})
            status, body, _headers = running.get("/stats")
            assert status == 200
            assert body["slow_query_ms"] == 0.0
            entries = body["slow_queries"]
            assert len(entries) >= 3
            assert all(entry["duration_ms"] >= 0 for entry in entries)
            assert {entry["path"] for entry in entries} >= {"/query"}
            assert len(entries) <= ServeServer.SLOW_LOG_CAPACITY
        finally:
            running.stop()
            serving.close()


class TestHealthzLiveness:
    def test_healthz_503_when_session_closed(self):
        serving = ServingSession(TC_PROGRAM)
        running = RunningServer(serving)
        try:
            status, body, _headers = running.get("/healthz")
            assert status == 200 and body["ok"] is True
            # Kill the session under the live server: the probe must flip.
            serving.close()
            status, body, _headers = running.get("/healthz")
            assert status == 503
            assert body["ok"] is False
            assert body["closed"] is True
            assert body["writer_alive"] is False
        finally:
            running.stop()
            serving.close()

    @pytest.mark.parametrize("path, field, text", [
        ("/query", "query", "tc(a, X)"),
        ("/ask", "atom", "tc(a, b)"),
        ("/value", "atom", "tc(a, b)"),
    ])
    def test_reads_answer_503_when_session_closed(self, path, field, text):
        # Regression: a closed session's reads answered 500 where its
        # writes answered 503.
        serving = ServingSession(TC_PROGRAM)
        running = RunningServer(serving)
        try:
            status, _body, _headers = running.post(path, {field: text})
            assert status == 200
            serving.close()
            status, body, _headers = running.post(path, {field: text})
            assert status == 503 and "closed" in body["error"]
        finally:
            running.stop()
            serving.close()

    def test_a_closed_session_refuses_reads(self):
        serving = ServingSession(TC_PROGRAM)
        serving.close()
        with pytest.raises(ServingClosed):
            serving.query("tc(a, X)")
