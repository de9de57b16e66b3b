"""Starting, probing and reaping ``python -m repro.serve serve``.

The server is a black box: it is started the way a user starts it, on
port 0, and the bound port is read from its ``serving ... on
http://host:port`` line.  Every process started here is remembered until
it has been waited for, so :func:`reap_all` can guarantee that nothing
outlives the benchmark — on success, failure and interrupt alike.
"""

import http.client
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import time

from .stats import SRC_DIR

HOST = "127.0.0.1"
#: Seconds a server may take to report its address.
START_TIMEOUT = 60.0
#: Per-request budget, client side and (``--timeout``) server side.
REQUEST_TIMEOUT = 30.0

_LIVE = set()
_SERIAL = itertools.count()


def pin_to_one_cpu():
    """Confine this process, and with it every server and batch evaluation
    it starts, to the last CPU it may use.

    One closed-loop client and its server are never runnable together, so
    one CPU holds them without either waiting for the other, and it never
    goes idle between a request and its reply.  On two CPUs the server's
    halts while it waits for each request, and on a shared host a halted
    virtual CPU takes from 0.1 ms to several to be given back: read p50 of
    six servers in a row 0.37-0.42 ms on two CPUs, 0.45-0.47 ms on one.
    (The first CPU is left to the machine's own housekeeping.)"""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env():
    """The environment of every process the benchmark starts: the program
    under ``src`` on the path, and a fixed string-hash seed, so that set
    and dict orders — and with them memory layout and the order rules
    fire in — are the same in every process (read p50 of six servers
    spread 12 % with random seeds, 4 % with a fixed one)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env["PYTHONHASHSEED"] = "0"
    return env


class ServerFailed(RuntimeError):
    """The server exited or never became ready; carries its stderr."""


class Server:
    """One server subprocess.

    Args:
        args: ``serve`` arguments after the subcommand (program file,
            ``--data-dir`` ..., without ``--port``).
        workdir: directory for the captured stderr file.
    """

    def __init__(self, args, workdir):
        self.spawned = time.perf_counter()
        self._stderr_path = os.path.join(
            workdir, "server-%d.stderr" % next(_SERIAL))
        with open(self._stderr_path, "wb") as stderr:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "serve", "--port", "0",
                 "--host", HOST, "--timeout", str(REQUEST_TIMEOUT),
                 "--validate", "off"] + list(args),
                stdout=subprocess.PIPE, stderr=stderr, env=child_env(),
            )
        _LIVE.add(self)
        self.port = None
        #: Seconds from spawn to the first ``200`` from ``/healthz``.
        self.ready_after = None

    @property
    def pid(self):
        return self.process.pid

    def stderr_text(self):
        try:
            with open(self._stderr_path, "r", errors="replace") as handle:
                return handle.read()
        except OSError:
            return ""

    def wait_ready(self):
        """Block until ``/healthz`` answers ``200``; returns the port."""
        deadline = self.spawned + START_TIMEOUT
        stdout = self.process.stdout
        buffered = b""
        while self.port is None:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ServerFailed("server never reported its address\n"
                                   + self.stderr_text())
            if not select.select([stdout], [], [], remaining)[0]:
                continue
            chunk = os.read(stdout.fileno(), 4096)
            if not chunk:
                self.process.wait()
                raise ServerFailed(
                    "server exited with %s during start-up\n%s"
                    % (self.process.returncode, self.stderr_text()))
            buffered += chunk
            for line in buffered.split(b"\n")[:-1]:
                if line.startswith(b"serving ") and b" on http://" in line:
                    address = line.split(b" on http://", 1)[1].split()[0]
                    self.port = int(address.rsplit(b":", 1)[1])
        status, _body = self.get("/healthz")
        if status != 200:
            raise ServerFailed("/healthz answered %d\n%s"
                               % (status, self.stderr_text()))
        self.ready_after = time.perf_counter() - self.spawned
        return self.port

    # -- one-off requests (a fresh connection each: the server drops idle
    # keep-alive connections after its request timeout) ----------------------

    def request(self, method, path, body=None):
        """``(status, raw body)`` of one request."""
        connection = http.client.HTTPConnection(
            HOST, self.port, timeout=REQUEST_TIMEOUT)
        try:
            connection.request(method, path, body)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, body):
        """POST an already encoded JSON ``body``."""
        return self.request("POST", path, body)

    def get_json(self, path):
        status, body = self.get(path)
        if status != 200:
            raise ServerFailed("%s answered %d" % (path, status))
        return json.loads(body.decode("utf-8"))

    def rss_peak_mib(self):
        """The process's peak resident set (``VmHWM``), in MiB."""
        with open("/proc/%d/status" % self.pid, "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerFailed("no VmHWM for pid %d" % self.pid)

    # -- stopping ------------------------------------------------------------

    def kill(self):
        """``SIGKILL`` and reap: the crash of the recovery phase, and the
        end of a server nobody needs a clean shutdown from."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self._reap()

    def stop(self, grace=20.0):
        """``SIGTERM`` (queue drained, final checkpoint), then ``SIGKILL``
        if it has not gone within ``grace`` seconds."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(grace)
            except subprocess.TimeoutExpired:
                self.process.send_signal(signal.SIGKILL)
        self._reap()

    def _reap(self):
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        _LIVE.discard(self)


def reap_all():
    """Kill and wait for every server still running."""
    for server in list(_LIVE):
        server.kill()
