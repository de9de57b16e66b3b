"""The untraced run: cold starts, closed-loop traffic, kill-and-restart
recovery and cold batch evaluation — every end-to-end metric of one
workload, each checked against the plain-Python reference.

The run is a series of *rounds*: a segment of the traffic, then one cold
start, one restart from the crashed data directory and one batch
evaluation, while the traffic server sits idle.  So the samples of every
metric are spread over the whole run, and a disturbance of a few seconds
(this is a shared host) spoils a minority of each instead of every cold
start or every evaluation of the run.

Every server is started through :mod:`.serverproc`, which the caller
reaps.
"""

import json
import os
import subprocess
import sys
import tempfile

from collections import namedtuple

from . import batch_eval
from .loadgen import Client
from .serverproc import REQUEST_TIMEOUT, Server, child_env
from .stats import blocks, metric, percentile, quiet
from .workloads import check_response

#: How much of everything one run does.  ``ops`` caps the ops generated (a
#: client that runs out simply stops early); a round makes cold starts
#: until ``setup_seconds`` of them are in hand (at least one), and its
#: batch evaluation process at least ``eval_reps`` timed evaluations, and
#: more until ``eval_seconds`` of them are in hand — so a 0.25 s start or
#: a 50 ms evaluation is sampled as long as one twice or five times that.
Plan = namedtuple(
    "Plan", "scale seconds warmup ops rounds recovery_writes setup_seconds "
            "eval_reps eval_seconds")

#: Generated ops per second of traffic: comfortably above what the fastest
#: workload sustains here (about 1 400 a second).
OPS_PER_SECOND = 3000


def plan_for(spec, seconds, toy=False):
    if toy:
        return Plan("toy", seconds, 0.0, 40, 1,
                    min(10, spec.recovery_writes), 0.0, 1, 0.0)
    warmup = max(0.5, 0.05 * seconds)
    return Plan("full", seconds, warmup,
                int((seconds + warmup) * OPS_PER_SECOND), 4,
                spec.recovery_writes, 0.5, 2, 0.4)


class Failures:
    """Attempt and failure counts, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, error):
        """Count one attempted check; ``error`` is ``None`` when it held."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(error)


def write_program(spec, halves, workdir):
    path = os.path.join(workdir, "program.hilog")
    with open(path, "w") as handle:
        handle.write(spec.program_text(halves))
    return path


def start_server(program, workdir, flags=(), durable=False):
    """A ready server over ``program`` (a fresh data directory when
    ``durable``); returns ``(server, data_dir)``."""
    args = [program]
    data_dir = None
    if durable:
        data_dir = os.path.join(tempfile.mkdtemp(dir=workdir), "data")
        args += ["--data-dir", data_dir]
    server = Server(args + list(flags), workdir)
    server.wait_ready()
    return server, data_dir


def cold_starts(spec, program, plan, workdir):
    """Seconds from process start to the first ``200`` from ``/healthz``,
    of each of a round's servers that nobody needs afterwards."""
    times = []
    while not times or sum(times) < plan.setup_seconds:
        server, _data_dir = start_server(program, workdir, spec.serve_flags,
                                         spec.durable)
        server.kill()
        times.append(server.ready_after)
    return times


def latency_ms(reply):
    """Client-observed latency; a request that failed, was refused or
    timed out exceeds every percentile."""
    if reply.status != 200:
        return REQUEST_TIMEOUT * 1000.0
    return (reply.received - reply.sent) * 1000.0


def open_traffic(spec, server, seed, plan, tracer=None):
    """The workload's client on ``server``, its seeded ops generated."""
    return Client(server.port,
                  spec.ops(spec.halves(plan.scale), seed, plan.ops), tracer)


def judge_traffic(spec, plan, client, failures):
    """The clock has stopped: decode and check every reply the client
    got.  Returns the measured samples in the order they were taken."""
    samples = {"read": [], "write": []}
    traced = {True: [], False: []}
    cycles = []
    reference = spec.halves(plan.scale)[0]
    for reply in client.replies:
        op = client.ops[reply.index]
        failures.check(check_response(reference, op, reply.status, reply.raw))
        if not reply.measured:
            continue
        samples[op.kind].append(latency_ms(reply))
        cycles.append(reply.received - reply.began)
        if op.kind == "read":
            traced[reply.traced].append(latency_ms(reply))
    # A write undoes the one before it (retract an edge, put it back), and
    # the two cost up to twice as much as each other: taken singly their
    # median sits on the boundary between the two kinds.  So a write
    # sample is the mean of a write and its undoing.
    writes = samples["write"]
    return {
        "samples": samples,
        "write_pairs": [(first + second) / 2.0 for first, second
                        in zip(writes[0::2], writes[1::2])],
        "traced_reads": traced,
        # Reply in hand (or segment begun) to next reply in hand: what one
        # op takes out of the closed loop.
        "cycles": cycles,
        "exhausted": client.exhausted,
        # The generator's own share of that: reply in hand to next
        # request sent.
        "gaps": [r.sent - r.began for r in client.replies],
        "client_seconds": sum(r.received - r.sent for r in client.replies),
    }


def quiet_p50(samples):
    """Median of each block of consecutive samples, then the quiet
    quartile of the blocks (see :func:`.stats.quiet`)."""
    return quiet([percentile(block, 0.50) for block in blocks(samples)])


def quiet_rate(cycles):
    """Ops per second of each block of consecutive ops, then the quiet
    quartile of the blocks."""
    return quiet([len(block) / max(sum(block), 1e-9)
                  for block in blocks(cycles)], better="higher")


def crash(spec, program, plan, workdir, failures):
    """The crash every restart of the run recovers from: one client sends
    ``plan.recovery_writes`` single-edge writes to a durable server
    (``--fsync always``, no periodic checkpoint), which is then
    ``SIGKILL``ed.  Returns what :func:`restart` needs."""
    server, data_dir = start_server(program, workdir, ("--fsync", "always"),
                                    durable=True)
    halves = spec.halves(plan.scale)
    for index in range(plan.recovery_writes):
        op = halves[0].recovery_op(index)
        status, raw = server.post(op.path, op.body)
        field = "inserted" if op.desc[0] == "ins" else "retracted"
        acknowledged = status == 200 and json.loads(raw).get(field) == 1
        failures.check(None if acknowledged else
                       "recovery write %d not acknowledged" % index)
    wal_bytes = os.path.getsize(os.path.join(data_dir, "wal.log"))
    server.kill()
    query = halves[0].edge_query()
    return {
        "data_dir": data_dir,
        "query": json.dumps({"query": query}).encode("utf-8"),
        "expected": sorted(
            answer for half in halves if half.edge_query() == query
            for answer in half.edge_answers()),
        "wal_bytes_per_write": wal_bytes / plan.recovery_writes,
    }


def restart(crashed, workdir, failures):
    """Restart the crashed server from its data directory (and kill it
    again); it must answer the edge query with exactly the acknowledged
    edge set.  Returns the seconds from process start to ``/healthz``."""
    server = Server(["--data-dir", crashed["data_dir"], "--fsync", "always"],
                    workdir)
    server.wait_ready()
    status, raw = server.post("/query", crashed["query"])
    answers = sorted(json.loads(raw)["answers"]) if status == 200 else None
    server.kill()
    failures.check(None if answers == crashed["expected"] else
                   "restart lost or invented edges (%s answers, %d "
                   "acknowledged)" % (
                       "no" if answers is None else len(answers),
                       len(crashed["expected"])))
    return server.ready_after


def model_digest(halves):
    true, undefined = [], []
    for half in halves:
        half_true, half_undefined = half.model_atoms()
        true.extend(half_true)
        undefined.extend(half_undefined)
    return batch_eval.digest(true, undefined)


def evaluate_cold(spec, program, plan, expected, failures):
    """Text -> model through the public batch entry point in one fresh
    interpreter; the model is checked against the reference by digest.
    Returns the timed evaluations' seconds."""
    done = subprocess.run(
        [sys.executable, batch_eval.__file__, program, spec.evaluator,
         str(plan.eval_reps), str(plan.eval_seconds)],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=120,
    )
    if done.returncode != 0:
        failures.check("batch evaluation exited with %d: %s" % (
            done.returncode, done.stderr.decode("utf-8", "replace")[-400:]))
        return []
    result = json.loads(done.stdout.decode("utf-8"))
    failures.check(None if result["digest"] == expected else
                   "batch model differs from the reference")
    return result["times"]


def run_untraced(spec, seed, plan, workdir):
    """All end-to-end metrics of one workload.  Returns
    ``(metrics, failures, details)``."""
    failures = Failures()
    halves = spec.halves(plan.scale)
    program = write_program(spec, halves, workdir)
    digest = model_digest(halves)
    crashed = crash(spec, program, plan, workdir, failures)
    # The traffic server's own start is the first cold-start sample.
    server, _data_dir = start_server(program, workdir, spec.serve_flags,
                                     spec.durable)
    setup_times, recovery_times, eval_times = [server.ready_after], [], []
    client = open_traffic(spec, server, seed, plan)
    try:
        client.run(plan.warmup, measured=False)
        for _ in range(plan.rounds):
            client.run(plan.seconds / plan.rounds)
            setup_times.extend(cold_starts(spec, program, plan, workdir))
            recovery_times.append(restart(crashed, workdir, failures))
            eval_times.extend(
                evaluate_cold(spec, program, plan, digest, failures))
        rss = server.rss_peak_mib()
    finally:
        client.close()
        server.stop()
    traffic = judge_traffic(spec, plan, client, failures)
    reads, writes = traffic["samples"]["read"], traffic["write_pairs"]
    if not (reads and writes and eval_times):
        failures.check("a phase produced no samples (reads %d, writes %d, "
                       "evaluations %d)" % (len(reads), len(writes),
                                            len(eval_times)))
        return {}, failures, {}
    metrics = {
        "setup_s": metric(quiet(setup_times), "s"),
        "read_p50_ms": metric(quiet_p50(reads), "ms"),
        "write_p50_ms": metric(quiet_p50(writes), "ms"),
        "ops_per_s": metric(quiet_rate(traffic["cycles"]), "1/s"),
        "recovery_s": metric(quiet(recovery_times), "s"),
        "wal_bytes_per_write": metric(crashed["wal_bytes_per_write"], "B"),
        "rss_peak_mb": metric(rss, "MiB"),
        "eval_s": metric(quiet(eval_times), "s"),
    }
    details = {
        "read_samples": len(reads), "write_pair_samples": len(writes),
        "setup_samples": len(setup_times),
        "recovery_samples": len(recovery_times),
        "eval_samples": len(eval_times),
        "ops_exhausted": traffic["exhausted"],
    }
    return metrics, failures, details
