"""The traced run: per-layer metrics, measured from outside.

Two parts.  The HTTP part drives the live server like the untraced run,
with the client-side tracer switched on for alternate blocks of requests
(the untraced blocks of the same run are the base of
``trace.overhead_ratio``), and scrapes ``GET /metrics`` and ``GET /stats``
before and after.  The replay part takes a fixed number of the *same*
seeded ops and steps through the layers by hand in this process, with
pre-parsed inputs, so that each call is one layer's work: parser, planner,
evaluator, session maintenance, epoch publication, WAL, snapshots,
recovery, the serving session and its readers.  Each call is one span;
counts (fetches, candidates, bytes, transactions) are taken at the same
boundaries and repeat exactly for a fixed seed.

Only public functions of ``src/repro`` are called.
"""

import http.client
import os
import tempfile
import time

from .phases import (Failures, judge_traffic, open_traffic, start_server,
                     write_program)
from .serverproc import HOST, REQUEST_TIMEOUT
from .stats import median, metric, percentile
from .tracer import Tracer

#: Endpoints whose server-side time is compared with the clients' view.
OP_ENDPOINTS = ("/query", "/ask", "/value", "/insert", "/retract")
#: Ground-check round trips for ``http.overhead_ms``.
HTTP_PROBES = 200


def scrape(server):
    """``(metrics, stats, seconds the /metrics scrape took)``; the
    exposition text goes through the program's own strict reader, so a
    malformed scrape fails the run."""
    from repro.obs import parse_prometheus_text

    started = time.perf_counter()
    _status, body = server.get("/metrics")
    elapsed = time.perf_counter() - started
    return parse_prometheus_text(body.decode("utf-8")), \
        server.get_json("/stats"), elapsed


def _http_seconds(metrics):
    return sum(value for labels, value
               in metrics.get("repro_http_request_seconds_sum", ())
               if labels.get("endpoint") in OP_ENDPOINTS)


def http_part(spec, seed, plan, workdir, program, failures, tracer):
    """Traffic with alternating tracing, scrapes, and the one-connection
    ground-check probe.  Returns the part's measurements."""
    server, _data_dir = start_server(program, workdir, spec.serve_flags,
                                     spec.durable)
    try:
        before, _stats, _ = scrape(server)
        client = open_traffic(spec, server, seed, plan, tracer)
        try:
            client.run(plan.warmup, measured=False)
            client.run(plan.seconds)
        finally:
            client.close()
        traffic = judge_traffic(spec, plan, client, failures)
        scrapes = [scrape(server) for _ in range(3)]
        after, stats_after, _ = scrapes[0]
        # One idle connection, ground checks only: the HTTP round trip
        # with nothing else going on, to set against the same call made
        # in process.
        checks = [op for op in spec.ops(spec.halves(plan.scale), seed,
                                        8 * HTTP_PROBES)
                  if op.path in ("/ask", "/value")][:HTTP_PROBES]
        connection = http.client.HTTPConnection(HOST, server.port,
                                                timeout=REQUEST_TIMEOUT)
        round_trips = []
        try:
            for index, op in enumerate(checks):
                with tracer.span("http.round_trip", op="probe/%d" % index):
                    started = time.perf_counter()
                    connection.request("POST", op.path, op.body)
                    response = connection.getresponse()
                    response.read()
                    round_trips.append(time.perf_counter() - started)
                failures.check(None if response.status == 200 else
                               "probe %s answered %d" % (op.path,
                                                         response.status))
        finally:
            connection.close()
    finally:
        server.stop()
    return {
        "traffic": traffic,
        "server_seconds": _http_seconds(after) - _http_seconds(before),
        "scrape_seconds": [s[2] for s in scrapes],
        "stats": stats_after,
        "round_trips": round_trips,
    }


def replay_count(spec, plan):
    """Ops the replay part steps through."""
    return plan.ops if plan.scale == "toy" else spec.replay_ops


def replay_part(spec, seed, plan, workdir, program_text, tracer):
    """Step the fixed op sequence through the layers in this process."""
    from repro.core.magic.evaluate import answer_from_store
    from repro.core.modular import modularly_stratified_for_hilog
    from repro.db import DatabaseSession
    from repro.durable import WriteAheadLog, load_snapshot, write_snapshot
    from repro.engine.seminaive import (EXECUTION_STATS, SeminaiveUnsupported,
                                        compile_stratum, seminaive_evaluate,
                                        seminaive_well_founded,
                                        stratify_program)
    from repro.hilog import Literal, Program, parse_program, parse_query, \
        parse_term
    from repro.hilog.terms import Term, intern_table_sizes
    from repro.obs import get_registry
    from repro.serve import EpochManager, ServingSession

    out = {}
    count = replay_count(spec, plan)
    sequence = list(enumerate(spec.ops(spec.halves(plan.scale), seed, count)))
    interned_before = sum(intern_table_sizes().values())

    # -- hilog: parse every op text ------------------------------------------
    parsed = []
    parse_seconds = 0.0
    for index, op in sequence:
        text = op.text
        with tracer.span("hilog.parse", op="r/%d" % index) as c:
            if op.path == "/query":
                value = parse_query(text)
                if isinstance(value, Term):
                    value = (Literal(value),)
            elif op.kind == "read":
                value = parse_term(text)
            else:
                value = [rule.head for rule in parse_program(text).facts()]
        parse_seconds += c["seconds"]
        parsed.append(value)
    out["hilog.parse_us_per_op"] = metric(
        parse_seconds * 1e6 / len(sequence), "us")

    # -- db: open, then the evaluator the session chose ----------------------
    with tracer.span("db.open") as c:
        session = DatabaseSession(program_text)
    out["db.open_ms"] = metric(c["seconds"] * 1e3, "ms")
    program = parse_program(program_text)
    rules = Program(tuple(program.proper_rules()))
    facts = sum(1 for _ in program.facts())

    with tracer.span("plan.compile") as c:
        stratification = None
        for options in ({"by_component": True}, {"allow_unstratified": True}):
            try:
                stratification = stratify_program(rules, **options)
                break
            except SeminaiveUnsupported:
                continue
        strata = 0
        if stratification is not None:
            for stratum_rules in stratification.strata:
                try:
                    compile_stratum(stratum_rules, stratification.recursive)
                    strata += 1
                except SeminaiveUnsupported:
                    pass
        c["strata"] = strata
    out["plan.compile_ms"] = metric(c["seconds"] * 1e3, "ms")

    before = EXECUTION_STATS.snapshot()
    with tracer.span("eval.model") as c:
        if session.mode == "incremental":
            result = seminaive_evaluate(program)
            rounds, true = result.iterations, len(result.true)
        elif session.mode == "wellfounded":
            result = seminaive_well_founded(program)
            rounds, true = result.alternations, len(result.true)
        else:
            result = modularly_stratified_for_hilog(program,
                                                    strategy="seminaive")
            rounds, true = len(result.rounds), len(result.model.true)
        work = EXECUTION_STATS.diff(before)
        c.update(evaluator=session.mode, rounds=rounds, true=true,
                 fetches=work["fetches"], candidates=work["candidates"])
    out["eval.model_ms"] = metric(c["seconds"] * 1e3, "ms")
    out["eval.fetches"] = metric(work["fetches"], "count")
    out["eval.candidates"] = metric(work["candidates"], "count")
    out["eval.candidates_per_fact"] = metric(
        work["candidates"] / max(1, true - facts), "ratio")
    out["eval.rounds"] = metric(rounds, "count")

    # -- db.maintain + epochs.publish + magic.answer, op by op ---------------
    manager = EpochManager(session.store.snapshot)
    manager.publish_base(undefined=session.undefined)
    published = []
    overlay_max = 0
    current = {"op": None}

    def publish(summary):
        with tracer.span("epochs.publish", op=current["op"]) as c:
            manager.publish_delta(summary.added, summary.removed,
                                  undefined=session.undefined)
        published.append(c["seconds"])

    session.add_update_listener(publish)
    maintain, answer, fetches, candidates, changed = [], [], 0, 0, 0
    for (index, op), value in zip(sequence, parsed):
        current["op"] = "r/%d" % index
        if op.kind == "write":
            before = EXECUTION_STATS.snapshot()
            with tracer.span("db.maintain", op=current["op"]) as c:
                apply = session.insert if op.desc[0] == "ins" \
                    else session.retract
                summary = apply(value)
                work = EXECUTION_STATS.diff(before)
                c.update(fetches=work["fetches"],
                         candidates=work["candidates"],
                         changed=len(summary.added) + len(summary.removed))
            maintain.append(c["seconds"] - published[-1])
            fetches += work["fetches"]
            candidates += work["candidates"]
            changed += c["changed"]
            overlay_max = max(overlay_max,
                              manager.stats()["current_overlay"])
        elif op.path == "/query":
            with tracer.span("magic.answer", op=current["op"]) as c:
                c["answers"] = len(answer_from_store(session.store,
                                                     value).answers)
            answer.append(c["seconds"])
    session.remove_update_listener(publish)
    writes = len(maintain)
    out["db.maintain_ms_p50"] = metric(percentile(maintain, 0.5) * 1e3, "ms")
    out["db.maintain_ms_p95"] = metric(percentile(maintain, 0.95) * 1e3, "ms")
    out["db.fetches_per_update"] = metric(fetches / writes, "count")
    out["db.candidates_per_update"] = metric(candidates / writes, "count")
    out["db.changed_facts_per_update"] = metric(changed / writes, "count")
    out["magic.answer_us_per_query"] = metric(median(answer) * 1e6, "us")
    out["epochs.publish_us"] = metric(median(published) * 1e6, "us")
    out["epochs.rebases"] = metric(manager.stats()["rebases"], "count")
    out["epochs.overlay_facts_max"] = metric(overlay_max, "count")
    out["hilog.intern_terms_delta"] = metric(
        sum(intern_table_sizes().values()) - interned_before, "count")

    # -- durable: snapshots of the replayed state ----------------------------
    snapshot_dir = tempfile.mkdtemp(dir=workdir)
    write_seconds, load_seconds = [], []
    for txn in (1, 2, 3):
        with tracer.span("snapshot.write") as c:
            path = write_snapshot(
                snapshot_dir, rules_text=program_text, mode=session.mode,
                txn=txn, edb=session.edb(), store=session.store,
                undefined=session.undefined)
        write_seconds.append(c["seconds"])
        with tracer.span("snapshot.load") as c:
            load_snapshot(path)
        load_seconds.append(c["seconds"])
    out["snapshot.write_ms"] = metric(median(write_seconds) * 1e3, "ms")
    out["snapshot.load_ms"] = metric(median(load_seconds) * 1e3, "ms")
    out["snapshot.bytes_per_fact"] = metric(
        os.path.getsize(path) / max(1, len(session)), "B")
    manager.close()
    session.close()

    # -- durable: the WAL alone, same batches, fsync always ------------------
    write_ops = [(op, value) for (_i, op), value in zip(sequence, parsed)
                 if op.kind == "write"]
    wal_path = os.path.join(snapshot_dir, "wal.log")
    wal = WriteAheadLog(wal_path, fsync="always")
    appended = []
    try:
        for op, _value in write_ops:
            text = op.text.rstrip(".")
            with tracer.span("wal.append") as c:
                inserting = op.desc[0] == "ins"
                txn = wal.begin([text] if inserting else [],
                                [] if inserting else [text])
                wal.commit(txn)
            appended.append(c["seconds"])
    finally:
        wal.close()
    out["wal.append_us_per_txn"] = metric(median(appended) * 1e6, "us")
    out["wal.bytes_per_txn"] = metric(
        os.path.getsize(wal_path) / len(appended), "B")

    # -- durable: a logged session, abandoned and recovered ------------------
    data_dir = os.path.join(tempfile.mkdtemp(dir=workdir), "data")
    fsyncs = get_registry().histogram(
        "repro_wal_fsync_seconds", "WAL fsync latency", family="durable")
    fsyncs_before = fsyncs.count
    logged = DatabaseSession(program_text, path=data_dir, fsync="always")
    try:
        for op, value in write_ops:
            (logged.insert if op.desc[0] == "ins" else logged.retract)(value)
    finally:
        # No final checkpoint: recovery must replay every transaction.
        logged.close(checkpoint=False)
    out["wal.fsyncs"] = metric(fsyncs.count - fsyncs_before, "count")
    with tracer.span("recovery.open") as c:
        recovered = DatabaseSession.open(data_dir)
    replayed = recovered.stats()["durability"]["replayed_txns"]
    c["replayed_txns"] = replayed
    recovered.close()
    out["recovery.replay_ms_per_txn"] = metric(
        c["seconds"] * 1e3 / max(1, replayed), "ms")

    # -- serve.session: the same ops through the writer queue and readers ----
    serving = ServingSession(program_text)
    barrier, reader_query, reader_check = [], [], []
    try:
        for (index, op), value in zip(sequence, parsed):
            op_id = "r/%d" % index
            path, text = op.path, op.text
            if op.kind == "write":
                with tracer.span("serve.submit", op=op_id):
                    if op.desc[0] == "ins":
                        serving.submit(inserts=value).result()
                    else:
                        serving.submit(retracts=value).result()
                # What the queue itself costs, whatever the op: enqueue,
                # writer thread wakes, future resolves, caller wakes.  (The
                # difference submit - maintain of a 40 ms op is all noise.)
                with tracer.span("serve.barrier", op=op_id) as c:
                    serving.flush()
                barrier.append(c["seconds"])
            elif path == "/query":
                with tracer.span("serve.reader_query", op=op_id) as c:
                    with serving.reader() as reader:
                        reader.query(text)
                reader_query.append(c["seconds"])
            else:
                with tracer.span("serve.reader_check", op=op_id) as c:
                    with serving.reader() as reader:
                        (reader.ask if path == "/ask" else reader.value)(text)
                reader_check.append(c["seconds"])
    finally:
        serving.close()
    out["serve.submit_overhead_ms"] = metric(median(barrier) * 1e3, "ms")
    out["serve.reader_query_us"] = metric(median(reader_query) * 1e6, "us")
    return out, median(reader_check)


def run_traced(spec, seed, plan, workdir):
    """All per-layer metrics of one workload.  Returns
    ``(metrics, failures, details, spans)``."""
    failures = Failures()
    tracer = Tracer()
    halves = spec.halves(plan.scale)
    program = write_program(spec, halves, workdir)
    http = http_part(spec, seed, plan, workdir, program, failures, tracer)
    with open(program, "r") as handle:
        program_text = handle.read()
    metrics, check_seconds = replay_part(spec, seed, plan, workdir,
                                         program_text, tracer)
    traffic, stats = http["traffic"], http["stats"]
    reads = traffic["traced_reads"]
    if not (reads[True] and reads[False]):
        failures.check("too few reads to compare traced with untraced")
        return {}, failures, {}, tracer.to_dict()
    samples = traffic["samples"]
    metrics.update({
        # Ungated end-to-end tails: p95 is the highest percentile with ten
        # samples beyond it, but run to run it spreads by up to 28 % here.
        "tail.read_p95_ms": metric(percentile(samples["read"], 0.95), "ms"),
        "tail.write_p95_ms": metric(percentile(samples["write"], 0.95),
                                    "ms"),
        "serve.batch_ops_mean": metric(
            stats["applied_ops"] / max(1, stats["batches"]), "ratio"),
        "serve.rejected": metric(stats["rejected"], "count"),
        "http.overhead_ms": metric(
            (median(http["round_trips"]) - check_seconds) * 1e3, "ms"),
        "http.server_time_share": metric(
            http["server_seconds"] / traffic["client_seconds"], "ratio"),
        "obs.metrics_scrape_ms": metric(
            median(http["scrape_seconds"]) * 1e3, "ms"),
        "trace.overhead_ratio": metric(
            median(reads[True]) / median(reads[False]), "ratio"),
        "loadgen.gap_us_per_op": metric(median(traffic["gaps"]) * 1e6, "us"),
    })
    details = {"measured_ops": len(traffic["cycles"]),
               "replayed_ops": replay_count(spec, plan),
               "spans": len(tracer.spans)}
    return metrics, failures, details, tracer.to_dict()
