"""Command-line interface for the serving subsystem.

``python -m repro.serve`` wraps the HTTP server and a tiny stdlib client:

``serve PROGRAM``
    Load a program file and serve it over HTTP until interrupted::

        python -m repro.serve serve examples/tc.hilog --port 8273

``query TEXT`` / ``ask ATOM``
    Ask a running server::

        python -m repro.serve query 'tc(a, X)' --port 8273

``load FILE``
    Stream a file of facts into a running server (batched inserts)::

        python -m repro.serve load extra_edges.hilog --port 8273

``explain ATOM``
    Ask a running server for a derivation tree::

        python -m repro.serve explain 'tc(a, c)' --port 8273

``stats``
    Print a running server's statistics as JSON.

``lint FILE``
    Statically analyze program files without serving them — a passthrough
    to ``python -m repro.lint`` (same flags, same exit codes)::

        python -m repro.serve lint examples/tc.hilog --format json

``serve`` accepts ``--trace-log PATH`` (append structured evaluation
events as JSON lines while serving), ``--slow-query-ms N`` (threshold
for the server's slow-query log) and ``--validate MODE`` (run the
:mod:`repro.lint` static analyzer over the program before serving:
``warn`` — the default — prints the report and serves anyway, ``strict``
refuses to start a server on a program with lint *errors*, ``off``
skips the analyzer).  With ``--data-dir DIR`` the served
session is durable: updates are write-ahead logged, snapshots checkpoint
the model (``--checkpoint-every N``, ``--fsync always|batch|off``), and
restarting with the same directory recovers the exact pre-crash state —
the program argument is then optional, the directory's persisted program
wins.  SIGTERM/SIGINT shut the server down gracefully: intake stops, the
write queue drains, and a durable session takes a final checkpoint before
the WAL closes.

The client commands talk plain HTTP (:mod:`urllib.request`), so they work
against any instance of :mod:`repro.serve.server`, local or not.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _url(args, path):
    return "http://%s:%d%s" % (args.host, args.port, path)


def _request(args, path, payload=None, retries=5):
    """One JSON request; retries on 503 backpressure with the server's
    suggested delay.  ``urllib`` is imported here: only the client commands
    need it, and ``serve`` loads no HTTP client."""
    import urllib.error
    import urllib.request

    attempt = 0
    while True:
        request = urllib.request.Request(
            _url(args, path),
            data=None if payload is None else
            json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="GET" if payload is None else "POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=args.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            body = error.read().decode("utf-8", "replace")
            if error.code == 503 and attempt < retries:
                attempt += 1
                delay = float(error.headers.get("Retry-After", 0.05) or 0.05)
                time.sleep(delay)
                continue
            try:
                message = json.loads(body).get("error", body)
            except ValueError:
                message = body
            raise SystemExit("server error %d: %s" % (error.code, message))
        except urllib.error.URLError as error:
            raise SystemExit(
                "cannot reach %s: %s" % (_url(args, path), error.reason)
            )


def _cmd_serve(args):
    from repro.hilog.errors import DiagnosticError
    from repro.serve.server import run
    from repro.serve.session import ServingSession

    program = None
    source = args.program
    if args.data_dir:
        from repro.db.session import DatabaseSession
        from repro.durable import is_initialized

        if is_initialized(args.data_dir):
            # Resume: the directory's persisted program wins; recover from
            # the newest snapshot + WAL tail and serve the live session.
            try:
                session = DatabaseSession.open(
                    args.data_dir, strategy=args.strategy,
                    intern_gc=args.intern_gc, fsync=args.fsync,
                    checkpoint_every=args.checkpoint_every,
                    validate=args.validate,
                )
            except DiagnosticError as error:
                raise SystemExit(
                    "refusing to serve %s under --validate strict:\n%s"
                    % (args.data_dir, error.diagnostics.to_text())
                )
            recovery = session.stats()["durability"]
            print("recovered %s (snapshot txn %s, %d txn(s) replayed)"
                  % (args.data_dir, recovery["snapshot_txn"],
                     recovery["replayed_txns"]), flush=True)
            program = ServingSession(session, max_pending=args.max_pending,
                                     max_batch=args.max_batch)
            source = args.data_dir
        elif args.program is None:
            raise SystemExit(
                "%r is not an initialized data directory; a program file "
                "is required to create it" % args.data_dir
            )
    if args.program is None and program is None:
        raise SystemExit("a program file is required without --data-dir")
    if program is None:
        with open(args.program, "r") as handle:
            program = handle.read()

    def ready(server):
        host, port = server.address
        print("serving %s on http://%s:%d (Ctrl-C to stop)"
              % (source, host, port), flush=True)

    tracer = None
    if args.trace_log:
        from repro.obs.trace import EvaluationTracer, set_global_tracer

        # Global (not contextvar) so the writer thread's maintenance
        # passes land in the same log as the event loop's requests.
        tracer = EvaluationTracer(sink=args.trace_log)
        set_global_tracer(tracer)
    serving_kwargs = {}
    if not isinstance(program, ServingSession):
        serving_kwargs.update(strategy=args.strategy,
                              intern_gc=args.intern_gc,
                              validate=args.validate)
        if args.data_dir:
            serving_kwargs.update(path=args.data_dir, fsync=args.fsync,
                                  checkpoint_every=args.checkpoint_every)
    try:
        run(program, host=args.host, port=args.port,
            request_timeout=args.timeout, ready=ready,
            slow_query_ms=args.slow_query_ms,
            max_pending=args.max_pending, max_batch=args.max_batch,
            **serving_kwargs)
    except DiagnosticError as error:
        raise SystemExit(
            "refusing to serve %s under --validate strict:\n%s"
            % (source, error.diagnostics.to_text())
        )
    finally:
        if tracer is not None:
            from repro.obs.trace import set_global_tracer

            set_global_tracer(None)
            tracer.close()
    print("server stopped")
    return 0


def _cmd_query(args):
    result = _request(args, "/query", {"query": args.text})
    for answer in result["answers"]:
        print(answer)
    print("%% %d answer(s) at epoch %d" % (result["count"], result["epoch"]),
          file=sys.stderr)
    return 0


def _cmd_ask(args):
    result = _request(args, "/value", {"atom": args.atom})
    print(result["value"])
    return 0 if result["value"] == "true" else 1


def _cmd_load(args):
    with open(args.facts, "r") as handle:
        text = handle.read()
    # One statement per sentence; ship in batches so a long file neither
    # exceeds the body cap nor lands as one giant maintenance pass.
    sentences = [part.strip() + "." for part in text.split(".") if part.strip()]
    total = 0
    for start in range(0, len(sentences), args.batch):
        chunk = " ".join(sentences[start:start + args.batch])
        result = _request(args, "/insert", {"facts": chunk})
        total += result.get("inserted", 0)
    print("loaded %d new fact(s) from %s" % (total, args.facts))
    return 0


def _cmd_explain(args):
    import urllib.parse

    result = _request(args, "/explain?q=" + urllib.parse.quote(args.atom))
    print(json.dumps(result["explanation"], indent=2))
    return 0


def _cmd_stats(args):
    print(json.dumps(_request(args, "/stats"), indent=2, sort_keys=True))
    return 0


def _cmd_lint(args):
    from repro.lint.cli import main as lint_main

    return lint_main(args.lint_args)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a HiLog deductive database over HTTP, or talk "
                    "to a running server.",
    )
    # Shared connection options, accepted after any subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--host", default="127.0.0.1")
    common.add_argument("--port", type=int, default=8273)
    common.add_argument("--timeout", type=float, default=10.0,
                        help="request timeout in seconds")
    commands = parser.add_subparsers(dest="command", required=True)

    serve_cmd = commands.add_parser("serve", parents=[common],
                                    help="run the HTTP server")
    serve_cmd.add_argument("program", nargs="?", default=None,
                           help="program file to load and serve (optional "
                                "when resuming an initialized --data-dir)")
    serve_cmd.add_argument("--data-dir", default=None, metavar="DIR",
                           help="durable data directory: WAL + snapshot "
                                "checkpoints; resumes the directory when it "
                                "is already initialized")
    serve_cmd.add_argument("--fsync", default="batch",
                           choices=("always", "batch", "off"),
                           help="WAL fsync policy (with --data-dir)")
    serve_cmd.add_argument("--checkpoint-every", type=int, default=None,
                           metavar="N",
                           help="snapshot every N applied transactions "
                                "(with --data-dir)")
    serve_cmd.add_argument("--max-pending", type=int, default=1024,
                           help="write-queue bound (backpressure beyond it)")
    serve_cmd.add_argument("--max-batch", type=int, default=64,
                           help="max ops coalesced per maintenance pass")
    serve_cmd.add_argument("--strategy", default="auto",
                           choices=("auto", "recompute"),
                           help="auto: the engine's maintained walk where it "
                                "accepts the program; recompute: Figure 1 "
                                "on every write")
    serve_cmd.add_argument("--intern-gc", type=int, default=None,
                           help="sweep intern tables every N updates")
    serve_cmd.add_argument("--trace-log", default=None, metavar="PATH",
                           help="append evaluation trace events to this "
                                "JSONL file while serving")
    serve_cmd.add_argument("--slow-query-ms", type=float, default=500.0,
                           help="log requests slower than this many "
                                "milliseconds")
    serve_cmd.add_argument("--validate", default="warn",
                           choices=("strict", "warn", "off"),
                           help="lint the program before serving: 'warn' "
                                "(default) reports and serves anyway, "
                                "'strict' refuses to start on lint errors, "
                                "'off' skips the linter")
    serve_cmd.set_defaults(run=_cmd_serve)

    query_cmd = commands.add_parser("query", parents=[common],
                                    help="query a running server")
    query_cmd.add_argument("text", help="query text, e.g. 'tc(a, X)'")
    query_cmd.set_defaults(run=_cmd_query)

    ask_cmd = commands.add_parser("ask", parents=[common],
                                  help="three-valued ground check")
    ask_cmd.add_argument("atom", help="ground atom, e.g. 'tc(a, b)'")
    ask_cmd.set_defaults(run=_cmd_ask)

    load_cmd = commands.add_parser("load", parents=[common],
                                   help="stream facts into a server")
    load_cmd.add_argument("facts", help="file of facts to insert")
    load_cmd.add_argument("--batch", type=int, default=256,
                          help="facts per request")
    load_cmd.set_defaults(run=_cmd_load)

    explain_cmd = commands.add_parser("explain", parents=[common],
                                      help="derivation tree for a true "
                                           "atom (or a negation-loop "
                                           "witness for an undefined one)")
    explain_cmd.add_argument("atom", help="ground atom, e.g. 'tc(a, b)'")
    explain_cmd.set_defaults(run=_cmd_explain)

    stats_cmd = commands.add_parser("stats", parents=[common],
                                    help="print server statistics")
    stats_cmd.set_defaults(run=_cmd_stats)

    lint_cmd = commands.add_parser(
        "lint", add_help=False,
        help="statically analyze program files (python -m repro.lint)")
    lint_cmd.add_argument("lint_args", nargs=argparse.REMAINDER,
                          help="arguments for python -m repro.lint")
    lint_cmd.set_defaults(run=_cmd_lint)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
