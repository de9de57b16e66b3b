#!/usr/bin/env python3
"""The performance ledger: one command, every metric by name and unit,
every output checked.

    python3 benchmarks/ledger/run.py --workload tc-read --seed 7 \\
        --seconds 12 --trace 0

starts the real server (``python -m repro.serve serve ... --port 0``) as
a subprocess, drives it over HTTP with one closed-loop client, kills and
restarts it, evaluates the workload's program cold in fresh interpreters,
checks every answer against a plain-Python reference and prints each
end-to-end metric; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` prints
the per-layer metrics instead and writes the spans to
``.ledger/trace-<workload>.json``.  Without ``--workload`` every workload
runs in turn; ``--repeat N --out FILE`` writes N result sets with median
and quartiles per metric, the input of ``compare.py``.  See ``README.md``
beside this file.
"""

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, LEDGER_DIR)

from ledgerlib import stats  # noqa: E402

#: Hard limit on one workload's run, set-up and checking included.
WORKLOAD_TIMEOUT = 170
DEFAULT_SEED = 7


class WorkloadTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise WorkloadTimeout("workload exceeded %d s" % WORKLOAD_TIMEOUT)


def _terminated(_signum, _frame):
    raise KeyboardInterrupt


def run_workload(name, seed, seconds, trace, toy=False):
    """One run of one workload: ``(result, details, spans)`` where
    ``result`` is the contract's JSON object, ``details`` the sample counts
    and failure messages printed beside it, and ``spans`` the traced run's
    spans (else ``None``).  Working files live in a temporary directory
    under ``.ledger`` in the current directory, removed before returning."""
    from ledgerlib import layers, phases, serverproc, workloads

    spec = workloads.SPECS[name]
    root = os.path.join(os.getcwd(), ".ledger")
    os.makedirs(root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=root)
    plan = phases.plan_for(spec, seconds, toy)
    spans = None
    serverproc.pin_to_one_cpu()
    try:
        if trace:
            metrics, failures, details, spans = layers.run_traced(
                spec, seed, plan, workdir)
        else:
            metrics, failures, details = phases.run_untraced(
                spec, seed, plan, workdir)
    except serverproc.ServerFailed as error:
        # The server's captured stderr travels with the exception.
        raise SystemExit("ledger: %s: %s" % (name, error))
    finally:
        serverproc.reap_all()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failures.failed == 0 and bool(metrics),
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }
    details["failures"] = failures.messages
    return result, details, spans


def print_metrics(name, result, details):
    print("workload %s: %d checked, %d failed" % (
        name, result["attempted"], result["failed"]))
    for message in details.get("failures", ()):
        print("  FAILED %s" % message)
    for metric_name, entry in result["metrics"].items():
        print("  %-28s %14.6g %s" % (metric_name, entry["value"],
                                     entry["unit"]))
    for key, value in sorted(details.items()):
        if key != "failures":
            print("  (%s: %s)" % (key, value))


def main(argv=None):
    if not os.path.isfile(os.path.join(stats.SRC_DIR, "repro", "__init__.py")):
        sys.stderr.write("ledger: no program to measure: %s is missing\n"
                         % os.path.join(stats.SRC_DIR, "repro"))
        return 2
    sys.path.insert(0, stats.SRC_DIR)  # the traced run calls into repro
    from ledgerlib import workloads

    catalogue = stats.load_catalogue()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.SPECS),
                        help="run one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=catalogue["run_seconds"],
                        help="length of the measured traffic window")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run N times and summarize each metric")
    parser.add_argument("--out", help="write the result sets to this file")
    # Chain-20 graphs, 40 ops per client, one of everything: the smoke
    # test's size, through the same code path.
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminated)
    names = [args.workload] if args.workload else list(workloads.SPECS)
    runs = {name: [] for name in names}
    last = None
    for _ in range(args.repeat):
        for name in names:
            signal.alarm(WORKLOAD_TIMEOUT)
            try:
                result, details, spans = run_workload(
                    name, args.seed, args.seconds, args.trace, args.toy)
            finally:
                signal.alarm(0)
            print_metrics(name, result, details)
            if spans is not None:
                path = os.path.join(os.getcwd(), ".ledger",
                                    "trace-%s.json" % name)
                with open(path, "w") as handle:
                    json.dump(spans, handle)
                print("  (spans: %s)" % path)
            runs[name].append(result)
            last = result
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summarize_runs(runs, args), handle, indent=1)
    if len(names) == 1 and args.repeat == 1:
        final = last
    else:
        final = {
            "correct": all(r["correct"] for rs in runs.values() for r in rs),
            "attempted": sum(r["attempted"] for rs in runs.values()
                             for r in rs),
            "failed": sum(r["failed"] for rs in runs.values() for r in rs),
            "metrics": {},
        }
    print(json.dumps(final))
    # A run that printed its result ends with 0 even when a check failed:
    # ``correct`` / ``failed`` say so, and compare.py refuses on them.
    return 0


def summarize_runs(runs, args):
    """The ``--out`` document: per workload and metric, every value with
    its median and quartiles."""
    out = {"seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "time": time.time(), "workloads": {}}
    for name, results in runs.items():
        metrics = {}
        for metric_name in results[0]["metrics"]:
            values = [r["metrics"][metric_name]["value"] for r in results
                      if metric_name in r["metrics"]]
            metrics[metric_name] = dict(
                stats.summarize(values),
                unit=results[0]["metrics"][metric_name]["unit"])
        out["workloads"][name] = {
            "metrics": metrics,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
    return out


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        from ledgerlib import serverproc

        serverproc.reap_all()
        sys.exit(130)
    except WorkloadTimeout as error:
        sys.stderr.write("ledger: %s\n" % error)
        sys.exit(3)
