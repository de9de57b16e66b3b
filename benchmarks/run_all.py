#!/usr/bin/env python
"""Run the benchmark suite and record the results machine-readably.

Each ``bench_e*.py`` file is executed with pytest-benchmark's JSON output
enabled; the per-benchmark results (name, wall time, parameters, the
benchmarks' own ``extra_info`` sizes/speedups) are merged into a single
``BENCH_results.json`` so the performance trajectory of the repository is
recorded run over run (CI uploads the file as an artifact).

Usage::

    python benchmarks/run_all.py                  # the full suite
    python benchmarks/run_all.py --only e10 e11   # a subset (substring match)
    python benchmarks/run_all.py --smoke          # the fast incremental smoke set
    python benchmarks/run_all.py --output path.json
    python benchmarks/run_all.py --profile        # cProfile top-N per file
    python benchmarks/run_all.py --check-baseline # regression-gate vs baseline.json
    python benchmarks/run_all.py --update-baseline

The **regression gate** (``--check-baseline``) compares the fresh results
against the committed ``benchmarks/baseline.json``: any benchmark whose
deterministic work counters (``fetches`` / ``candidates``, the read
path's ``renders_*`` / ``match_calls``) differ from the baseline's at all
fails the run.  Wall time is not compared here: absolute seconds from
another machine need a tolerance so wide it catches nothing the ledger's
per-metric bounds on alternating parent/change pairs
(``benchmarks/ledger/``) do not, and the benchmarks' own relative bars
(``E11_SPEEDUP_BAR`` ...) are machine-independent.  Refresh the baseline
with ``--update-baseline`` after an intentional change to the work done.

The **profiling harness** (``--profile``) reruns each benchmark file under
``cProfile`` and prints/records the top functions by internal time, so perf
PRs start from evidence instead of guesses.

Exit status is non-zero when any benchmark file fails (or regresses).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import pstats
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

#: The subset exercised by the CI smoke step: the incremental-maintenance
#: acceptance benchmark, the intern-table memory gate, the well-founded
#: alternating-fixpoint gate, the concurrent-serving gate, the
#: observability gate and the durability gate (all fast, all assert their
#: acceptance bars — speedup, bounded memory, the non-stratified speedup,
#: zero consistency violations + the writer batching speedup, the
#: disabled-tracing overhead bound + a parseable /metrics exposition, the
#: snapshot-recovery speedup + the WAL fsync=batch overhead bound, and the
#: linter's cost bounds (lint ≤10% of materialization, validated session
#: open ≤1.1x) respectively).
SMOKE = (
    "bench_e11_incremental.py",
    "bench_e12_memory.py",
    "bench_e13_wellfounded.py",
    "bench_e14_serving.py",
    "bench_e15_observability.py",
    "bench_e16_durability.py",
    "bench_e17_lint.py",
)


def discover(only=None, smoke=False):
    if smoke:
        return [os.path.join(HERE, name) for name in SMOKE]
    files = sorted(glob.glob(os.path.join(HERE, "bench_e*.py")))
    if only:
        files = [f for f in files if any(token in os.path.basename(f) for token in only)]
    return files


def run_file(path, timeout, profile=False, profile_top=15):
    """Run one benchmark file; returns ``(ok, wall, benchmarks, output, hotspots)``."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_path = handle.name
    profile_path = None
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable]
    if profile:
        with tempfile.NamedTemporaryFile(suffix=".pstats", delete=False) as handle:
            profile_path = handle.name
        command += ["-m", "cProfile", "-o", profile_path]
    command += [
        "-m", "pytest", path,
        "--benchmark-only", "-q", "--benchmark-json=%s" % json_path,
    ]
    start = time.perf_counter()
    try:
        completed = subprocess.run(
            command, cwd=REPO, env=env, timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        ok = completed.returncode == 0
        output = completed.stdout.decode("utf-8", "replace")
    except subprocess.TimeoutExpired as error:
        ok = False
        output = "TIMEOUT after %ss\n%s" % (
            timeout, (error.stdout or b"").decode("utf-8", "replace")
        )
    wall = time.perf_counter() - start

    benchmarks = []
    try:
        with open(json_path) as handle:
            report = json.load(handle)
        for bench in report.get("benchmarks", ()):
            sizes = dict(bench.get("extra_info") or {})
            # A benchmark may export a metrics-registry snapshot; surface
            # it as its own key so ``sizes`` holds scalars only.
            metrics = sizes.pop("metrics", None)
            entry = {
                "name": bench.get("name"),
                "group": bench.get("group"),
                "params": bench.get("params"),
                "wall_time_s": bench.get("stats", {}).get("mean"),
                "rounds": bench.get("stats", {}).get("rounds"),
                "sizes": sizes,
            }
            if metrics:
                entry["metrics"] = metrics
            benchmarks.append(entry)
    except (OSError, ValueError):
        pass
    finally:
        try:
            os.unlink(json_path)
        except OSError:
            pass

    hotspots = []
    if profile_path is not None:
        try:
            stats = pstats.Stats(profile_path)
            entries = sorted(
                stats.stats.items(), key=lambda item: item[1][2], reverse=True
            )
            for (filename, line, func), (cc, ncalls, tottime, cumtime, _callers) \
                    in entries:
                if filename == "~":
                    continue  # builtins (incl. the profiler's own hooks)
                location = "%s:%d" % (os.path.basename(filename), line)
                hotspots.append({
                    "function": "%s (%s)" % (func, location),
                    "ncalls": ncalls,
                    "tottime_s": round(tottime, 4),
                    "cumtime_s": round(cumtime, 4),
                })
                if len(hotspots) >= profile_top:
                    break
        except Exception:
            pass
        finally:
            try:
                os.unlink(profile_path)
            except OSError:
                pass
    return ok, wall, benchmarks, output, hotspots


def _benchmark_key(entry):
    """Stable identity of one benchmark across runs."""
    return "%s::%s" % (entry.get("file", ""), entry.get("name", ""))


#: Deterministic work counters a benchmark may record in ``extra_info``:
#: index probes and the join candidates they returned
#: (``EXECUTION_STATS.diff``), and the read path's term renders and general
#: ``match`` calls per query (E14c).  They depend on the program and the
#: planner, not on the machine, so the gate holds them to the baseline
#: *exactly*.
WORK_COUNTERS = ("fetches", "candidates",
                 "renders_cold", "renders_repeat", "match_calls")


def check_baseline(results, baseline_path):
    """Compare fresh results against the committed baseline.

    Where the baseline holds :data:`WORK_COUNTERS` for a benchmark (the e10
    closure-scaling, e13 well-founded and e14 read-path entries), the fresh
    counters must *equal* it: an executor change may not move the work
    done, and a planner change that does must refresh the baseline
    deliberately.  Returns a list of human-readable regression strings;
    benchmarks missing from either side are skipped.
    """
    try:
        with open(baseline_path) as handle:
            baseline = json.load(handle)
    except OSError:
        return ["baseline file %s is missing (generate it with "
                "--update-baseline)" % baseline_path]
    baseline_entries = {
        _benchmark_key(entry): entry for entry in baseline.get("benchmarks", ())
    }
    regressions = []
    for entry in results["benchmarks"]:
        reference = baseline_entries.get(_benchmark_key(entry))
        if reference is None:
            continue
        reference_sizes = reference.get("sizes") or {}
        fresh_sizes = entry.get("sizes") or {}
        for counter in WORK_COUNTERS:
            if counter in reference_sizes \
                    and fresh_sizes.get(counter) != reference_sizes[counter]:
                regressions.append(
                    "%s [%s]: %r vs baseline %r (work counters must match exactly)"
                    % (_benchmark_key(entry), counter, fresh_sizes.get(counter),
                       reference_sizes[counter])
                )
    return regressions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="*", default=None,
                        help="substring filters on benchmark file names")
    parser.add_argument("--smoke", action="store_true",
                        help="run only the fast incremental smoke subset")
    parser.add_argument("--output", default=os.path.join(REPO, "BENCH_results.json"))
    parser.add_argument("--timeout", type=float, default=1800.0,
                        help="per-file timeout in seconds")
    parser.add_argument("--profile", action="store_true",
                        help="rerun each file under cProfile and record the "
                             "top functions by internal time")
    parser.add_argument("--profile-top", type=int, default=15,
                        help="how many hotspot entries to keep per file")
    parser.add_argument("--check-baseline", action="store_true",
                        help="fail when a benchmark's work counters differ "
                             "from benchmarks/baseline.json")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the fresh results to the baseline file")
    parser.add_argument("--baseline",
                        default=os.path.join(HERE, "baseline.json"),
                        help="path of the committed baseline")
    args = parser.parse_args(argv)

    files = discover(only=args.only, smoke=args.smoke)
    if not files:
        print("no benchmark files matched", file=sys.stderr)
        return 2

    results = {
        "suite": "conf_pods_Ross91a benchmarks",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "files": [],
        "benchmarks": [],
    }
    failures = 0
    for path in files:
        name = os.path.basename(path)
        print("== %s" % name, flush=True)
        ok, wall, benchmarks, output, hotspots = run_file(
            path, args.timeout, profile=args.profile,
            profile_top=args.profile_top,
        )
        if not ok:
            failures += 1
            print(output)
        print("   %s in %.1fs, %d benchmark(s)"
              % ("ok" if ok else "FAILED", wall, len(benchmarks)), flush=True)
        entry = {"file": name, "ok": ok, "wall_time_s": round(wall, 3)}
        if hotspots:
            entry["hotspots"] = hotspots
            print("   top hotspots (tottime):")
            for spot in hotspots[:5]:
                print("     %7.3fs  %s" % (spot["tottime_s"], spot["function"]))
        results["files"].append(entry)
        for bench in benchmarks:
            bench["file"] = name
            results["benchmarks"].append(bench)

    results["total_wall_time_s"] = round(
        sum(entry["wall_time_s"] for entry in results["files"]), 3
    )
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s (%d files, %d benchmarks, %d failure(s))"
          % (args.output, len(results["files"]), len(results["benchmarks"]), failures))

    if args.update_baseline:
        baseline_out = results
        if args.smoke or args.only:
            # Partial run: merge into the existing baseline instead of
            # overwriting it, so the gate over the other files survives.
            try:
                with open(args.baseline) as handle:
                    baseline_out = json.load(handle)
            except OSError:
                baseline_out = {"benchmarks": [], "files": []}
            fresh_keys = {_benchmark_key(b) for b in results["benchmarks"]}
            fresh_files = {entry["file"] for entry in results["files"]}
            baseline_out["benchmarks"] = [
                b for b in baseline_out.get("benchmarks", ())
                if _benchmark_key(b) not in fresh_keys
            ] + results["benchmarks"]
            baseline_out["files"] = [
                entry for entry in baseline_out.get("files", ())
                if entry.get("file") not in fresh_files
            ] + results["files"]
        with open(args.baseline, "w") as handle:
            json.dump(baseline_out, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("updated baseline %s (%s)" % (
            args.baseline,
            "merged partial run" if baseline_out is not results else "full run",
        ))

    if args.check_baseline:
        regressions = check_baseline(results, args.baseline)
        if regressions:
            print("BASELINE REGRESSIONS:")
            for line in regressions:
                print("  " + line)
            return 1
        print("baseline check ok (work counters equal %s)"
              % os.path.basename(args.baseline))

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
