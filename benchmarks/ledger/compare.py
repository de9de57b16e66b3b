#!/usr/bin/env python3
"""Compare two result files of ``run.py --repeat N --out FILE``.

    python3 benchmarks/ledger/compare.py parent.json change.json

One row per workload and end-to-end metric, judged against the bound
``BENCHMARK.json`` fixes for that metric:

``worse``       the change's median is worse than the parent's by more
                than the bound (a share of the parent's median);
``unresolved``  it is not, but the run-to-run spread of either side (the
                distance between its quartiles, as a share of the parent's
                median) is wider than the bound, so "unchanged" cannot be
                said either;
``ok``          neither.

Per-layer metrics have no bound: their medians are printed side by side,
and a metric counted rather than timed (unit ``count`` or ``B``) is
compared with ``==``.  The exit code is non-zero when any row is
``worse`` or the change failed more checks than the parent.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ledgerlib import stats  # noqa: E402

EXACT_UNITS = ("count", "B")


def judge(parent, change, better, bound):
    """``(verdict, worsening, spread)`` for one metric's two summaries."""
    base = abs(parent["median"]) or 1e-12
    delta = (change["median"] - parent["median"]) / base
    worsening = delta if better == "lower" else -delta
    spread = max(parent["q3"] - parent["q1"],
                 change["q3"] - change["q1"]) / base
    if worsening > bound:
        return "worse", worsening, spread
    if spread > bound:
        return "unresolved", worsening, spread
    return "ok", worsening, spread


def compare(parent, change, catalogue, out=sys.stdout):
    """Print the table; returns the number of failing rows."""
    gated = {m["name"]: m for m in catalogue["end_to_end"]}
    bad = 0
    for name, parent_workload in parent["workloads"].items():
        change_workload = change["workloads"].get(name)
        if change_workload is None:
            continue
        out.write("%s\n" % name)
        if change_workload["failed"] > parent_workload["failed"]:
            out.write("  worse       failed checks %d -> %d\n" % (
                parent_workload["failed"], change_workload["failed"]))
            bad += 1
        for metric, before in parent_workload["metrics"].items():
            after = change_workload["metrics"].get(metric)
            if after is None:
                continue
            row = "%-28s %12.6g -> %12.6g %-5s" % (
                metric, before["median"], after["median"], before["unit"])
            if metric in gated:
                entry = gated[metric]
                verdict, worsening, spread = judge(
                    before, after, entry["better"], entry["bound"])
                out.write("  %-11s %s  %+6.1f%% (bound %.0f%%, spread "
                          "%.1f%%)\n" % (verdict, row, 100 * worsening,
                                         100 * entry["bound"], 100 * spread))
                bad += verdict == "worse"
            elif before["unit"] in EXACT_UNITS:
                same = before["values"] == after["values"] or \
                    before["median"] == after["median"]
                out.write("  %-11s %s\n" % ("==" if same else "changed", row))
            else:
                out.write("  %-11s %s\n" % ("", row))
    return bad


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[1], "r") as handle:
        parent = json.load(handle)
    with open(argv[2], "r") as handle:
        change = json.load(handle)
    return 1 if compare(parent, change, stats.load_catalogue()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
