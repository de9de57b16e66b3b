"""Percentiles, quartile summaries and the ``BENCHMARK.json`` catalogue."""

import json
import os
import statistics

LEDGER_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def load_catalogue():
    """The parsed ``BENCHMARK.json`` at the repository root."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), "r") as handle:
        return json.load(handle)


def percentile(values, fraction):
    """The value at ``fraction`` of the sorted sample (nearest rank, no
    interpolation: a reported latency is one that a request really had)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


median = statistics.median

#: Blocks the measured traffic is cut into — fewer when samples are few: a
#: block holds at least :data:`BLOCK_LEAST`.
BLOCKS = 16
BLOCK_LEAST = 8


def quiet(values, better="lower"):
    """The quartile of ``values`` on their good side: the first when lower
    is better, the third when higher is.

    This host is shared, and for seconds at a time — a third of some hours
    — its other tenants slow everything here by half (a pure-Python loop
    of 7.8 ms then takes 12 ms, with no steal time reported).  Such a
    spell only ever adds time, and how much of a run it covers is chance,
    so the median of a run's samples sits in the undisturbed mode in one
    run and in the slowed mode in the next.  The quartile on the good side
    stays in the undisturbed mode until three quarters of the run are
    disturbed: it is what the program does when left alone, which is what
    two commits are compared on."""
    if len(values) < 2:
        return values[0]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[0] if better == "lower" else quartiles[2]


def blocks(values):
    """``values`` in their order, cut into runs of consecutive samples."""
    count = max(1, min(BLOCKS, len(values) // BLOCK_LEAST))
    return [values[i * len(values) // count:(i + 1) * len(values) // count]
            for i in range(count)]


def summarize(values):
    """Median and quartiles of repeated runs of one metric."""
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": list(values)}


def metric(value, unit):
    return {"value": value, "unit": unit}
