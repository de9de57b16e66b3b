"""Smoke test of the performance ledger: every workload at toy size
(chain-20 graphs, 40 ops, one round: two starts, one restart, one cold
evaluation) through the same command and code path as the real run.

No timing is asserted — only that every metric ``BENCHMARK.json`` names
is emitted with its unit, that nothing fails verification, that counted
metrics repeat exactly for a fixed seed, and that the verifier does catch
a wrong answer.
"""

import json
import os
import subprocess
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
if LEDGER_DIR not in sys.path:
    sys.path.insert(0, LEDGER_DIR)

from ledgerlib import stats, workloads  # noqa: E402

CATALOGUE = stats.load_catalogue()
WORKLOADS = [entry["name"] for entry in CATALOGUE["workloads"]]
#: Per-layer metrics that are counted, not timed, in the replay part (the
#: serving counters come from the live server of the HTTP part).
EXACT = [entry["name"] for entry in CATALOGUE["per_layer"]
         if entry["unit"] in ("count", "B")
         and not entry["name"].startswith("serve.")]


def run_ledger(tmp_path, workload, trace, seed=7):
    done = subprocess.run(
        [sys.executable, os.path.join(LEDGER_DIR, "run.py"), "--toy",
         "--workload", workload, "--seed", str(seed), "--seconds", "20",
         "--trace", str(trace)],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=120,
    )
    output = done.stdout.decode("utf-8")
    assert done.returncode == 0, output + done.stderr.decode("utf-8")
    return json.loads(output.strip().splitlines()[-1])


def assert_emitted(result, entries):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in entries}
    for entry in entries:
        emitted = result["metrics"][entry["name"]]
        assert emitted["unit"] == entry["unit"], entry["name"]
        assert isinstance(emitted["value"], (int, float)), entry["name"]


def test_catalogue_names_the_workloads():
    assert sorted(WORKLOADS) == sorted(workloads.SPECS)
    assert "setup_s" in {entry["name"] for entry in CATALOGUE["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_at_toy_size(tmp_path, workload):
    result = run_ledger(tmp_path, workload, trace=0)
    assert_emitted(result, CATALOGUE["end_to_end"])
    for emitted in result["metrics"].values():
        assert emitted["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_repeat_exactly(tmp_path, workload):
    first = run_ledger(tmp_path, workload, trace=1)
    second = run_ledger(tmp_path, workload, trace=1)
    assert_emitted(first, CATALOGUE["per_layer"])
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    with open(str(tmp_path / ".ledger" / ("trace-%s.json" % workload))) as f:
        trace = json.load(f)
    names = {span["name"] for span in trace["spans"]}
    assert {"client.request", "db.maintain", "epochs.publish",
            "wal.append", "serve.submit"} <= names
    assert all(span["end"] >= span["start"] for span in trace["spans"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_decides_the_ops(workload):
    spec = workloads.SPECS[workload]

    def bodies(seed):
        return [op.body for op in spec.ops(spec.halves("toy"), seed, 40)]

    assert bodies(7) == bodies(7)
    assert bodies(7) != bodies(8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_verifier_catches_a_wrong_answer(workload):
    spec = workloads.SPECS[workload]
    ops = spec.ops(spec.halves("toy"), 7, 40)
    reference = spec.halves("toy")[0]
    caught = 0
    for op in ops:
        if op.kind == "write":
            reference.apply(op.desc)
            continue
        truth = reference.expected(op.desc)
        good = json.dumps(truth).encode("utf-8")
        assert workloads.check_response(reference, op, 200, good) is None
        wrong = dict(truth)
        if "answers" in wrong:
            wrong["answers"] = wrong["answers"] + ["tc(nowhere, nowhere)"]
        elif "result" in wrong:
            wrong["result"] = not wrong["result"]
        else:
            wrong["value"] = "true" if wrong["value"] != "true" else "false"
        bad = json.dumps(wrong).encode("utf-8")
        assert workloads.check_response(reference, op, 200, bad) is not None
        assert workloads.check_response(reference, op, 503, b"") is not None
        caught += 1
    assert caught
