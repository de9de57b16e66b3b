"""Cold from-scratch evaluation, run as a fresh subprocess per round:
parse program *text* and compute the model through a public batch entry
point, with serving, incremental maintenance and durability bypassed.

``python batch_eval.py PROGRAM EVALUATOR REPS SECONDS`` prints one JSON
object: the seconds ``import repro`` took, one text-to-model time per
repetition (after one untimed warm-up, which fills the intern tables; at
least ``REPS`` of them, and more until ``SECONDS`` of them are in hand, so
that a 50 ms evaluation is sampled as long as a 250 ms one), and a digest
of the model for the caller to check.
"""

import hashlib
import json
import sys
import time


def digest(true, undefined):
    """SHA-256 over the sorted atom strings of a model."""
    text = "\n".join(sorted(true)) + "\n--\n" + "\n".join(sorted(undefined))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv):
    path, evaluator = argv[1], argv[2]
    reps, seconds = int(argv[3]), float(argv[4])
    started = time.perf_counter()
    import repro
    imported = time.perf_counter() - started
    with open(path, "r") as handle:
        text = handle.read()
    evaluate = {
        "perfect": repro.perfect_model_for_hilog,
        "wellfounded": repro.well_founded_for_hilog,
    }[evaluator]
    times = []
    model = evaluate(repro.parse_program(text), strategy="seminaive")
    while len(times) < reps or sum(times) < seconds:
        started = time.perf_counter()
        model = evaluate(repro.parse_program(text), strategy="seminaive")
        times.append(time.perf_counter() - started)
    print(json.dumps({
        "import_s": imported,
        "times": times,
        "true": len(model.true),
        "digest": digest(map(str, model.true), map(str, model.undefined)),
    }))


if __name__ == "__main__":
    main(sys.argv)
