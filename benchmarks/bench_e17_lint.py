"""E17 — Static analysis: lint cost stays marginal next to evaluation.

The linter is a load-time pass, so its budget is a *fraction* of the work
it fronts.  Two rows, both machine-independent ratio gates:

* **E17a — lint vs. materialization (the ≤``E17_LINT_FRACTION_BAR`` gate,
  default 0.10).**  The chain-200 transitive-closure program is linted
  (:func:`repro.lint.lint_program` — all passes: safety, stratification,
  plan compilation, hygiene, liveness) and materialized through a
  :class:`~repro.db.session.DatabaseSession`; the lint run must cost at
  most a tenth of the materialization it guards.
* **E17b — ``validate="warn"`` session-open overhead (the
  ≤``E17_OPEN_OVERHEAD_BAR``x gate, default 1.1x).**  The same session is
  opened with validation off and with ``validate="warn"``; end to end the
  validated open must stay within 1.1x of the raw open — the linter
  reuses the plan compiler and dependency graph the session builds
  anyway, so its marginal cost is small.

Run with::

    pytest benchmarks/bench_e17_lint.py --benchmark-only -s
"""

import os

from repro.analysis.report import ExperimentRow, best_of, print_table
from repro.db.session import DatabaseSession
from repro.lint import lint_program
from repro.workloads.closure import transitive_closure_program
from repro.workloads.graphs import chain_edges

#: E17a bar: lint wall time over materialization wall time.
LINT_FRACTION_BAR = float(os.environ.get("E17_LINT_FRACTION_BAR", "0.10"))
#: E17b bar: validate="warn" session open over validate="off" open.
OPEN_OVERHEAD_BAR = float(os.environ.get("E17_OPEN_OVERHEAD_BAR", "1.1"))

CHAIN = 200
REPEATS = 5


def test_lint_cost_vs_materialization(benchmark):
    """E17a: all lint passes on chain-200 TC cost ≤10% of materializing it."""
    program = transitive_closure_program(chain_edges(CHAIN))
    report = lint_program(program)  # warmup + correctness: the program is clean
    assert not report.has_errors(), [d.code for d in report.errors]
    assert not report.warnings, [d.code for d in report.warnings]
    DatabaseSession(program).stats()  # warmup the evaluation path

    lint_s, materialize_s = best_of(
        lambda: lint_program(program), lambda: DatabaseSession(program),
        repeats=REPEATS)
    fraction = lint_s / materialize_s

    benchmark.extra_info.update({
        "chain": CHAIN,
        "lint_s": round(lint_s, 4),
        "materialize_s": round(materialize_s, 4),
        "lint_fraction": round(fraction, 4),
        "diagnostics": len(report),
    })
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "E17a  Lint cost vs materialization (chain-%d TC)" % CHAIN,
        ["pass", "wall (s)", "fraction"],
        [
            ExperimentRow("lint (all checks)", {
                "wall (s)": round(lint_s, 4),
                "fraction": round(fraction, 4),
            }),
            ExperimentRow("materialize", {
                "wall (s)": round(materialize_s, 4), "fraction": 1.0,
            }),
        ],
    )
    assert fraction <= LINT_FRACTION_BAR, (
        "linting costs %.1f%% of materialization (bar: %.1f%%)"
        % (fraction * 100.0, LINT_FRACTION_BAR * 100.0)
    )


def test_validated_session_open_overhead(benchmark):
    """E17b: a validate="warn" session open stays within 1.1x of a raw open."""
    program = transitive_closure_program(chain_edges(CHAIN))
    DatabaseSession(program, validate="warn").stats()  # warmup both paths

    raw_s, validated_s = best_of(
        lambda: DatabaseSession(program),
        lambda: DatabaseSession(program, validate="warn"), repeats=REPEATS)
    overhead = validated_s / raw_s

    benchmark.extra_info.update({
        "chain": CHAIN,
        "open_off_s": round(raw_s, 4),
        "open_warn_s": round(validated_s, 4),
        "overhead_x": round(overhead, 3),
    })
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print_table(
        "E17b  Session open: validate='warn' overhead (chain-%d TC)" % CHAIN,
        ["open", "wall (s)", "overhead"],
        [
            ExperimentRow("validate=off", {
                "wall (s)": round(raw_s, 4), "overhead": 1.0,
            }),
            ExperimentRow("validate=warn", {
                "wall (s)": round(validated_s, 4),
                "overhead": round(overhead, 3),
            }),
        ],
    )
    assert overhead <= OPEN_OVERHEAD_BAR, (
        "validated session open is %.2fx the raw open (bar: %.2fx)"
        % (overhead, OPEN_OVERHEAD_BAR)
    )
