"""Shared pytest configuration.

Ensures the package can be imported straight from the source tree even when
the editable install is not present (the CI environment has no network, so
``pip install -e .`` may be unavailable; ``python setup.py develop`` or this
path fallback both work).

Also extends the benchmark suite's isolation pattern
(``benchmarks/conftest.py``) to the tests: the register executor's global
``EXECUTION_STATS`` counters are zeroed before every test, and the
``isolate_example`` fixture gives hypothesis property tests a per-example
context manager that resets the counters *and* scopes the example's
transient terms in an intern generation swept afterwards — so hundreds of
random-program examples neither skew each other's fetch/alternation
counters nor accrete intern-table entries across the run.
"""

import contextlib
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.engine.seminaive import EXECUTION_STATS


@pytest.fixture(autouse=True)
def _reset_execution_stats():
    """Zero the global fetch/candidate/alternation counters before every
    test (the benchmarks' conftest does the same for benchmark files)."""
    EXECUTION_STATS.reset()
    yield


@pytest.fixture
def isolate_example():
    """Per-hypothesis-example isolation: ``with isolate_example(): ...``.

    Resets ``EXECUTION_STATS`` at example entry (a fixture only runs once
    per test *function*, while hypothesis runs many examples inside it),
    and sweeps the intern tables after the example, keeping
    ``intern_table_sizes`` bounded by the live suite instead of growing
    with every random program ever generated.  The sweep evicts only the
    terms nothing holds, so terms other tests or sessions still reach are
    never evicted.
    """
    from repro.hilog.terms import collect_terms

    @contextlib.contextmanager
    def _isolated():
        EXECUTION_STATS.reset()
        yield
        collect_terms()

    return _isolated
