"""Observability: metrics registry, evaluation tracing, derivation explain.

``repro.obs.metrics`` and ``repro.obs.trace`` are dependency-free and
imported eagerly (the engine's span hooks import them, so they must not
import the engine back).  ``repro.obs.explain`` *does* import the engine —
it replays rule instances against the store — and is loaded lazily
(:mod:`repro._exports`) so ``repro.engine`` can import this package
mid-initialization without a cycle.
"""

from repro._exports import lazy_exports

from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    get_registry,
    parse_prometheus_text,
    render_prometheus,
    set_default_registry,
    use_registry,
)
from repro.obs.trace import (
    EvaluationTracer,
    current_tracer,
    set_global_tracer,
    tracing,
)

_EXPLAIN_NAMES, __getattr__ = lazy_exports(__name__, {
    "repro.obs.explain": ("Derivation", "ExplainError", "explain_atom",
                          "verify_derivation"),
})

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "get_registry",
    "parse_prometheus_text",
    "render_prometheus",
    "set_default_registry",
    "use_registry",
    "EvaluationTracer",
    "current_tracer",
    "set_global_tracer",
    "tracing",
] + _EXPLAIN_NAMES
