"""Process-wide metrics: counters, gauges, and bounded-memory histograms.

The registry is the numeric half of the observability layer (the event half
is :mod:`repro.obs.trace`).  Design constraints, in order:

* **Bounded memory.**  Histograms never store samples: observations land in
  a fixed array of log-scaled buckets (quarter-decades from 1µs to ~178s by
  default), from which p50/p99 are estimated by cumulative scan with linear
  interpolation inside the winning bucket.  A histogram is ~40 machine
  words forever, no matter how many requests it absorbs.

* **Near-zero disabled overhead.**  Metric *families* ("http", "session",
  "serve", ...) can be disabled on a registry; every accessor for a metric
  of a disabled family returns the shared :data:`NULL_METRIC`, whose
  ``inc``/``observe``/``set`` are empty methods — call sites need no
  ``if enabled`` guards and pay one no-op call when switched off.

* **Contextvar-safe defaults.**  ``get_registry()`` resolves a contextvar
  override first and falls back to the process-global default registry —
  the same pattern as the engine's ``EXECUTION_STATS`` — so tests isolate
  with ``use_registry(MetricsRegistry())`` while production code and
  background threads (which do *not* inherit later ``ContextVar`` sets)
  share the global one.

* **Standard exposition.**  ``MetricsRegistry.render_prometheus()`` emits
  the Prometheus text format (``# HELP``/``# TYPE``, ``_total`` counters,
  cumulative ``_bucket{le="..."}`` histogram series with
  ``_sum``/``_count``), and ``parse_prometheus_text()`` validates/parses
  it back — used by the serving tests and the e15 scrape-format gate.
"""

from __future__ import annotations

import contextlib
import contextvars
import re
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "COUNT_BUCKETS",
    "DEFAULT_BUCKETS",
    "get_registry",
    "use_registry",
    "set_default_registry",
    "parse_prometheus_text",
]

#: Default histogram boundaries: quarter-decade log-scaled seconds covering
#: 1µs .. ~178s (34 finite buckets + overflow).  Wide enough for anything
#: from a register-machine iteration to a disastrous full rebuild.
DEFAULT_BUCKETS = tuple(10.0 ** (exponent / 4.0) for exponent in range(-24, 10))

#: Power-of-two boundaries for size/count-valued histograms (batch sizes,
#: delta cardinalities): 1 .. 65536 + overflow.
COUNT_BUCKETS = tuple(float(2 ** exponent) for exponent in range(0, 17))


class _NullMetric(object):
    """Shared no-op stand-in returned for metrics of a disabled family.

    Implements the full ``Counter``/``Gauge``/``Histogram`` mutation surface
    as empty methods, so instrumented call sites run unconditionally and
    cost one attribute lookup plus an empty call when the family is off.
    """

    __slots__ = ()

    def inc(self, amount=1):
        pass

    def dec(self, amount=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass


NULL_METRIC = _NullMetric()


class _Metric(object):
    """Common identity/bookkeeping for registered metrics."""

    kind = "untyped"

    __slots__ = ("name", "help", "family", "labels", "_lock")

    def __init__(self, name, help="", family=None, labels=None):
        self.name = name
        self.help = help
        self.family = family
        self.labels = tuple(sorted((labels or {}).items()))
        self._lock = threading.Lock()


class Counter(_Metric):
    """Monotonically increasing count (requests served, batches applied)."""

    kind = "counter"

    __slots__ = ("_value",)

    def __init__(self, name, help="", family=None, labels=None):
        _Metric.__init__(self, name, help, family, labels)
        self._value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % (amount,))
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value


class Gauge(_Metric):
    """Point-in-time value; either set directly or read from a callback.

    A callback gauge re-evaluates its zero-argument callable at snapshot
    and scrape time (queue depths, thread aliveness); re-registering the
    same gauge name with a new callback *replaces* the callback, so a
    fresh ``ServingSession`` repoints the process gauges instead of
    leaving a closure over the dead one.  Callback failures degrade to the
    last directly-set value instead of poisoning the scrape.
    """

    kind = "gauge"

    __slots__ = ("_value", "_callback")

    def __init__(self, name, help="", family=None, labels=None, callback=None):
        _Metric.__init__(self, name, help, family, labels)
        self._value = 0.0
        self._callback = callback

    def set(self, value):
        with self._lock:
            self._value = value

    def inc(self, amount=1):
        with self._lock:
            self._value += amount

    def dec(self, amount=1):
        with self._lock:
            self._value -= amount

    def set_callback(self, callback):
        with self._lock:
            self._callback = callback

    @property
    def value(self):
        callback = self._callback
        if callback is not None:
            try:
                return callback()
            except Exception:
                pass
        return self._value


class Histogram(_Metric):
    """Fixed-bucket latency/size distribution with quantile estimation."""

    kind = "histogram"

    __slots__ = ("buckets", "_counts", "_sum", "_count")

    def __init__(self, name, help="", family=None, labels=None, buckets=None):
        _Metric.__init__(self, name, help, family, labels)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted: %r" % (bounds,))
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +Inf overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value):
        counts = self._counts
        bounds = self.buckets
        # Linear scan beats bisect for the short, front-loaded default
        # layout only at the very low end; bisect is branch-free enough
        # and O(log 34) always.
        low, high = 0, len(bounds)
        while low < high:
            mid = (low + high) // 2
            if value <= bounds[mid]:
                high = mid
            else:
                low = mid + 1
        with self._lock:
            counts[low] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self):
        return self._count

    def quantile(self, q):
        """Estimated q-quantile (0 <= q <= 1) by cumulative bucket scan with
        linear interpolation inside the containing bucket; None when empty."""
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if not total:
            return None
        target = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                lower = self.buckets[index - 1] if index > 0 else 0.0
                if index >= len(self.buckets):
                    return self.buckets[-1]  # overflow bucket: clamp
                upper = self.buckets[index]
                fraction = (target - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.buckets[-1]

    def summary(self):
        return {
            "count": self._count,
            "sum": round(self._sum, 9),
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry(object):
    """Named metrics with get-or-create accessors and family switches."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics = {}  # (name, labels-tuple) -> metric
        self._disabled = set()

    # -- family switches ---------------------------------------------------

    def disable(self, family):
        with self._lock:
            self._disabled.add(family)

    def enable(self, family):
        with self._lock:
            self._disabled.discard(family)

    def enabled(self, family):
        return family not in self._disabled

    # -- accessors ---------------------------------------------------------

    def _get(self, cls, name, help, family, labels, **kwargs):
        if family is not None and family in self._disabled:
            return NULL_METRIC
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, help=help, family=family, labels=labels,
                             **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    "metric %r is a %s, not a %s"
                    % (name, metric.kind, cls.kind)
                )
        return metric

    def counter(self, name, help="", family=None, labels=None):
        return self._get(Counter, name, help, family, labels)

    def gauge(self, name, help="", family=None, labels=None, callback=None):
        metric = self._get(Gauge, name, help, family, labels)
        if callback is not None and metric is not NULL_METRIC:
            metric.set_callback(callback)
        return metric

    def histogram(self, name, help="", family=None, labels=None, buckets=None):
        return self._get(Histogram, name, help, family, labels,
                         buckets=buckets)

    # -- read side ---------------------------------------------------------

    def _live_metrics(self):
        with self._lock:
            metrics = list(self._metrics.values())
            disabled = set(self._disabled)
        return [m for m in metrics
                if m.family is None or m.family not in disabled]

    def snapshot(self):
        """Plain-data view: ``{exposed_name: number-or-summary-dict}``."""
        out = {}
        for metric in self._live_metrics():
            name = metric.name
            if metric.labels:
                name += "{%s}" % ",".join(
                    '%s="%s"' % pair for pair in metric.labels
                )
            if metric.kind == "histogram":
                out[name] = metric.summary()
            else:
                out[name] = metric.value
        return out

    def render_prometheus(self):
        """The registry in Prometheus text exposition format (0.0.4)."""
        by_name = {}
        for metric in self._live_metrics():
            by_name.setdefault(metric.name, []).append(metric)
        lines = []
        for name in sorted(by_name):
            group = by_name[name]
            kind = group[0].kind
            exposed = name
            if kind == "counter" and not exposed.endswith("_total"):
                exposed += "_total"
            help_text = next((m.help for m in group if m.help), "")
            if help_text:
                lines.append("# HELP %s %s" % (exposed, _escape_help(help_text)))
            lines.append("# TYPE %s %s" % (exposed, kind))
            for metric in group:
                base_labels = list(metric.labels)
                if kind == "histogram":
                    with metric._lock:
                        counts = list(metric._counts)
                        total = metric._count
                        value_sum = metric._sum
                    cumulative = 0
                    for bound, bucket_count in zip(metric.buckets, counts):
                        cumulative += bucket_count
                        lines.append("%s_bucket%s %d" % (
                            name,
                            _labels(base_labels + [("le", _format(bound))]),
                            cumulative,
                        ))
                    lines.append("%s_bucket%s %d" % (
                        name, _labels(base_labels + [("le", "+Inf")]), total))
                    lines.append("%s_sum%s %s"
                                 % (name, _labels(base_labels), _format(value_sum)))
                    lines.append("%s_count%s %d"
                                 % (name, _labels(base_labels), total))
                else:
                    lines.append("%s%s %s" % (
                        exposed, _labels(base_labels), _format(metric.value)))
        return "\n".join(lines) + "\n" if lines else ""


def _labels(pairs):
    if not pairs:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (key, _escape_label(str(value))) for key, value in pairs
    )


def _escape_help(text):
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text):
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format(value):
    if value != value:  # NaN
        return "NaN"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return "%.9g" % value


# -- exposition parsing/validation ----------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_METADATA_RE = re.compile(r"^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*)(?: (.*))?$")


def parse_prometheus_text(text):
    """Parse/validate Prometheus text exposition output.

    Returns ``{metric_name: [(labels_dict, float_value), ...]}``; raises
    ``ValueError`` on any malformed line, undeclared types, or histogram
    series whose cumulative ``_bucket`` counts decrease.  This is the
    scrape-format validity check the serving tests and e15 gate use — a
    deliberately strict reader, not a general Prometheus client.
    """
    samples = {}
    types = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            meta = _METADATA_RE.match(line)
            if meta is None:
                raise ValueError("line %d: malformed comment %r"
                                 % (line_number, raw))
            if meta.group(1) == "TYPE":
                types[meta.group(2)] = (meta.group(3) or "").strip()
            continue
        sample = _SAMPLE_RE.match(line)
        if sample is None:
            raise ValueError("line %d: malformed sample %r" % (line_number, raw))
        labels = {}
        label_text = sample.group("labels")
        if label_text:
            spans = list(_LABEL_RE.finditer(label_text))
            matched = ",".join(m.group(0) for m in spans)
            if matched.replace(" ", "") != label_text.replace(" ", "").rstrip(","):
                raise ValueError("line %d: malformed labels %r"
                                 % (line_number, label_text))
            for m in spans:
                labels[m.group(1)] = m.group(2)
        value_text = sample.group("value")
        try:
            if value_text == "+Inf":
                value = float("inf")
            elif value_text == "-Inf":
                value = float("-inf")
            else:
                value = float(value_text)
        except ValueError:
            raise ValueError("line %d: malformed value %r"
                             % (line_number, value_text))
        samples.setdefault(sample.group("name"), []).append((labels, value))
    # Histogram coherence: cumulative bucket counts must be nondecreasing
    # in 'le' order and end with the +Inf bucket equal to _count.
    for name, kind in types.items():
        if kind != "histogram":
            continue
        series = samples.get(name + "_bucket", [])
        by_group = {}
        for labels, value in series:
            le = labels.get("le")
            if le is None:
                raise ValueError("histogram %s bucket without le label" % name)
            rest = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            bound = float("inf") if le == "+Inf" else float(le)
            by_group.setdefault(rest, []).append((bound, value))
        for rest, buckets in by_group.items():
            buckets.sort(key=lambda pair: pair[0])
            counts = [count for _bound, count in buckets]
            if counts != sorted(counts):
                raise ValueError(
                    "histogram %s%s bucket counts decrease" % (name, dict(rest))
                )
            if not buckets or buckets[-1][0] != float("inf"):
                raise ValueError("histogram %s is missing its +Inf bucket" % name)
    return samples


# -- default registry resolution ------------------------------------------

_DEFAULT_REGISTRY = MetricsRegistry()
_REGISTRY_VAR = contextvars.ContextVar("repro_metrics_registry", default=None)


def get_registry():
    """The active registry: contextvar override first, then the process
    default.  Background threads started before an override never see it
    (contextvars do not propagate into already-running threads), which is
    exactly right: the serving writer thread reports to the process
    registry the HTTP ``/metrics`` endpoint scrapes."""
    registry = _REGISTRY_VAR.get()
    return _DEFAULT_REGISTRY if registry is None else registry


def set_default_registry(registry):
    """Swap the process-global default registry; returns the previous one."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous


@contextlib.contextmanager
def use_registry(registry):
    """Scope ``get_registry()`` to ``registry`` inside the with-block."""
    token = _REGISTRY_VAR.set(registry)
    try:
        yield registry
    finally:
        _REGISTRY_VAR.reset(token)
