"""The metrics registry: counters, gauges and fixed-bucket histograms.

Every subsystem of the router reports through one
:class:`MetricsRegistry`, and the registry is the only store of each
count: components keep no attribute counters beside it.  The router
owns one and hands it down; a component built on its own creates a
private one, so instruments always exist and no code path asks whether
telemetry is attached.  This module is stdlib-only and sits in the
kernel layer so every layer can construct a registry.  The design
constraints come from where the instruments sit:

* the hwdb append path and the datapath receive path run per-packet, so
  a counter increment is one attribute add and a histogram observation
  is one ``bisect`` into precomputed bucket bounds — no locks, no
  allocation (the whole router is a single-threaded event loop);
* latency histograms use **fixed buckets** so a snapshot is a handful of
  numbers regardless of how many events were observed, which is what
  lets the flusher publish them into hwdb's ring-buffer tables.

Instruments are unit-agnostic: hwdb and controller timings observe
wall-clock seconds (``time.perf_counter``), protocol round-trips
(DHCP DISCOVER→ACK, DNS upstream) observe *simulated* seconds.  The
metric name records which (``*_seconds`` wall time, ``*_sim_seconds``
simulated time).
"""

from __future__ import annotations

import functools
import time
from bisect import bisect_right
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "DEFAULT_BUCKETS",
]

#: Default latency buckets: 1µs .. 10s in a 1-2.5-5 ladder.  The upper
#: bound of the last finite bucket doubles as the +Inf bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def fields(self) -> List[Tuple[str, float]]:
        return [("value", float(self.value))]

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that goes up and down (queue depth, port byte total...)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def fields(self) -> List[Tuple[str, float]]:
        return [("value", float(self.value))]

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram of observations (latencies, sizes).

    Observation is O(log buckets) via bisect into the precomputed bound
    list; a snapshot exposes count/sum/min/max and bucket-interpolated
    percentiles, so exporting never walks raw samples (none are kept).
    """

    kind = "histogram"
    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets or DEFAULT_BUCKETS))
        # One overflow slot past the last bound (the +Inf bucket).
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate p-quantile (0 < p <= 1) from the bucket counts.

        Returns the upper bound of the bucket holding the p-th
        observation, clamped to the observed max — the standard
        fixed-bucket estimate (pessimistic by at most one bucket width).
        """
        if self.count == 0:
            return 0.0
        rank = p * self.count
        cumulative = 0
        for i, n in enumerate(self.bucket_counts):
            cumulative += n
            if cumulative >= rank:
                bound = self.bounds[i] if i < len(self.bounds) else self.max
                return min(bound, self.max)
        return self.max

    def fields(self) -> List[Tuple[str, float]]:
        if self.count == 0:
            return [("count", 0.0), ("sum", 0.0)]
        return [
            ("count", float(self.count)),
            ("sum", self.sum),
            ("min", self.min),
            ("max", self.max),
            ("p50", self.percentile(0.50)),
            ("p95", self.percentile(0.95)),
            ("p99", self.percentile(0.99)),
        ]

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3g})"


class Span:
    """One tracing span: a named, tagged interval with parent/child links."""

    __slots__ = ("name", "tags", "parent", "depth", "start", "end", "children")

    def __init__(self, name: str, tags: Dict[str, Any], parent: Optional["Span"], start: float):
        self.name = name
        self.tags = tags
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.start = start
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        if parent is not None:
            parent.children.append(self)

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "parent": self.parent.name if self.parent else None,
            "depth": self.depth,
            "start": self.start,
            "duration": self.duration,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, depth={self.depth}, dur={self.duration:.3g})"


class MetricsRegistry:
    """Process-wide instrument registry + tracing context.

    ``clock`` provides span timing and defaults to wall time; pass the
    simulator clock to trace in simulated seconds instead.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_finished_spans: int = 256,
    ):
        self.clock = clock
        self._metrics: Dict[str, Any] = {}
        self._span_stack: List[Span] = []
        self.finished_spans: deque = deque(maxlen=max_finished_spans)

    # ------------------------------------------------------------------
    # Instrument accessors (get-or-create, memoized by name)
    # ------------------------------------------------------------------

    def _get(self, name: str, factory: Callable[[], Any], kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, not {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), "gauge")

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._get(name, lambda: Histogram(name, buckets), "histogram")

    def metrics(self) -> List[Any]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def value(self, name: str) -> float:
        """The current value of counter or gauge ``name``; 0 if never
        registered (a count nothing has incremented yet)."""
        metric = self._metrics.get(name)
        return 0 if metric is None else metric.value

    def reset(self) -> None:
        self._metrics.clear()
        self._span_stack.clear()
        self.finished_spans.clear()

    # ------------------------------------------------------------------
    # Tracing spans
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **tags) -> Iterator[Span]:
        """Open a span; nests under the currently open span.

        The duration lands in the histogram ``span.<name>`` and the
        finished span (with its tags and parentage) is retained in a
        small ring for inspection.
        """
        parent = self._span_stack[-1] if self._span_stack else None
        span = Span(name, dict(tags), parent, self.clock())
        self._span_stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._span_stack.pop()
            self.histogram(f"span.{name}").observe(span.duration)
            if (
                self.finished_spans.maxlen is not None
                and len(self.finished_spans) == self.finished_spans.maxlen
            ):
                # The ring is full: this append evicts the oldest span.
                self.counter("obs.span_dropped_total").inc()
            self.finished_spans.append(span)

    def current_span(self) -> Optional[Span]:
        return self._span_stack[-1] if self._span_stack else None

    def timed(self, name: str, **tags) -> Callable:
        """Decorator form of :meth:`span`."""

        def decorator(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name, **tags):
                    return fn(*args, **kwargs)

            return wrapper

        return decorator

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> List[Tuple[str, str, str, float]]:
        """Flatten every instrument to ``(name, kind, field, value)`` rows.

        This is exactly the row shape of the hwdb ``Metrics`` table, so
        the flusher publishes snapshots verbatim.
        """
        rows: List[Tuple[str, str, str, float]] = []
        for metric in self.metrics():
            for field, value in metric.fields():
                rows.append((metric.name, metric.kind, field, value))
        return rows

    def render_text(self) -> str:
        """Text exposition format (Prometheus-style name/value lines)."""
        lines: List[str] = []
        for metric in self.metrics():
            base = _sanitize(metric.name)
            lines.append(f"# TYPE {base} {metric.kind}")
            for field, value in metric.fields():
                name = base if field == "value" else f"{base}_{field}"
                lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def render_pretty(self) -> str:
        """Aligned human-readable snapshot (the ``repro metrics`` CLI)."""
        rows = self.snapshot()
        if not rows:
            return "(no metrics recorded)"
        width = max(len(name) for name, _k, _f, _v in rows)
        lines = []
        last = None
        for name, kind, field, value in rows:
            label = name if name != last else ""
            last = name
            lines.append(f"{label:<{width}}  {kind:<9} {field:<6} {value:.6g}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
