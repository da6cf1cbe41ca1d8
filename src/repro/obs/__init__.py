"""obs — the router-wide telemetry subsystem.

Counters, gauges and fixed-bucket latency histograms in a
:class:`MetricsRegistry` (defined in the kernel, :mod:`repro.core.metrics`,
so every layer can build one), one histogram per timed path; and a
:class:`MetricsFlusher` that dogfoods export by publishing snapshots
into the hwdb ``Metrics`` stream table.  See DESIGN.md §8.
"""

from ..core.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .flush import METRICS_TABLE, MetricsFlusher
from .trace import TRACES_TABLE, Tracer, render_context, render_lineage

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS_TABLE",
    "MetricsFlusher",
    "MetricsRegistry",
    "TRACES_TABLE",
    "Tracer",
    "render_context",
    "render_lineage",
]
