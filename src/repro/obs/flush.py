"""Dogfooded metric export: snapshots published into hwdb.

The paper's thesis is that visibility flows through hwdb — UIs subscribe
to ``Flows``/``Links``/``Leases`` and render whatever arrives.  The
router's own telemetry takes the same road: a periodic flusher writes
each registry snapshot into the ``Metrics`` stream table, so operational
counters and latency percentiles are queryable over CQL and
subscribable over the UDP RPC exactly like measurement data::

    QUERY SELECT name, field, value FROM Metrics [RANGE 10 SECONDS]
    SUBSCRIBE 5 SELECT * FROM Metrics [RANGE 5 SECONDS]

Being a ring buffer, the table bounds memory no matter how long the
router runs; old snapshots fall off the end.
"""

from __future__ import annotations

import logging
from typing import Callable, List, TYPE_CHECKING

from ..core.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hwdb.database import HomeworkDatabase
    from ..sim.simulator import Simulator

logger = logging.getLogger(__name__)

#: hwdb table the flusher publishes into (created by the standard schema).
METRICS_TABLE = "metrics"


class MetricsFlusher:
    """Periodically publishes registry snapshots into hwdb ``Metrics``.

    ``collectors`` are callables run just before each snapshot; they let
    pull-style sources (per-port byte totals, datapath cache occupancy)
    refresh their gauges without paying anything on the hot path.
    """

    def __init__(
        self,
        db: "HomeworkDatabase",
        registry: MetricsRegistry,
        interval: float = 5.0,
        table: str = METRICS_TABLE,
    ):
        if interval <= 0:
            raise ValueError(f"flush interval must be positive: {interval}")
        self.db = db
        self.registry = registry
        self.interval = interval
        self.table = table
        self._m_flushes = registry.counter("obs.flush_total")
        self._m_rows = registry.counter("obs.flush_row_total")
        self._collectors: List[Callable[[], None]] = []
        self._timer = None

    def add_collector(self, collector: Callable[[], None]) -> None:
        self._collectors.append(collector)

    def start(self, sim: "Simulator") -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = sim.schedule_periodic(self.interval, self.flush)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def flush(self) -> int:
        """Publish one snapshot; returns the number of rows written."""
        for collector in self._collectors:
            try:
                collector()
            except Exception:  # noqa: BLE001 - a bad collector must not stop export
                logger.exception("metrics collector failed")
                self.registry.counter("obs.collector_error_total").inc()
        if not self.db.has_table(self.table):
            return 0
        rows = self.registry.snapshot()
        for name, kind, field, value in rows:
            self.db.insert(
                self.table,
                {"name": name, "kind": kind, "field": field, "value": value},
            )
        self._m_flushes.inc()
        self._m_rows.inc(len(rows))
        return len(rows)

    def __repr__(self) -> str:
        return (
            f"MetricsFlusher(interval={self.interval}, flushes={self._m_flushes.value}, "
            f"rows={self._m_rows.value})"
        )
