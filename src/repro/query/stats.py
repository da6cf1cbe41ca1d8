"""Execution statistics for the query engine.

Two layers of accounting:

* :class:`OperatorStats` — per-operator row counts and cumulative wall
  time for one compiled plan, accumulated across executions.  This is
  what ``EXPLAIN ANALYZE`` renders.
* :class:`EngineMetrics` — engine-wide counters/histograms published to
  the :mod:`repro.obs` registry (``query.*`` namespace).  The registry
  object is injected, never imported, so this package stays below
  ``obs`` in the layer DAG.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class OperatorStats:
    """Rows/batches/seconds per plan-node id, summed over executions."""

    __slots__ = ("_rows", "_batches", "_seconds")

    def __init__(self) -> None:
        self._rows: Dict[int, int] = {}
        self._batches: Dict[int, int] = {}
        self._seconds: Dict[int, float] = {}

    def record(self, node_id: int, rows: int, seconds: float) -> None:
        self._rows[node_id] = self._rows.get(node_id, 0) + rows
        self._batches[node_id] = self._batches.get(node_id, 0) + 1
        self._seconds[node_id] = self._seconds.get(node_id, 0.0) + seconds

    def snapshot(self, node_id: int) -> Optional[Tuple[int, int, float]]:
        """``(rows_out, batches, cumulative_seconds)`` or None if never run."""
        if node_id not in self._batches:
            return None
        return (
            self._rows.get(node_id, 0),
            self._batches[node_id],
            self._seconds.get(node_id, 0.0),
        )

    def clear(self) -> None:
        self._rows.clear()
        self._batches.clear()
        self._seconds.clear()


class EngineMetrics:
    """None-safe wrapper over an injected :class:`MetricsRegistry`.

    Every method is a no-op when no registry is attached, so the engine
    runs identically (and cheaply) in bare databases and tests.
    """

    __slots__ = (
        "registry",
        "_cache_hit",
        "_cache_miss",
        "_incremental",
        "_full",
        "_share_hit",
        "_share_miss",
        "_tick_seconds",
    )

    def __init__(self, registry=None) -> None:
        self.registry = registry
        if registry is None:
            self._cache_hit = None
            self._cache_miss = None
            self._incremental = None
            self._full = None
            self._share_hit = None
            self._share_miss = None
            self._tick_seconds = None
        else:
            self._cache_hit = registry.counter("query.plan_cache_hit_total")
            self._cache_miss = registry.counter("query.plan_cache_miss_total")
            self._incremental = registry.counter("query.incremental_tick_total")
            self._full = registry.counter("query.full_tick_total")
            self._share_hit = registry.counter("query.share_hit_total")
            self._share_miss = registry.counter("query.share_miss_total")
            self._tick_seconds = registry.histogram("query.tick_seconds")

    @property
    def timer(self):
        """The registry's wall clock, or None when detached."""
        return None if self.registry is None else self.registry.clock

    def plan_cache_hit(self) -> None:
        if self._cache_hit is not None:
            self._cache_hit.inc()

    def plan_cache_miss(self) -> None:
        if self._cache_miss is not None:
            self._cache_miss.inc()

    def incremental_tick(self) -> None:
        if self._incremental is not None:
            self._incremental.inc()

    def full_tick(self) -> None:
        if self._full is not None:
            self._full.inc()

    def share_hit(self, n: int = 1) -> None:
        if self._share_hit is not None and n:
            self._share_hit.inc(n)

    def share_miss(self, n: int = 1) -> None:
        if self._share_miss is not None and n:
            self._share_miss.inc(n)

    def observe_tick(self, seconds: float) -> None:
        if self._tick_seconds is not None:
            self._tick_seconds.observe(seconds)
