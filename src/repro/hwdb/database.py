"""The Homework Database (hwdb).

"An active ephemeral stream database which stores ephemeral events into a
fixed size memory buffer.  It links events into tables and supports
queries via a CQL variant able to express temporal and relational
operations on data.  The database supports a simple UDP-based RPC
interface enabling applications to subscribe to query results,
persisting output as desired."

This module is the database core: table management, inserts, one-shot
queries and continuous subscriptions.  SELECTs run on the database's
own :class:`~repro.query.engine.QueryEngine`.  The RPC front-end lives
in :mod:`repro.hwdb.rpc`, persistence in :mod:`repro.hwdb.persist`.
"""

from __future__ import annotations

import logging
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.clock import Clock
from ..core.errors import HwdbError, QueryError
from ..core.metrics import MetricsRegistry
from .cql.ast_nodes import CreateTable, Explain, Insert, Select
from .cql.executor import ResultSet
from .table import Column, StreamTable
from .types import type_by_name

logger = logging.getLogger(__name__)

SubscriptionCallback = Callable[[ResultSet], None]


class Subscription:
    """A continuous query: re-executed every ``interval`` seconds.

    This is hwdb's *active* behaviour — results are pushed to the
    subscriber rather than polled, which is how the paper's interfaces
    stay "dynamically updated from the active database".
    """

    _next_id = 1

    def __init__(
        self,
        db: "HomeworkDatabase",
        select: Select,
        key: str,
        interval: float,
        callback: SubscriptionCallback,
        deliver_empty: bool = False,
    ):
        self.id = Subscription._next_id
        Subscription._next_id += 1
        self.db = db
        self.select = select
        self.key = key  # the query engine's plan-cache key for ``select``
        self.interval = interval
        self.callback = callback
        self.deliver_empty = deliver_empty
        self.active = True
        self.deliveries = 0
        self.executions = 0
        self._timer = None

    def fire(self) -> Optional[ResultSet]:
        """Execute once and deliver (subject to ``deliver_empty``).

        A query that can no longer execute (its table was dropped, or a
        row arrived that its expressions cannot evaluate) cancels the
        subscription rather than crashing the scheduler.
        """
        if not self.active:
            return None
        timer = self.db.registry.clock
        started = timer()
        try:
            result = self.db.execute_parsed(self.select, self.key)
        except HwdbError:
            logger.warning(
                "subscription %d query no longer executable; cancelling", self.id
            )
            self.cancel()
            return None
        self.db._m_sub_fire.observe(timer() - started)
        self.executions += 1
        if result.rows or self.deliver_empty:
            self.deliveries += 1
            try:
                self.callback(result)
            except Exception:  # noqa: BLE001 - subscriber faults stay local
                logger.exception("subscription %d callback failed", self.id)
                self.db.registry.counter("hwdb.subscriber_error_total").inc()
        return result

    def cancel(self) -> None:
        self.active = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.db._drop_subscription(self.id)


class HomeworkDatabase:
    """hwdb: typed ring-buffer tables + CQL queries + subscriptions."""

    #: Latency sampling on the append path: time 1 insert in 16.  Keeps
    #: the two clock reads off most inserts while still filling the
    #: histogram thousands of times per busy second.
    INSERT_SAMPLE_MASK = 0xF

    def __init__(
        self,
        clock: Clock,
        default_capacity: int = 4096,
        registry: Optional[MetricsRegistry] = None,
    ):
        # Function-scoped: repro.query imports repro.hwdb.cql, and this
        # package's __init__ imports this module.
        from ..query.engine import QueryEngine

        self._clock = clock
        self.default_capacity = default_capacity
        self._tables: Dict[str, StreamTable] = {}
        self._subscriptions: Dict[int, Subscription] = {}
        self._scheduler = None  # set via attach_scheduler
        self._store = None  # set via set_store
        self.registry = registry if registry is not None else MetricsRegistry()
        # Rows inserted (API and CQL INSERT) and statements executed.
        self._m_inserts = self.registry.counter("hwdb.insert_total")
        self._m_queries = self.registry.counter("hwdb.query_total")
        self._m_append = self.registry.histogram("hwdb.append_seconds")
        self._m_query_lat = self.registry.histogram("hwdb.query_seconds")
        self._m_subs_active = self.registry.gauge("hwdb.subscriptions_active")
        self._m_sub_fire = self.registry.histogram("hwdb.subscription_fire_seconds")
        self._engine = QueryEngine(self.registry)

    # Read-only view of a registry counter that benchmarks/e2e/bench.py
    # reads by attribute name.
    @property
    def inserts(self) -> int:
        return self._m_inserts.value

    def set_store(self, store) -> None:
        """Attach a durable storage tier (duck-typed: hwdb never imports
        :mod:`repro.store`, which sits a layer above).

        The store is notified of table creation/drops so every ring
        gets its ``spill``/``archive`` hooks.  Attaching invalidates the
        query engine's plan cache — compiled plans capture whether a
        table's history extends past the ring.
        """
        self._store = store
        self._engine.invalidate()

    @property
    def now(self) -> float:
        return self._clock.now()

    def attach_scheduler(self, scheduler) -> None:
        """Give the database a timer source (the simulator).

        Needed only for periodic subscriptions; one-shot queries and
        manually fired subscriptions work without it.
        """
        self._scheduler = scheduler

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Tuple[str, str]],
        capacity: Optional[int] = None,
    ) -> StreamTable:
        """Create a ring-buffer table from (name, typename) pairs."""
        key = name.lower()
        if key in self._tables:
            raise HwdbError(f"table {name!r} already exists")
        cols = [Column(cname, type_by_name(tname)) for cname, tname in columns]
        table = StreamTable(key, cols, capacity or self.default_capacity)
        self._tables[key] = table
        if self._store is not None:
            self._store.on_create_table(table)
        self._engine.invalidate()
        return table

    def drop_table(self, name: str) -> None:
        if name.lower() not in self._tables:
            raise HwdbError(f"no such table {name!r}")
        del self._tables[name.lower()]
        if self._store is not None:
            self._store.on_drop_table(name.lower())
        self._engine.invalidate()

    def table(self, name: str) -> StreamTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise HwdbError(f"no such table {name!r}") from None

    def tables(self) -> List[str]:
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(self, table_name: str, record: Union[Dict[str, Any], Sequence[Any]]) -> None:
        """Insert one event, timestamped with the database clock."""
        table = self.table(table_name)
        counter = self._m_inserts
        # Inlined counter.inc(): this path runs per flow record, and the
        # attribute add is measurably cheaper than a method call.
        counter.value += 1
        if counter.value & self.INSERT_SAMPLE_MASK == 0:
            timer = self.registry.clock
            t0 = timer()
            if isinstance(record, dict):
                table.insert_dict(self.now, record)
            else:
                table.insert(self.now, list(record))
            self._m_append.observe(timer() - t0)
            return
        if isinstance(record, dict):
            table.insert_dict(self.now, record)
        else:
            table.insert(self.now, list(record))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, text: str) -> ResultSet:
        """Parse and execute one statement (SELECT/EXPLAIN/INSERT/CREATE).

        The engine parses a SELECT or EXPLAIN text only the first time
        it sees it (:meth:`~repro.query.engine.QueryEngine.parse`).
        """
        statement, key = self._engine.parse(text)
        return self.execute_parsed(statement, key)

    def execute_parsed(self, statement, key: Optional[str] = None) -> ResultSet:
        """Execute a parsed statement; ``key`` is the plan-cache key the
        engine's statement map returned with it, if the caller has it."""
        self._m_queries.inc()
        if isinstance(statement, Select):
            timer = self.registry.clock
            t0 = timer()
            result = self._engine.execute_select(
                statement, self._tables, self.now, key
            )
            self._m_query_lat.observe(timer() - t0)
            return result
        if isinstance(statement, Explain):
            return self._engine.explain(statement, self._tables, self.now, key)
        if isinstance(statement, Insert):
            table = self.table(statement.table)
            if statement.columns is not None:
                if len(statement.columns) != len(statement.values):
                    raise QueryError("INSERT column/value count mismatch")
                record = dict(zip(statement.columns, statement.values))
                table.insert_dict(self.now, record)
            else:
                table.insert(self.now, statement.values)
            self._m_inserts.inc()
            return ResultSet(["inserted"], [(1,)], executed_at=self.now)
        if isinstance(statement, CreateTable):
            self.create_table(statement.table, statement.columns, statement.buffer_rows)
            return ResultSet(["created"], [(statement.table,)], executed_at=self.now)
        raise QueryError(f"unsupported statement type {type(statement).__name__}")

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------

    def subscribe(
        self,
        text: str,
        interval: float,
        callback: SubscriptionCallback,
        deliver_empty: bool = False,
        start: bool = True,
    ) -> Subscription:
        """Register a continuous query pushing results every ``interval`` s.

        The interval must be finite and large enough to move the clock
        on from now: a NaN, or one too small to add to the clock, would
        fire forever at the same instant.
        """
        now = self.now
        if not (math.isfinite(interval) and now + interval > now):
            raise HwdbError(
                f"subscription interval must be finite and advance the clock: "
                f"{interval!r}"
            )
        statement, key = self._engine.parse(text)
        if not isinstance(statement, Select):
            raise QueryError("only SELECT statements can be subscribed")
        subscription = Subscription(
            self, statement, key, interval, callback, deliver_empty
        )
        self._subscriptions[subscription.id] = subscription
        self._m_subs_active.set(float(len(self._subscriptions)))
        # Pin the compiled plan: subscriptions outlive ad-hoc cache
        # churn and carry the incremental state between fires.
        self._engine.attach_subscription(statement)
        if start:
            if self._scheduler is None:
                raise HwdbError(
                    "no scheduler attached; call attach_scheduler() or "
                    "use start=False and fire() manually"
                )
            subscription._timer = self._scheduler.schedule_periodic(
                interval, subscription.fire
            )
        return subscription

    def subscription(self, sub_id: int) -> Subscription:
        try:
            return self._subscriptions[sub_id]
        except KeyError:
            raise HwdbError(f"no subscription {sub_id}") from None

    def subscriptions(self) -> List[Subscription]:
        return list(self._subscriptions.values())

    def _drop_subscription(self, sub_id: int) -> None:
        subscription = self._subscriptions.pop(sub_id, None)
        self._m_subs_active.set(float(len(self._subscriptions)))
        if subscription is not None:
            self._engine.detach_subscription(subscription.select)

    def stats(self) -> Dict[str, Any]:
        return {
            "tables": len(self._tables),
            "queries_executed": self._m_queries.value,
            "inserts": self._m_inserts.value,
            "subscriptions": len(self._subscriptions),
            "rows_retained": sum(len(t) for t in self._tables.values()),
            "rows_overwritten": sum(t.overwritten for t in self._tables.values()),
        }

    def __repr__(self) -> str:
        return f"HomeworkDatabase(tables={self.tables()}, inserts={self.inserts})"
