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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.clock import Clock
from ..core.errors import HwdbError, QueryError
from .cql.ast_nodes import CreateTable, Explain, Insert, Select
from .cql.executor import ResultSet
from .cql.parser import parse
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
        interval: float,
        callback: SubscriptionCallback,
        deliver_empty: bool = False,
    ):
        self.id = Subscription._next_id
        Subscription._next_id += 1
        self.db = db
        self.select = select
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
        timer = (
            self.db._registry.clock if self.db._registry is not None else None
        )
        started = timer() if timer is not None else None
        try:
            result = self.db.execute_parsed(self.select)
        except HwdbError:
            logger.warning(
                "subscription %d query no longer executable; cancelling", self.id
            )
            self.cancel()
            return None
        if started is not None:
            self.db._m_sub_fire.observe(timer() - started)
        self.executions += 1
        if result.rows or self.deliver_empty:
            self.deliveries += 1
            try:
                self.callback(result)
            except Exception:  # noqa: BLE001 - subscriber faults stay local
                logger.exception("subscription %d callback failed", self.id)
                if self.db._registry is not None:
                    self.db._registry.counter("hwdb.subscriber_error_total").inc()
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
    #: registry overhead far below the 5% budget bench_t1 enforces while
    #: still filling the histogram thousands of times per busy second.
    INSERT_SAMPLE_MASK = 0xF

    def __init__(self, clock: Clock, default_capacity: int = 4096, registry=None):
        # Function-scoped: repro.query imports repro.hwdb.cql, and this
        # package's __init__ imports this module.
        from ..query.engine import QueryEngine

        self._clock = clock
        self.default_capacity = default_capacity
        self._tables: Dict[str, StreamTable] = {}
        self._subscriptions: Dict[int, Subscription] = {}
        self._scheduler = None  # set via attach_scheduler
        self._engine = QueryEngine()
        self._store = None  # set via set_store
        self.queries_executed = 0
        self.inserts = 0
        self.set_registry(registry)

    def set_registry(self, registry) -> None:
        """Attach (or detach) a metrics registry; None means no telemetry."""
        self._registry = registry
        if registry is None:
            self._m_inserts = None
            self._m_queries = None
            self._m_append = None
            self._m_query_lat = None
            self._m_subs_active = None
            self._m_sub_fire = None
        else:
            self._m_inserts = registry.counter("hwdb.insert_total")
            self._m_queries = registry.counter("hwdb.query_total")
            self._m_append = registry.histogram("hwdb.append_seconds")
            self._m_query_lat = registry.histogram("hwdb.query_seconds")
            self._m_subs_active = registry.gauge("hwdb.subscriptions_active")
            self._m_sub_fire = registry.histogram("hwdb.subscription_fire_seconds")
        self._engine.set_registry(registry)

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
        self.inserts += 1
        counter = self._m_inserts
        if counter is not None:
            # Inlined counter.inc(): this path runs per flow record, and
            # the attribute add is measurably cheaper than a method call.
            counter.value += 1
            if self.inserts & self.INSERT_SAMPLE_MASK == 0:
                timer = self._registry.clock
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
        """Parse and execute one statement (SELECT/INSERT/CREATE)."""
        statement = parse(text)
        return self.execute_parsed(statement)

    def execute_parsed(self, statement) -> ResultSet:
        self.queries_executed += 1
        if isinstance(statement, Select):
            if self._m_queries is not None:
                self._m_queries.inc()
                timer = self._registry.clock
                t0 = timer()
                result = self._execute_select(statement)
                self._m_query_lat.observe(timer() - t0)
                return result
            return self._execute_select(statement)
        if isinstance(statement, Explain):
            return self._engine.explain(statement, self._tables, self.now)
        if isinstance(statement, Insert):
            table = self.table(statement.table)
            if statement.columns is not None:
                if len(statement.columns) != len(statement.values):
                    raise QueryError("INSERT column/value count mismatch")
                record = dict(zip(statement.columns, statement.values))
                table.insert_dict(self.now, record)
            else:
                table.insert(self.now, statement.values)
            self.inserts += 1
            return ResultSet(["inserted"], [(1,)], executed_at=self.now)
        if isinstance(statement, CreateTable):
            self.create_table(statement.table, statement.columns, statement.buffer_rows)
            return ResultSet(["created"], [(statement.table,)], executed_at=self.now)
        raise QueryError(f"unsupported statement type {type(statement).__name__}")

    def _execute_select(self, statement: Select) -> ResultSet:
        return self._engine.execute_select(statement, self._tables, self.now)

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
        """Register a continuous query pushing results every ``interval`` s."""
        if interval <= 0:
            raise HwdbError(f"subscription interval must be positive: {interval}")
        statement = parse(text)
        if not isinstance(statement, Select):
            raise QueryError("only SELECT statements can be subscribed")
        subscription = Subscription(self, statement, interval, callback, deliver_empty)
        self._subscriptions[subscription.id] = subscription
        if self._m_subs_active is not None:
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
        if self._m_subs_active is not None:
            self._m_subs_active.set(float(len(self._subscriptions)))
        if subscription is not None:
            self._engine.detach_subscription(subscription.select)

    def stats(self) -> Dict[str, Any]:
        return {
            "tables": len(self._tables),
            "queries_executed": self.queries_executed,
            "inserts": self.inserts,
            "subscriptions": len(self._subscriptions),
            "rows_retained": sum(len(t) for t in self._tables.values()),
            "rows_overwritten": sum(t.overwritten for t in self._tables.values()),
        }

    def __repr__(self) -> str:
        return f"HomeworkDatabase(tables={self.tables()}, inserts={self.inserts})"
