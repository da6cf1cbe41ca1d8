"""The continuous-query engine: the one way hwdb runs a SELECT.

Each :class:`~repro.hwdb.database.HomeworkDatabase` builds its own
:class:`QueryEngine`, and every SELECT it executes (ad-hoc, RPC,
subscription, EXPLAIN) routes here.  The plan cache, keyed by the
query's *normalized* unparse text so formatting differences share an
entry, yields or compiles a cache entry in one of two modes:

* ``incremental`` — windowed-aggregate state maintained across ticks
  (:mod:`.incremental`);
* ``plan`` — full re-execution of the compiled operator DAG
  (:mod:`.plan`); every scan computes its own rows.

Only :class:`HwdbError` leaves :meth:`QueryEngine.execute_select`.
Compilation raises :class:`QueryError` for every fault the text and the
schema can show, so those errors never depend on the data.  A value an
expression cannot combine (``'a' + 1``) raises while the plan runs; the
engine drops that cache entry, whose incremental state may hold a
half-ingested batch, and reports a :class:`QueryError` as well.  A
subscription that hits either is cancelled instead of crashing the
scheduler.

Subscriptions pin their cache entries (``attach_subscription``) so LRU
eviction only ever discards ad-hoc queries; DDL invalidates everything.

In front of the plan cache sits the statement map (:meth:`QueryEngine.parse`):
raw SELECT or EXPLAIN text to its parsed statement and plan-cache key,
so a text hwdb has seen before is neither lexed, parsed nor unparsed
again.  It holds at most :data:`PLAN_CACHE_SIZE` texts, least recently
used out first, because clients build texts from parameters (the
control API's ``window``).  Cached statements are shared by every later
call with the same text, so nothing downstream may mutate an AST: the
optimizer clones, and plans, incremental states, EXPLAIN and
subscriptions only read.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..core.errors import QueryError
from ..core.metrics import MetricsRegistry
from ..hwdb.cql.ast_nodes import Explain, Select
from ..hwdb.cql.executor import ResultSet
from ..hwdb.cql.parser import Statement, parse
from ..hwdb.cql.unparse import unparse
from .explain import render_plan
from .incremental import IncrementalState, NotIncremental, build_incremental
from .plan import Plan, compile_select

#: Unpinned plan-cache entries beyond this are evicted, oldest first;
#: the statement map keeps at most this many texts.
PLAN_CACHE_SIZE = 256

MODE_INCREMENTAL = "incremental"
MODE_PLAN = "plan"


class _CacheEntry:
    __slots__ = ("plan", "state", "mode", "reason")

    def __init__(
        self,
        plan: Plan,
        state: Optional[IncrementalState],
        mode: str,
        reason: Optional[str],
    ):
        self.plan = plan
        self.state = state
        self.mode = mode
        self.reason = reason


class QueryEngine:
    """Compiles, caches and incrementally maintains SELECTs."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._m_cache_hits = registry.counter("query.plan_cache_hit_total")
        self._m_cache_misses = registry.counter("query.plan_cache_miss_total")
        self._m_incremental = registry.counter("query.incremental_tick_total")
        self._m_full = registry.counter("query.full_tick_total")
        self._cache: "OrderedDict[str, _CacheEntry]" = OrderedDict()
        self._pins: Dict[str, int] = {}
        self._statements: "OrderedDict[str, Tuple[Statement, str]]" = OrderedDict()

    # -- statement map -------------------------------------------------

    def parse(self, text: str) -> Tuple[Statement, Optional[str]]:
        """Parse ``text``; returns the statement and its plan-cache key.

        SELECT and EXPLAIN are parsed once per text and remembered; the
        key is ``None`` for the statements that are not (INSERT, CREATE),
        which parse on every call.  A text that fails to parse raises
        :class:`QueryError` and is not remembered.
        """
        cached = self._statements.get(text)
        if cached is not None:
            self._statements.move_to_end(text)
            return cached
        statement = parse(text)
        if isinstance(statement, Select):
            key = unparse(statement)
        elif isinstance(statement, Explain):
            key = unparse(statement.select)
        else:
            return statement, None
        self._statements[text] = (statement, key)
        if len(self._statements) > PLAN_CACHE_SIZE:
            self._statements.popitem(last=False)
        return statement, key

    # -- plan cache ----------------------------------------------------

    def _entry_for(self, select: Select, tables, text: str) -> _CacheEntry:
        entry = self._cache.get(text)
        if entry is not None:
            self._m_cache_hits.inc()
            self._cache.move_to_end(text)
            return entry
        self._m_cache_misses.inc()
        entry = self._compile(select, tables)
        self._cache[text] = entry
        self._evict_unpinned()
        return entry

    def _compile(self, select: Select, tables) -> _CacheEntry:
        plan = compile_select(select, tables)
        archived = sorted(
            {
                node.ref.table
                for _depth, node in plan.nodes
                if node.kind == "scan"
                and getattr(tables.get(node.ref.table), "spill", None) is not None
            }
        )
        if archived:
            # Incremental delta maintenance is keyed on ring eviction
            # (seqs <= overwritten are gone); a durable archive makes
            # those rows reachable again, so full re-execution it is.
            return _CacheEntry(
                plan,
                None,
                MODE_PLAN,
                f"durable archive on {', '.join(archived)}: incremental tier is ring-only",
            )
        try:
            state = build_incremental(plan)
        except NotIncremental as exc:
            return _CacheEntry(plan, None, MODE_PLAN, str(exc))
        return _CacheEntry(plan, state, MODE_INCREMENTAL, None)

    def _evict_unpinned(self) -> None:
        excess = len(self._cache) - PLAN_CACHE_SIZE
        if excess <= 0:
            return
        for text in list(self._cache):
            if excess <= 0:
                break
            if text in self._pins:
                continue
            del self._cache[text]
            excess -= 1

    def invalidate(self) -> None:
        """Schema changed: every compiled plan may be stale.  Pins are
        kept — the subscription still exists and recompiles on its next
        fire."""
        self._cache.clear()

    # -- subscription pinning ------------------------------------------

    def attach_subscription(self, select: Select) -> None:
        text = unparse(select)
        self._pins[text] = self._pins.get(text, 0) + 1

    def detach_subscription(self, select: Select) -> None:
        text = unparse(select)
        remaining = self._pins.get(text, 0) - 1
        if remaining > 0:
            self._pins[text] = remaining
        else:
            self._pins.pop(text, None)

    @property
    def pinned_count(self) -> int:
        return len(self._pins)

    # -- execution -----------------------------------------------------

    def execute_select(
        self, select: Select, tables, now: float, key: Optional[str] = None
    ) -> ResultSet:
        """Run ``select`` at ``now``; raises only :class:`HwdbError`.

        ``key`` is the plan-cache key :meth:`parse` returned with
        ``select``; without it the statement is unparsed to find it.
        """
        text = unparse(select) if key is None else key
        entry = self._entry_for(select, tables, text)
        try:
            if entry.state is not None:
                result = entry.state.tick(tables, now)
                self._m_incremental.inc()
            else:
                result = entry.plan.execute(tables, now, timer=self.registry.clock)
                self._m_full.inc()
        except (TypeError, ValueError, OverflowError) as exc:
            # A row the expression cannot evaluate.  Drop the entry so a
            # partly ingested incremental state is rebuilt next time.
            self._cache.pop(text, None)
            raise QueryError(f"cannot evaluate {text}: {exc}") from exc
        return result

    # -- EXPLAIN -------------------------------------------------------

    def explain(
        self, statement: Explain, tables, now: float, key: Optional[str] = None
    ) -> ResultSet:
        select = statement.select
        text = unparse(select) if key is None else key
        entry = self._entry_for(select, tables, text)
        if statement.analyze:
            self.execute_select(select, tables, now, text)
        lines = render_plan(
            text,
            entry.mode,
            entry.reason,
            entry.plan,
            entry.state,
            statement.analyze,
        )
        return ResultSet(["plan"], [(line,) for line in lines], executed_at=now)

    # -- introspection -------------------------------------------------

    def cache_info(self) -> List[Tuple[str, str]]:
        """(query text, mode) pairs, LRU order — for tests and debugging."""
        return [(text, entry.mode) for text, entry in self._cache.items()]
