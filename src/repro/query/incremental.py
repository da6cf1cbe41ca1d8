"""Incremental maintenance of windowed aggregate subscriptions.

A subscription re-runs its SELECT every interval.  For the common
Figure-1 shape — one table, a trailing window, GROUP BY + aggregates —
re-scanning the whole window each tick does O(window) work to account
for O(new rows) change.  This module keeps the windowed per-group state
*between* ticks instead: each tick ingests only the rows appended since
the last tick (delta scan on the table's append sequence number) and
evicts rows that fell out of the window, then recomputes the aggregates
from the retained per-row values.

Bit-identity with full re-execution of the plan is non-negotiable (the
differential fuzzer and the frozen corpus diff row-for-row, types
included), which drives two design rules:

* **No running accumulators.**  A running ``sum += x`` then ``-= x``
  does not reproduce floating point exactly.  Instead each window entry
  stores the *ingest-time argument values* for every aggregate slot,
  and emit recomputes ``sum()/avg()/stddev()...`` with the evaluator's
  own :func:`aggregate_values` over the values in window (sequence)
  order — the same list, in the same order, through the same arithmetic.
* **Evict exactly what a rescan would not see.**  Rows leave the state
  when the ring overwrote them (``seq <= table.overwritten``) or their
  timestamp left the window.  Both are checked on deque fronts only —
  sequence numbers and (clamped-monotone) timestamps are nondecreasing,
  so evictees are always a prefix.

Anything this module cannot maintain exactly — extra sources, ROWS/NOW
windows, DISTINCT, ``now()`` anywhere ingest-time state would capture
it — raises :class:`NotIncremental` at build time, and the engine runs
the compiled plan every tick instead.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..core.errors import QueryError
from ..hwdb.cql.ast_nodes import (
    Binary,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    Literal,
    Projection,
    Unary,
    W_ALL,
    W_RANGE,
    W_SINCE,
)
from ..hwdb.cql.executor import (
    Binding,
    Evaluator,
    ResultSet,
    aggregate_values,
    order_rows,
    truthy,
)
from ..hwdb.cql.parser import AGGREGATE_FUNCTIONS
from ..hwdb.cql.unparse import unparse_expr
from .plan import AggregateOp, DistinctOp, FilterOp, Plan, ScanOp


class NotIncremental(Exception):
    """This plan must be fully re-executed each tick.  Not an error —
    a routing decision."""


def _contains_now(expr: Expr) -> bool:
    if isinstance(expr, FunctionCall):
        if expr.name == "now":
            return True
        return any(_contains_now(a) for a in expr.args)
    if isinstance(expr, Unary):
        return _contains_now(expr.operand)
    if isinstance(expr, Binary):
        return _contains_now(expr.left) or _contains_now(expr.right)
    if isinstance(expr, InList):
        return _contains_now(expr.needle) or any(
            _contains_now(item) for item in expr.haystack
        )
    return False


# ----------------------------------------------------------------------
# Emit-time expression skeletons
# ----------------------------------------------------------------------

class _SlotRef(Expr):
    """Stand-in for an aggregate call: resolves to the slot's recomputed
    value at emit time."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return f"_SlotRef({self.index})"


class _RepRef(Expr):
    """Stand-in for a bare column in aggregate context: resolves to the
    group's first (front) row's value — what ``group[0].resolve`` gives
    a full re-execution."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return f"_RepRef({self.index})"


class _EmitEvaluator(Evaluator):
    """The executor's evaluator, with slot/rep markers short-circuited.

    Everything else — scalar functions, arithmetic, ``now()``, HAVING
    truthiness — goes through the inherited implementation, so emit
    arithmetic is the plan's arithmetic.
    """

    def __init__(self, now: float):
        super().__init__(now)
        self.slot_values: Tuple = ()
        self.rep_values: Tuple = ()

    def bind(self, slot_values: Tuple, rep_values: Tuple) -> None:
        self.slot_values = slot_values
        self.rep_values = rep_values

    def aggregate(self, expr: Expr, group) -> object:
        if isinstance(expr, _SlotRef):
            return self.slot_values[expr.index]
        if isinstance(expr, _RepRef):
            return self.rep_values[expr.index]
        return super().aggregate(expr, group)


class _SkeletonBuilder:
    """Rewrites aggregate-context expressions into emit skeletons,
    collecting deduplicated aggregate slots and representative columns."""

    def __init__(self) -> None:
        self.agg_slots: List[Tuple[str, bool, Optional[Expr]]] = []
        self._agg_keys: Dict[Tuple[str, bool, Optional[str]], int] = {}
        self.rep_slots: List[ColumnRef] = []
        self._rep_keys: Dict[str, int] = {}

    def _slot(self, call: FunctionCall) -> _SlotRef:
        arg = call.args[0] if call.args else None
        key = (call.name, call.star, unparse_expr(arg) if arg is not None else None)
        index = self._agg_keys.get(key)
        if index is None:
            index = len(self.agg_slots)
            self._agg_keys[key] = index
            self.agg_slots.append((call.name, call.star, arg))
        return _SlotRef(index)

    def _rep(self, ref: ColumnRef) -> _RepRef:
        key = unparse_expr(ref)
        index = self._rep_keys.get(key)
        if index is None:
            index = len(self.rep_slots)
            self._rep_keys[key] = index
            self.rep_slots.append(ref)
        return _RepRef(index)

    def transform(self, expr: Expr) -> Expr:
        if isinstance(expr, Literal):
            return expr
        if isinstance(expr, ColumnRef):
            return self._rep(expr)
        if isinstance(expr, Unary):
            return Unary(expr.op, self.transform(expr.operand))
        if isinstance(expr, Binary):
            return Binary(expr.op, self.transform(expr.left), self.transform(expr.right))
        if isinstance(expr, InList):
            return InList(
                self.transform(expr.needle),
                [self.transform(item) for item in expr.haystack],
                expr.negated,
            )
        if isinstance(expr, FunctionCall):
            if expr.name in AGGREGATE_FUNCTIONS:
                if expr.args and _contains_now(expr.args[0]):
                    raise NotIncremental(
                        f"now() inside {expr.name}() argument"
                    )
                return self._slot(expr)
            # Scalar call: now() and friends re-evaluate at emit time.
            return FunctionCall(
                expr.name, [self.transform(a) for a in expr.args], star=expr.star
            )
        raise NotIncremental(f"cannot build emit skeleton for {expr!r}")


# ----------------------------------------------------------------------
# The per-subscription state machine
# ----------------------------------------------------------------------

class IncrementalState:
    """Materialised per-group window state for one subscription."""

    def __init__(
        self,
        plan: Plan,
        alias: str,
        table_name: str,
        window_kind: str,
        window_value: float,
        predicates: List[Expr],
        group_by: List[Expr],
        proj_skeletons: List[Expr],
        having_skeleton: Optional[Expr],
        agg_slots: List[Tuple[str, bool, Optional[Expr]]],
        rep_slots: List[ColumnRef],
    ):
        self.plan = plan
        self.alias = alias
        self.table_name = table_name
        self.window_kind = window_kind
        self.window_value = window_value
        self.predicates = predicates
        self.group_by = group_by
        self.proj_skeletons = proj_skeletons
        self.having_skeleton = having_skeleton
        self.agg_slots = agg_slots
        self.rep_slots = rep_slots
        # Ingest-time evaluation never touches now() (build_incremental
        # rejects it), so one fixed-clock evaluator serves every tick.
        self._ingest_ev = Evaluator(0.0)
        # Runtime state.
        self._table = None
        self._watermark = 0
        self._last_now = float("-inf")
        self._groups: "Dict[Tuple, deque]" = {}
        # Counters surfaced by EXPLAIN ANALYZE.
        self.ticks = 0
        self.rows_ingested = 0
        self.rows_evicted = 0
        self.resets = 0

    # -- bookkeeping ---------------------------------------------------

    @property
    def watermark(self) -> int:
        return self._watermark

    def entry_count(self) -> int:
        return sum(len(entries) for entries in self._groups.values())

    def group_count(self) -> int:
        return len(self._groups)

    def _reset(self, table) -> None:
        self._table = table
        self._watermark = table.overwritten
        self._groups.clear()
        self.resets += 1

    # -- the tick ------------------------------------------------------

    def tick(self, tables, now: float) -> ResultSet:
        table = tables.get(self.table_name)
        if table is None:
            raise QueryError(f"no such table {self.table_name!r}")
        if (
            table is not self._table
            or now < self._last_now
            or table.total_inserted < self._watermark
        ):
            # New table object, time went backwards, or the ring was
            # cleared/recreated under us: rebuild from what's retained.
            self._reset(table)
        self._last_now = now

        self._ingest(table)
        self._evict(table, now)
        return self._emit(now)

    def _ingest(self, table) -> None:
        evaluator = self._ingest_ev
        alias = self.alias
        predicates = self.predicates
        group_by = self.group_by
        agg_slots = self.agg_slots
        rep_slots = self.rep_slots
        for seq, row in table.rows_with_seq_since(self._watermark):
            binding = Binding({alias: (table, row)})
            keep = True
            for predicate in predicates:
                if not truthy(evaluator.scalar(predicate, binding)):
                    keep = False
                    break
            if not keep:
                continue
            key = tuple(evaluator.scalar(expr, binding) for expr in group_by)
            agg_values = tuple(
                None if arg is None else evaluator.scalar(arg, binding)
                for _name, _star, arg in agg_slots
            )
            rep_values = tuple(binding.resolve(ref) for ref in rep_slots)
            entries = self._groups.get(key)
            if entries is None:
                entries = deque()
                self._groups[key] = entries
            entries.append((seq, row.timestamp, agg_values, rep_values))
            self.rows_ingested += 1
        self._watermark = table.total_inserted

    def _evict(self, table, now: float) -> None:
        min_seq = table.overwritten
        if self.window_kind == W_SINCE:
            lower = self.window_value
        elif self.window_kind == W_RANGE:
            lower = now - self.window_value
        else:  # W_ALL: only ring overwrites evict.
            lower = float("-inf")
        emptied = []
        for key, entries in self._groups.items():
            while entries and (entries[0][0] <= min_seq or entries[0][1] < lower):
                entries.popleft()
                self.rows_evicted += 1
            if not entries:
                emptied.append(key)
        if self.group_by:
            for key in emptied:
                del self._groups[key]
        # Without GROUP BY the single global group legitimately goes
        # empty: a full re-execution still evaluates it (sum -> 0,
        # count(*) -> 0, avg -> None...), so it must survive here too.

    def _emit(self, now: float) -> ResultSet:
        self.ticks += 1
        if self.group_by:
            # Plan group order is first occurrence in the current
            # window, i.e. ascending front sequence number.  Emptied
            # groups were deleted in _evict, so fronts always exist.
            groups = sorted(
                self._groups.values(), key=lambda entries: entries[0][0]
            )
        else:
            # The single global group survives empty — a full
            # re-execution still evaluates it (count(*) -> 0, sum -> 0...).
            groups = list(self._groups.values()) or [deque()]
        evaluator = _EmitEvaluator(now)
        out_rows: List[Tuple] = []
        for entries in groups:
            # The planner only admits a star argument on count().
            slot_values = tuple(
                len(entries)
                if star
                else aggregate_values(name, [entry[2][i] for entry in entries])
                for i, (name, star, _arg) in enumerate(self.agg_slots)
            )
            if entries:
                rep_values = entries[0][3]
            else:
                rep_values = tuple(None for _ in self.rep_slots)
            evaluator.bind(slot_values, rep_values)
            if self.having_skeleton is not None and not truthy(
                evaluator.aggregate(self.having_skeleton, ())
            ):
                continue
            out_rows.append(
                tuple(
                    evaluator.aggregate(skeleton, ())
                    for skeleton in self.proj_skeletons
                )
            )
        plan = self.plan
        if plan.select.order_by:
            out_rows = order_rows(
                out_rows,
                plan.select.order_by,
                plan.projections,
                plan.columns,
                evaluator,
            )
        if plan.select.limit is not None:
            out_rows = out_rows[: plan.select.limit]
        return ResultSet(plan.columns, out_rows, executed_at=now)


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------

def build_incremental(plan: Plan) -> IncrementalState:
    """Derive incremental state from a compiled plan, or raise
    :class:`NotIncremental`.

    Works off the *optimized* plan so the incremental window is the
    tightened one and pushed predicates are already isolated.
    """
    select = plan.select
    if len(select.sources) != 1:
        raise NotIncremental("joins re-execute fully")
    if select.distinct:
        raise NotIncremental("DISTINCT re-executes fully")
    if not plan.aggregated:
        raise NotIncremental("non-aggregated queries re-execute fully")

    scan: Optional[ScanOp] = None
    predicates: List[Expr] = []
    aggregate: Optional[AggregateOp] = None
    for _depth, node in plan.nodes:
        if isinstance(node, ScanOp):
            scan = node
        elif isinstance(node, FilterOp):
            predicates.append(node.predicate)
        elif isinstance(node, AggregateOp):
            aggregate = node
        elif isinstance(node, DistinctOp):  # pragma: no cover — guarded above
            raise NotIncremental("DISTINCT re-executes fully")
    if scan is None or aggregate is None:
        raise NotIncremental("plan shape is not scan->aggregate")
    if scan.predicate is not None:
        predicates.insert(0, scan.predicate)

    window = scan.ref.window
    if window.kind not in (W_ALL, W_SINCE, W_RANGE):
        raise NotIncremental(f"window kind {window.kind!r} re-executes fully")

    for predicate in predicates:
        if _contains_now(predicate):
            raise NotIncremental("now() in WHERE captures ingest time")
    for expr in select.group_by:
        if _contains_now(expr):
            raise NotIncremental("now() in GROUP BY captures ingest time")

    builder = _SkeletonBuilder()
    proj_skeletons = [builder.transform(p.expr) for p in plan.projections]
    having_skeleton = (
        builder.transform(select.having) if select.having is not None else None
    )

    return IncrementalState(
        plan=plan,
        alias=scan.ref.alias,
        table_name=scan.ref.table,
        window_kind=window.kind,
        window_value=window.value,
        predicates=predicates,
        group_by=select.group_by,
        proj_skeletons=proj_skeletons,
        having_skeleton=having_skeleton,
        agg_slots=builder.agg_slots,
        rep_slots=builder.rep_slots,
    )
