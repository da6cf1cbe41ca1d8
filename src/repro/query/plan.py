"""Operator-DAG plans for CQL SELECT statements.

``compile_select`` turns a parsed :class:`Select` into a small tree of
operators (scan -> join -> filter -> aggregate/project -> distinct ->
sort -> limit) with the optimizer's rewrites baked in.  The operators
run on the shared row model (:class:`Binding`), grouping, ordering and
expression evaluation of :mod:`repro.hwdb.cql.executor`, so a plan's
answer is the reference executor's answer
(:mod:`repro.check.cql_reference`), row for row.  The one exception is
a projection of bare columns, which compilation binds to row positions
(:func:`bind_columns`) and which then runs without the evaluator.

Compilation is also where a query's errors come from.  Every column
reference must resolve against the schema, every function must be
known and every aggregate well-formed; anything else raises
:class:`QueryError` here, with the message the reference gives when it
meets the same fault.  What a query raises thus depends on its text
and the schema alone, never on whether rows happen to exist.  The only
errors left for run time are values an expression cannot combine
(``'a' + 1``), which the engine reports as :class:`QueryError` too.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import QueryError
from ..hwdb.cql.ast_nodes import (
    Binary,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    Literal,
    OrderItem,
    Projection,
    Select,
    TableRef,
    Unary,
    W_ALL,
    W_NOW,
    W_RANGE,
    W_ROWS,
    W_SINCE,
    Window,
)
from ..hwdb.cql.executor import (
    Binding,
    Evaluator,
    ResultSet,
    apply_window_ex,
    group_bindings,
    has_aggregate,
    order_rows,
    projection_name,
    star_projections,
    truthy,
)
from ..hwdb.cql.parser import AGGREGATE_FUNCTIONS, SCALAR_FUNCTIONS
from ..hwdb.cql.unparse import unparse_expr
from ..hwdb.table import StreamTable, TS_COLUMN
from .optimize import and_chain, needed_columns, rewrite_where
from .stats import OperatorStats

_WINDOW_KINDS = (W_ALL, W_NOW, W_RANGE, W_ROWS, W_SINCE)


class ExecContext:
    """Everything one plan execution needs, bundled for the operators."""

    __slots__ = ("tables", "now", "evaluator", "stats", "timer")

    def __init__(
        self,
        tables: Dict[str, StreamTable],
        now: float,
        stats: OperatorStats,
        timer: Optional[Callable[[], float]] = None,
    ):
        self.tables = tables
        self.now = now
        self.evaluator = Evaluator(now)
        self.stats = stats
        self.timer = timer


class PlanNode:
    """Base operator.  ``run`` produces output; ``execute`` adds stats.

    Recorded time is cumulative — it includes the node's children,
    since each node pulls its inputs by calling ``child.execute``.
    EXPLAIN ANALYZE presents it that way.
    """

    kind = "node"

    def __init__(self, children: Tuple["PlanNode", ...] = ()):
        self.children: List[PlanNode] = list(children)
        self.node_id = -1  # assigned by Plan

    def describe(self) -> str:
        return self.kind

    def run(self, ctx: ExecContext) -> List:
        raise NotImplementedError

    def execute(self, ctx: ExecContext) -> List:
        timer = ctx.timer
        if timer is None:
            out = self.run(ctx)
            ctx.stats.record(self.node_id, len(out), 0.0)
            return out
        started = timer()
        out = self.run(ctx)
        ctx.stats.record(self.node_id, len(out), timer() - started)
        return out


def _window_text(window: Window) -> str:
    if window.kind == W_ALL:
        return ""
    if window.kind == W_NOW:
        return " [NOW]"
    if window.kind == W_RANGE:
        return f" [RANGE {window.value!r} SECONDS]"
    if window.kind == W_ROWS:
        return f" [ROWS {int(window.value)}]"
    return f" [SINCE {window.value!r}]"


class ScanOp(PlanNode):
    """Windowed table scan with an optional pushed-down predicate."""

    kind = "scan"

    def __init__(
        self,
        ref: TableRef,
        predicate: Optional[Expr],
        needed: Tuple[str, ...],
    ):
        super().__init__()
        self.ref = ref
        self.predicate = predicate
        self.needed = needed
        self.last_archive = None  # ArchiveScanInfo from the latest run

    def describe(self) -> str:
        text = f"Scan {self.ref.table}{_window_text(self.ref.window)}"
        if self.ref.alias != self.ref.table:
            text += f" AS {self.ref.alias}"
        if self.predicate is not None:
            text += f" filter=({unparse_expr(self.predicate)})"
        if self.needed:
            text += f" columns=[{', '.join(self.needed)}]"
        info = self.last_archive
        if info is not None:
            text += (
                f" archive[segments={info.segments_scanned}/{info.segments_total}"
                f" pruned={info.segments_pruned} rows={info.rows}]"
            )
        return text

    def run(self, ctx: ExecContext) -> List[Binding]:
        table = ctx.tables.get(self.ref.table)
        if table is None:
            raise QueryError(f"no such table {self.ref.table!r}")
        rows, self.last_archive = apply_window_ex(table, self.ref, ctx.now)
        alias = self.ref.alias
        bindings = [Binding({alias: (table, row)}) for row in rows]
        if self.predicate is None:
            return bindings
        evaluator = ctx.evaluator
        return [
            binding
            for binding in bindings
            if truthy(evaluator.scalar(self.predicate, binding))
        ]


class JoinOp(PlanNode):
    """Cartesian product of the children, in source order — exactly the
    join the reference executor forms (its WHERE then filters; here the
    single-source conjuncts already ran at the scans)."""

    kind = "join"

    def describe(self) -> str:
        return f"Join sources={len(self.children)}"

    def run(self, ctx: ExecContext) -> List[Binding]:
        child_outputs = [child.execute(ctx) for child in self.children]
        out = []
        for combo in itertools.product(*child_outputs):
            merged: Dict[str, tuple] = {}
            for binding in combo:
                merged.update(binding.sources)
            out.append(Binding(merged))
        return out


class FilterOp(PlanNode):
    """Residual WHERE conjuncts (multi-source or alias-free)."""

    kind = "filter"

    def __init__(self, child: PlanNode, predicate: Expr):
        super().__init__((child,))
        self.predicate = predicate

    def describe(self) -> str:
        return f"Filter ({unparse_expr(self.predicate)})"

    def run(self, ctx: ExecContext) -> List[Binding]:
        evaluator = ctx.evaluator
        return [
            binding
            for binding in self.children[0].execute(ctx)
            if truthy(evaluator.scalar(self.predicate, binding))
        ]


class AggregateOp(PlanNode):
    """Group + HAVING + aggregate projection, via the executor's own
    grouping and aggregate evaluation."""

    kind = "aggregate"

    def __init__(
        self,
        child: PlanNode,
        group_by: List[Expr],
        projections: List[Projection],
        having: Optional[Expr],
    ):
        super().__init__((child,))
        self.group_by = group_by
        self.projections = projections
        self.having = having

    def describe(self) -> str:
        text = "Aggregate"
        if self.group_by:
            keys = ", ".join(unparse_expr(e) for e in self.group_by)
            text += f" group_by=[{keys}]"
        if self.having is not None:
            text += f" having=({unparse_expr(self.having)})"
        return text

    def run(self, ctx: ExecContext) -> List[Tuple]:
        evaluator = ctx.evaluator
        bindings = self.children[0].execute(ctx)
        out: List[Tuple] = []
        for group in group_bindings(bindings, self.group_by, evaluator):
            if self.having is not None and not truthy(
                evaluator.aggregate(self.having, group)
            ):
                continue
            out.append(
                tuple(evaluator.aggregate(p.expr, group) for p in self.projections)
            )
        return out


class ProjectOp(PlanNode):
    """Row-wise projection for non-aggregated queries.  HAVING, if
    present, is dropped at compile time: it only filters groups, and a
    non-aggregated query has none.

    When every projection is a bare column, compilation has already
    bound each one to a row position (:func:`bind_columns`): the node
    lays a binding's rows side by side, ``(timestamp, *values)`` per
    source, and one tuple getter picks the output row from that, with
    no evaluator and no name lookup."""

    kind = "project"

    def __init__(
        self,
        child: PlanNode,
        projections: List[Projection],
        bound: Optional["BoundColumns"] = None,
    ):
        super().__init__((child,))
        self.projections = projections
        self.bound = bound

    def describe(self) -> str:
        exprs = ", ".join(unparse_expr(p.expr) for p in self.projections)
        return f"Project [{exprs}]"

    def run(self, ctx: ExecContext) -> List[Tuple]:
        bindings = self.children[0].execute(ctx)
        if self.bound is None:
            evaluator = ctx.evaluator
            return [
                tuple(evaluator.scalar(p.expr, binding) for p in self.projections)
                for binding in bindings
            ]
        aliases, getter = self.bound
        out = []
        for binding in bindings:
            sources = binding.sources
            wide: Tuple = ()
            for alias in aliases:
                row = sources[alias][1]
                wide += (row.timestamp,) + row.values
            out.append(getter(wide))
        return out


class DistinctOp(PlanNode):
    kind = "distinct"

    def __init__(self, child: PlanNode):
        super().__init__((child,))

    def describe(self) -> str:
        return "Distinct"

    def run(self, ctx: ExecContext) -> List[Tuple]:
        seen = set()
        unique: List[Tuple] = []
        for row in self.children[0].execute(ctx):
            if row not in seen:
                seen.add(row)
                unique.append(row)
        return unique


class SortOp(PlanNode):
    kind = "sort"

    def __init__(
        self,
        child: PlanNode,
        order_by: List[OrderItem],
        projections: List[Projection],
        columns: List[str],
    ):
        super().__init__((child,))
        self.order_by = order_by
        self.projections = projections
        self.columns = columns

    def describe(self) -> str:
        keys = ", ".join(
            unparse_expr(i.expr) + (" DESC" if i.descending else "")
            for i in self.order_by
        )
        return f"Sort [{keys}]"

    def run(self, ctx: ExecContext) -> List[Tuple]:
        return order_rows(
            self.children[0].execute(ctx),
            self.order_by,
            self.projections,
            self.columns,
            ctx.evaluator,
        )


class LimitOp(PlanNode):
    kind = "limit"

    def __init__(self, child: PlanNode, limit: int):
        super().__init__((child,))
        self.limit = limit

    def describe(self) -> str:
        return f"Limit {self.limit}"

    def run(self, ctx: ExecContext) -> List[Tuple]:
        return self.children[0].execute(ctx)[: self.limit]


class Plan:
    """A compiled SELECT: the operator tree plus everything EXPLAIN and
    the engine need (effective projections, output columns, optimizer
    notes, accumulated per-operator stats)."""

    def __init__(
        self,
        select: Select,
        root: PlanNode,
        projections: List[Projection],
        columns: List[str],
        aggregated: bool,
        notes: List[str],
    ):
        self.select = select
        self.root = root
        self.projections = projections
        self.columns = columns
        self.aggregated = aggregated
        self.notes = notes
        self.stats = OperatorStats()
        self.nodes: List[Tuple[int, PlanNode]] = []  # (depth, node) preorder
        self._number(root, 0)

    def _number(self, node: PlanNode, depth: int) -> None:
        node.node_id = len(self.nodes)
        self.nodes.append((depth, node))
        for child in node.children:
            self._number(child, depth + 1)

    def execute(
        self,
        tables: Dict[str, StreamTable],
        now: float,
        timer: Optional[Callable[[], float]] = None,
    ) -> ResultSet:
        ctx = ExecContext(tables, now, self.stats, timer=timer)
        rows = self.root.execute(ctx)
        return ResultSet(self.columns, rows, executed_at=now)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

def make_resolver(aliases: Dict[str, StreamTable]) -> Callable[[ColumnRef], str]:
    """Static version of ``Binding.resolve``: maps a reference to its
    owning alias, or raises the :class:`QueryError` that resolving it
    against a row would."""

    def resolve(ref: ColumnRef) -> str:
        if ref.table is not None:
            table = aliases.get(ref.table)
            if table is None:
                raise QueryError(f"unknown table alias {ref.table!r}")
            if not table.has_column(ref.name):
                raise QueryError(f"table {table.name!r} has no column {ref.name!r}")
            return ref.table
        matches = [a for a, t in aliases.items() if t.has_column(ref.name)]
        if not matches:
            raise QueryError(f"unknown column {ref.name!r}")
        if len(matches) > 1 and ref.name != TS_COLUMN:
            raise QueryError(f"ambiguous column {ref.name!r}; qualify it")
        return matches[0]

    return resolve


def _check_expr(
    expr: Expr, resolve: Callable[[ColumnRef], str], allow_aggregate: bool
) -> None:
    """Raise now the name and shape errors that evaluating ``expr`` over
    some row would raise."""
    if isinstance(expr, Literal):
        return
    if isinstance(expr, ColumnRef):
        resolve(expr)
        return
    if isinstance(expr, Unary):
        _check_expr(expr.operand, resolve, allow_aggregate)
        return
    if isinstance(expr, Binary):
        _check_expr(expr.left, resolve, allow_aggregate)
        _check_expr(expr.right, resolve, allow_aggregate)
        return
    if isinstance(expr, InList):
        _check_expr(expr.needle, resolve, allow_aggregate)
        for item in expr.haystack:
            _check_expr(item, resolve, allow_aggregate)
        return
    if isinstance(expr, FunctionCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            if not allow_aggregate:
                raise QueryError(
                    f"aggregate {expr.name}() not allowed in row context"
                )
            if not expr.args and not (expr.star and expr.name == "count"):
                raise QueryError(f"{expr.name}() needs an argument")
            # Arguments are per-row: a nested aggregate is in row context.
            for arg in expr.args:
                _check_expr(arg, resolve, allow_aggregate=False)
            return
        for arg in expr.args:
            _check_expr(arg, resolve, allow_aggregate)
        if expr.name != "now" and expr.name not in SCALAR_FUNCTIONS:
            raise QueryError(f"unknown function {expr.name!r}")
        return
    raise QueryError(f"cannot evaluate expression {expr!r}")


#: Source aliases in row-layout order, and the getter that picks the
#: output tuple out of their laid-out rows (see :class:`ProjectOp`).
BoundColumns = Tuple[Tuple[str, ...], Callable[[Tuple], Tuple]]


def bind_columns(
    projections: List[Projection],
    aliases: Dict[str, StreamTable],
    resolve: Callable[[ColumnRef], str],
) -> Optional[BoundColumns]:
    """Bind each projection to its position in the laid-out row, when
    every projection is a bare column reference; ``None`` otherwise.

    ``resolve`` picks the alias exactly as ``Binding.resolve`` would
    (the first source, for an unqualified ``timestamp``), and sources
    are laid out in ``aliases`` order, which is the order of their
    rows in every binding.
    """
    offsets: Dict[str, int] = {}
    width = 0
    for alias, table in aliases.items():
        offsets[alias] = width
        width += 1 + len(table.columns)
    indices = []
    for projection in projections:
        ref = projection.expr
        if not isinstance(ref, ColumnRef):
            return None
        alias = resolve(ref)
        index = offsets[alias]
        if ref.name != TS_COLUMN:
            index += 1 + aliases[alias].column_position(ref.name)
        indices.append(index)
    if len(indices) == 1:
        only = indices[0]
        return tuple(aliases), lambda wide: (wide[only],)
    return tuple(aliases), operator.itemgetter(*indices)


def _check_order_by(order_by: List[OrderItem], columns: List[str]) -> None:
    for item in order_by:
        expr = item.expr
        if (
            isinstance(expr, ColumnRef)
            and expr.table is None
            and expr.name in columns
        ):
            continue
        if (
            isinstance(expr, Literal)
            and isinstance(expr.value, int)
            and not isinstance(expr.value, bool)
        ):
            if not 1 <= expr.value <= len(columns):
                raise QueryError(f"ORDER BY position {expr.value} out of range")
            continue
        raise QueryError("ORDER BY must reference an output column or position")


def compile_select(select: Select, tables: Dict[str, StreamTable]) -> Plan:
    """Compile ``select`` against the current schema.

    Raises :class:`QueryError` for every fault the query's text and the
    schema can show: unknown tables, columns, aliases and functions,
    ambiguous columns, misplaced or malformed aggregates, bad ORDER BY
    terms and duplicate aliases.
    """
    aliases: Dict[str, StreamTable] = {}
    for ref in select.sources:
        table = tables.get(ref.table)
        if table is None:
            raise QueryError(f"no such table {ref.table!r}")
        if ref.alias in aliases:
            raise QueryError(f"duplicate table alias {ref.alias!r}")
        if ref.window.kind not in _WINDOW_KINDS:
            raise QueryError(f"unsupported window kind {ref.window.kind!r}")
        aliases[ref.alias] = table

    if select.star:
        projections = star_projections(
            [(alias, table, None) for alias, table in aliases.items()],
            len(aliases) > 1,
        )
    else:
        projections = select.projections
    aggregated = bool(select.group_by) or any(
        has_aggregate(p.expr) for p in projections
    )
    columns = [projection_name(p, i) for i, p in enumerate(projections)]

    resolve = make_resolver(aliases)
    if select.where is not None:
        _check_expr(select.where, resolve, allow_aggregate=False)
    for expr in select.group_by:
        _check_expr(expr, resolve, allow_aggregate=False)
    for projection in projections:
        _check_expr(projection.expr, resolve, allow_aggregate=aggregated)
    if select.having is not None and aggregated:
        _check_expr(select.having, resolve, allow_aggregate=True)
    _check_order_by(select.order_by, columns)

    rewrite = rewrite_where(select.where, select.sources, resolve)
    pruning_exprs: List[Expr] = [p.expr for p in projections]
    if select.where is not None:
        pruning_exprs.append(select.where)
    pruning_exprs.extend(select.group_by)
    if select.having is not None and aggregated:
        pruning_exprs.append(select.having)
    needed = needed_columns(pruning_exprs, list(aliases), resolve)

    scans: List[PlanNode] = []
    for ref in select.sources:
        predicate = and_chain(rewrite.scan_predicates.get(ref.alias, []))
        scan_ref = TableRef(ref.table, rewrite.windows[ref.alias], ref.alias)
        scans.append(ScanOp(scan_ref, predicate, needed.get(ref.alias, ())))
    node: PlanNode = scans[0] if len(scans) == 1 else JoinOp(tuple(scans))
    residual = and_chain(rewrite.residual)
    if residual is not None:
        node = FilterOp(node, residual)
    if aggregated:
        node = AggregateOp(node, select.group_by, projections, select.having)
    else:
        node = ProjectOp(node, projections, bind_columns(projections, aliases, resolve))
    if select.distinct:
        node = DistinctOp(node)
    if select.order_by:
        node = SortOp(node, select.order_by, projections, columns)
    if select.limit is not None:
        node = LimitOp(node, select.limit)
    return Plan(select, node, projections, columns, aggregated, rewrite.notes)
