"""Row model and expression evaluator for the CQL variant.

The pieces every SELECT runs on, whichever way it is executed: the
:class:`ResultSet` it returns, the joined-row :class:`Binding`, per-stream
windows (the *temporal* operators, :func:`apply_window_ex`), the
:class:`Evaluator` for scalar and aggregate expressions, grouping and
ORDER BY.  :mod:`repro.query` compiles SELECTs into operator plans over
these; the reference executor the differential fuzzer compares against
(:mod:`repro.check.cql_reference`) uses the very same functions.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...core.errors import QueryError
from ..table import Row, StreamTable, TS_COLUMN
from .ast_nodes import (
    Binary,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    Literal,
    OrderItem,
    Projection,
    TableRef,
    Unary,
    W_ALL,
    W_NOW,
    W_RANGE,
    W_ROWS,
    W_SINCE,
)
from .parser import AGGREGATE_FUNCTIONS


class ResultSet:
    """Query output: column names plus rows of values."""

    __slots__ = ("columns", "rows", "executed_at")

    def __init__(self, columns: List[str], rows: List[Tuple], executed_at: float = 0.0):
        self.columns = columns
        self.rows = rows
        self.executed_at = executed_at

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> List[Any]:
        try:
            index = self.columns.index(name)
        except ValueError:
            raise QueryError(f"result has no column {name!r}") from None
        return [row[index] for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise QueryError(
                f"scalar() needs a 1x1 result, have "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def __repr__(self) -> str:
        return f"ResultSet(columns={self.columns}, rows={len(self.rows)})"


class Binding:
    """One joined row: alias → (table, row) with column resolution."""

    __slots__ = ("sources",)

    def __init__(self, sources: Dict[str, Tuple[StreamTable, Row]]):
        self.sources = sources

    def resolve(self, ref: ColumnRef) -> Any:
        if ref.table is not None:
            try:
                table, row = self.sources[ref.table]
            except KeyError:
                raise QueryError(f"unknown table alias {ref.table!r}") from None
            return _column_value(table, row, ref.name)
        matches = [
            (table, row)
            for table, row in self.sources.values()
            if table.has_column(ref.name)
        ]
        if not matches:
            raise QueryError(f"unknown column {ref.name!r}")
        if len(matches) > 1 and ref.name != TS_COLUMN:
            raise QueryError(f"ambiguous column {ref.name!r}; qualify it")
        table, row = matches[0]
        return _column_value(table, row, ref.name)


def _column_value(table: StreamTable, row: Row, name: str) -> Any:
    if name == TS_COLUMN:
        return row.timestamp
    return row.values[table.column_position(name)]


def apply_window_ex(table: StreamTable, ref: TableRef, now: float):
    """:func:`apply_window` plus the archive-scan audit, as a pair.

    When the table carries a durable tier (the duck-typed
    ``table.archive`` attribute set by ``repro.store``) and the window
    reaches past what the ring retains, the scan transparently extends
    over archived rows: archive rows come first (their seqs all precede
    the ring's), so the concatenation stays in timestamp order and has
    no duplicates.  The second element reports what the archive scan
    touched (segments pruned/opened) — ``None`` for ring-only windows
    ([NOW], [ROWS n]) or when the ring already covers the window.
    """
    window = ref.window
    if window.kind == W_NOW:
        newest = table.newest()
        return ([newest] if newest is not None else []), None
    if window.kind == W_ROWS:
        return table.last_rows(int(window.value)), None
    archive = getattr(table, "archive", None)
    if window.kind == W_ALL:
        rows = list(table.rows())
        if archive is not None and table.overwritten > 0:
            archived, info = archive.scan_since(float("-inf"))
            return archived + rows, info
        return rows, None
    if window.kind == W_RANGE:
        start = now - window.value
    elif window.kind == W_SINCE:
        start = window.value
    else:
        raise QueryError(f"unsupported window kind {window.kind!r}")
    if archive is not None and table.overwritten > 0:
        oldest = table.oldest()
        if oldest is None or start <= oldest.timestamp:
            # The window starts at or before the ring's oldest row:
            # history past the ring may qualify, so consult the archive.
            archived, info = archive.scan_since(start)
            return archived + list(table.rows_since(start)), info
    return list(table.rows_since(start)), None


# ----------------------------------------------------------------------
# Expression evaluation
# ----------------------------------------------------------------------

def has_aggregate(expr: Expr) -> bool:
    if isinstance(expr, FunctionCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            return True
        return any(has_aggregate(a) for a in expr.args)
    if isinstance(expr, Binary):
        return has_aggregate(expr.left) or has_aggregate(expr.right)
    if isinstance(expr, Unary):
        return has_aggregate(expr.operand)
    if isinstance(expr, InList):
        return has_aggregate(expr.needle) or any(
            has_aggregate(i) for i in expr.haystack
        )
    return False


def _like_to_regex(pattern: str) -> re.Pattern:
    out = ["^"]
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    out.append("$")
    return re.compile("".join(out), re.IGNORECASE)


class Evaluator:
    """Evaluates expressions over a binding (and a group for aggregates)."""

    def __init__(self, now: float):
        self.now = now

    # -- scalar path -----------------------------------------------------

    def scalar(self, expr: Expr, binding: Optional[Binding]) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            if binding is None:
                raise QueryError(f"column {expr.name!r} outside row context")
            return binding.resolve(expr)
        if isinstance(expr, Unary):
            return self._unary(expr, lambda e: self.scalar(e, binding))
        if isinstance(expr, Binary):
            return self._binary(expr, lambda e: self.scalar(e, binding))
        if isinstance(expr, InList):
            return self._in_list(expr, lambda e: self.scalar(e, binding))
        if isinstance(expr, FunctionCall):
            if expr.name in AGGREGATE_FUNCTIONS:
                raise QueryError(
                    f"aggregate {expr.name}() not allowed in row context"
                )
            return self._scalar_function(expr, lambda e: self.scalar(e, binding))
        raise QueryError(f"cannot evaluate expression {expr!r}")

    # -- aggregate path ---------------------------------------------------

    def aggregate(self, expr: Expr, group: Sequence[Binding]) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            # A bare column inside an aggregate query: value from the
            # first group row (valid when it's a group key).
            if not group:
                return None
            return group[0].resolve(expr)
        if isinstance(expr, Unary):
            return self._unary(expr, lambda e: self.aggregate(e, group))
        if isinstance(expr, Binary):
            return self._binary(expr, lambda e: self.aggregate(e, group))
        if isinstance(expr, InList):
            return self._in_list(expr, lambda e: self.aggregate(e, group))
        if isinstance(expr, FunctionCall):
            if expr.name in AGGREGATE_FUNCTIONS:
                return self._aggregate_function(expr, group)
            return self._scalar_function(expr, lambda e: self.aggregate(e, group))
        raise QueryError(f"cannot evaluate expression {expr!r}")

    def _aggregate_function(self, call: FunctionCall, group: Sequence[Binding]) -> Any:
        if call.name == "count" and call.star:
            return len(group)
        return aggregate_values(call.name, self._arg_values(call, group))

    def _arg_values(self, call: FunctionCall, group: Sequence[Binding]) -> List[Any]:
        if not call.args:
            raise QueryError(f"{call.name}() needs an argument")
        arg = call.args[0]
        return [self.scalar(arg, binding) for binding in group]

    # -- shared operator logic ---------------------------------------------

    def _unary(self, expr: Unary, ev: Callable[[Expr], Any]) -> Any:
        value = ev(expr.operand)
        if expr.op == "not":
            return not truthy(value)
        if expr.op == "-":
            return -value if value is not None else None
        raise QueryError(f"unknown unary operator {expr.op!r}")

    def _binary(self, expr: Binary, ev: Callable[[Expr], Any]) -> Any:
        op = expr.op
        if op == "and":
            return truthy(ev(expr.left)) and truthy(ev(expr.right))
        if op == "or":
            return truthy(ev(expr.left)) or truthy(ev(expr.right))
        left = ev(expr.left)
        if op == "is_null":
            return left is None
        right = ev(expr.right)
        if op == "like":
            if left is None or right is None:
                return False
            return bool(_like_to_regex(str(right)).match(str(left)))
        if op in ("=", "!="):
            equal = left == right
            return equal if op == "=" else not equal
        if left is None or right is None:
            return False if op in ("<", "<=", ">", ">=") else None
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return None
            return left / right
        if op == "%":
            if right == 0:
                return None
            return left % right
        raise QueryError(f"unknown operator {op!r}")

    def _in_list(self, expr: InList, ev: Callable[[Expr], Any]) -> bool:
        needle = ev(expr.needle)
        found = any(needle == ev(item) for item in expr.haystack)
        return (not found) if expr.negated else found

    def _scalar_function(self, call: FunctionCall, ev: Callable[[Expr], Any]) -> Any:
        args = [ev(a) for a in call.args]
        name = call.name
        if name == "now":
            return self.now
        if name == "abs":
            return abs(args[0]) if args and args[0] is not None else None
        if name == "upper":
            return str(args[0]).upper() if args and args[0] is not None else None
        if name == "lower":
            return str(args[0]).lower() if args and args[0] is not None else None
        if name == "round":
            if not args or args[0] is None:
                return None
            digits = int(args[1]) if len(args) > 1 and args[1] is not None else 0
            return round(args[0], digits)
        if name == "length":
            return len(str(args[0])) if args and args[0] is not None else None
        if name == "coalesce":
            for value in args:
                if value is not None:
                    return value
            return None
        raise QueryError(f"unknown function {name!r}")


def truthy(value: Any) -> bool:
    return bool(value)


def aggregate_values(name: str, raw_values: Sequence[Any]) -> Any:
    """Aggregate ``name`` over one group's argument values, in group order
    (``count(*)`` is just the group size and never gets here)."""
    if name == "count":
        return sum(1 for v in raw_values if v is not None)
    values = [v for v in raw_values if v is not None]
    if name == "sum":
        return sum(values) if values else 0
    if name == "avg":
        return sum(values) / len(values) if values else None
    if name == "min":
        return min(values) if values else None
    if name == "max":
        return max(values) if values else None
    if name == "first":
        return values[0] if values else None
    if name == "last":
        return values[-1] if values else None
    if name == "stddev":
        if len(values) < 2:
            return 0.0
        mean = sum(values) / len(values)
        return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    raise QueryError(f"unknown aggregate {name!r}")


def star_projections(alias_rows, qualify: bool) -> List[Projection]:
    projections: List[Projection] = []
    for alias, table, _rows in alias_rows:
        projections.append(
            Projection(
                ColumnRef(TS_COLUMN, table=alias),
                alias=f"{alias}.{TS_COLUMN}" if qualify else TS_COLUMN,
            )
        )
        for column in table.columns:
            projections.append(
                Projection(
                    ColumnRef(column.name, table=alias),
                    alias=f"{alias}.{column.name}" if qualify else column.name,
                )
            )
    return projections


def projection_name(projection: Projection, index: int) -> str:
    if projection.alias:
        return projection.alias
    expr = projection.expr
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, FunctionCall):
        if expr.star:
            return f"{expr.name}_star"
        if expr.args and isinstance(expr.args[0], ColumnRef):
            return f"{expr.name}_{expr.args[0].name}"
        return expr.name
    return f"col{index}"


def group_bindings(
    bindings: List[Binding],
    group_by: List[Expr],
    evaluator: Evaluator,
) -> List[List[Binding]]:
    if not group_by:
        return [bindings]
    buckets: Dict[Tuple, List[Binding]] = {}
    for binding in bindings:
        key = tuple(evaluator.scalar(expr, binding) for expr in group_by)
        buckets.setdefault(key, []).append(binding)
    return list(buckets.values())


def order_rows(
    rows: List[Tuple],
    order_by: List[OrderItem],
    projections: List[Projection],
    columns: List[str],
    evaluator: Evaluator,
) -> List[Tuple]:
    # ORDER BY may name an output column (common case) — resolve to index.
    def key_for(item: OrderItem) -> Callable[[Tuple], Any]:
        expr = item.expr
        if isinstance(expr, ColumnRef) and expr.table is None and expr.name in columns:
            index = columns.index(expr.name)
            return lambda row: row[index]
        # Positional: ORDER BY 2
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            index = expr.value - 1
            if not 0 <= index < len(columns):
                raise QueryError(f"ORDER BY position {expr.value} out of range")
            return lambda row: row[index]
        raise QueryError("ORDER BY must reference an output column or position")

    for item in reversed(order_by):
        key = key_for(item)
        rows = sorted(
            rows,
            key=lambda row: (key(row) is None, key(row)),
            reverse=item.descending,
        )
    return rows
