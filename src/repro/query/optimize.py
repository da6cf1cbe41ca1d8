"""Rule-based rewrites applied while compiling a SELECT into a plan.

Four rules, all proven behaviour-preserving *given* the planner's
compile-time checks (every column reference resolves and every function
is known, so evaluation cannot raise a name error):

* **constant folding** — literal-only pure subtrees collapse to their
  value; ``now()`` never folds, and a subtree whose evaluation errors
  is simply left alone.
* **predicate pushdown** — the WHERE clause splits on top-level AND;
  conjuncts touching exactly one source filter at that source's scan,
  *before* the join product is formed.  Alias-free conjuncts and
  multi-source conjuncts stay in a residual filter above the join,
  rebuilt in original order.
* **window tightening** — a pushed ``timestamp >= C`` merges into the
  scan's window (ALL becomes SINCE C; SINCE v becomes SINCE max(v, C))
  because ``rows_since`` keeps exactly the rows with ``ts >= bound``.
  For a strict ``>`` the window tightens but the conjunct stays.
* **projection pruning** — each scan is annotated with the columns the
  query actually reads.  Plan-tier scans still bind whole rows (rows
  are preallocated tuples; slicing them would cost more than it saves)
  so this is informational there, but the incremental tier stores only
  these values per window entry.

Everything here is a pure AST-in/AST-out utility: this module never
imports :mod:`.plan`, and never mutates the input AST — the compiled
plan keeps the original ``Select`` for EXPLAIN and the incremental tier.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import QueryError
from ..hwdb.cql.ast_nodes import (
    Binary,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    Literal,
    TableRef,
    Unary,
    W_ALL,
    W_SINCE,
    Window,
)
from ..hwdb.cql.executor import Evaluator, truthy
from ..hwdb.cql.parser import SCALAR_FUNCTIONS
from ..hwdb.cql.unparse import unparse_expr
from ..hwdb.table import TS_COLUMN

#: Resolves a column reference to the owning source alias.  The planner
#: has resolved every reference before any rewrite runs, so this never
#: raises here.
Resolver = Callable[[ColumnRef], str]


# ----------------------------------------------------------------------
# AST plumbing
# ----------------------------------------------------------------------

def clone_expr(expr: Expr) -> Expr:
    """Deep-copy an expression tree (shared Literals are fine; nodes not)."""
    if isinstance(expr, Literal):
        return Literal(expr.value)
    if isinstance(expr, ColumnRef):
        return ColumnRef(expr.name, expr.table)
    if isinstance(expr, Unary):
        return Unary(expr.op, clone_expr(expr.operand))
    if isinstance(expr, Binary):
        return Binary(expr.op, clone_expr(expr.left), clone_expr(expr.right))
    if isinstance(expr, InList):
        return InList(
            clone_expr(expr.needle),
            [clone_expr(item) for item in expr.haystack],
            expr.negated,
        )
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name, [clone_expr(a) for a in expr.args], star=expr.star
        )
    return expr


def split_conjuncts(expr: Expr) -> List[Expr]:
    """Flatten a top-level AND tree into its conjuncts, left to right."""
    if isinstance(expr, Binary) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def and_chain(conjuncts: List[Expr]) -> Optional[Expr]:
    """Rebuild a left-associated AND tree; None for an empty list."""
    if not conjuncts:
        return None
    out = conjuncts[0]
    for conjunct in conjuncts[1:]:
        out = Binary("and", out, conjunct)
    return out


def collect_column_refs(expr: Expr, out: Optional[List[ColumnRef]] = None) -> List[ColumnRef]:
    if out is None:
        out = []
    if isinstance(expr, ColumnRef):
        out.append(expr)
    elif isinstance(expr, Unary):
        collect_column_refs(expr.operand, out)
    elif isinstance(expr, Binary):
        collect_column_refs(expr.left, out)
        collect_column_refs(expr.right, out)
    elif isinstance(expr, InList):
        collect_column_refs(expr.needle, out)
        for item in expr.haystack:
            collect_column_refs(item, out)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            collect_column_refs(arg, out)
    return out


# ----------------------------------------------------------------------
# Constant folding
# ----------------------------------------------------------------------

def fold_expr(expr: Expr, evaluator: Evaluator) -> Expr:
    """Fold literal-only subtrees bottom-up.  Never mutates ``expr``."""
    if isinstance(expr, (Literal, ColumnRef)):
        return expr
    if isinstance(expr, Unary):
        return _try_fold(Unary(expr.op, fold_expr(expr.operand, evaluator)), evaluator)
    if isinstance(expr, Binary):
        return _try_fold(
            Binary(
                expr.op,
                fold_expr(expr.left, evaluator),
                fold_expr(expr.right, evaluator),
            ),
            evaluator,
        )
    if isinstance(expr, InList):
        return _try_fold(
            InList(
                fold_expr(expr.needle, evaluator),
                [fold_expr(item, evaluator) for item in expr.haystack],
                expr.negated,
            ),
            evaluator,
        )
    if isinstance(expr, FunctionCall):
        if expr.star:
            return expr
        return _try_fold(
            FunctionCall(expr.name, [fold_expr(a, evaluator) for a in expr.args]),
            evaluator,
        )
    return expr


def _is_literal(expr: Expr) -> bool:
    return isinstance(expr, Literal)


def _try_fold(expr: Expr, evaluator: Evaluator) -> Expr:
    if isinstance(expr, Unary):
        ready = _is_literal(expr.operand)
    elif isinstance(expr, Binary):
        ready = _is_literal(expr.left) and _is_literal(expr.right)
    elif isinstance(expr, InList):
        ready = _is_literal(expr.needle) and all(
            _is_literal(item) for item in expr.haystack
        )
    elif isinstance(expr, FunctionCall):
        # now() is deliberately absent from SCALAR_FUNCTIONS: it must
        # re-evaluate at query time, every tick.
        ready = expr.name in SCALAR_FUNCTIONS and all(
            _is_literal(a) for a in expr.args
        )
    else:
        ready = False
    if not ready:
        return expr
    try:
        return Literal(evaluator.scalar(expr, None))
    except (QueryError, TypeError, ValueError, OverflowError):
        # Evaluation would fail at runtime too (e.g. 'a' + 1); leave the
        # subtree so the plan surfaces it when it runs.
        return expr


# ----------------------------------------------------------------------
# Pushdown + window tightening
# ----------------------------------------------------------------------

class Rewrite:
    """Outcome of the WHERE-clause rewrite pass."""

    __slots__ = ("scan_predicates", "windows", "residual", "notes")

    def __init__(self) -> None:
        self.scan_predicates: Dict[str, List[Expr]] = {}
        self.windows: Dict[str, Window] = {}
        self.residual: List[Expr] = []
        self.notes: List[str] = []


def rewrite_where(
    where: Optional[Expr],
    sources: List[TableRef],
    resolve: Resolver,
) -> Rewrite:
    """Fold, split, classify and push the WHERE clause.

    Returns cloned windows (possibly tightened), per-alias pushed
    conjunct lists, and the residual conjuncts in their original order.
    """
    rewrite = Rewrite()
    for ref in sources:
        rewrite.windows[ref.alias] = Window(ref.window.kind, ref.window.value)
    if where is None:
        return rewrite

    folded = fold_expr(clone_expr(where), Evaluator(0.0))
    if unparse_expr(folded) != unparse_expr(where):
        rewrite.notes.append("constant folding: simplified WHERE")

    pushed: Dict[str, int] = {}
    for conjunct in split_conjuncts(folded):
        if isinstance(conjunct, Literal):
            if truthy(conjunct.value):
                rewrite.notes.append("dropped constant-true conjunct")
            else:
                rewrite.residual.append(conjunct)
            continue
        owners = {resolve(ref) for ref in collect_column_refs(conjunct)}
        if len(owners) != 1:
            rewrite.residual.append(conjunct)
            continue
        alias = next(iter(owners))
        tightened = _tighten(rewrite.windows[alias], conjunct, resolve, alias)
        if tightened is not None:
            window, keep_conjunct = tightened
            rewrite.windows[alias] = window
            rewrite.notes.append(
                f"window tightening: {alias} [SINCE {window.value!r}]"
            )
            if not keep_conjunct:
                continue
        rewrite.scan_predicates.setdefault(alias, []).append(conjunct)
        pushed[alias] = pushed.get(alias, 0) + 1
    for alias, count in pushed.items():
        rewrite.notes.append(
            f"predicate pushdown: {count} conjunct(s) -> scan({alias})"
        )
    return rewrite


def _tighten(
    window: Window,
    conjunct: Expr,
    resolve: Resolver,
    alias: str,
) -> Optional[Tuple[Window, bool]]:
    """Merge ``timestamp >= C`` / ``> C`` into ALL or SINCE windows.

    Returns ``(new_window, keep_conjunct)`` or None when the rule does
    not apply.  ``rows_since`` keeps rows with ``ts >= bound``, so for
    ``>=`` the conjunct becomes redundant and drops; for strict ``>``
    the window still tightens but the conjunct must stay to exclude
    rows exactly at the bound.
    """
    if window.kind not in (W_ALL, W_SINCE):
        return None
    if not isinstance(conjunct, Binary) or conjunct.op not in (">", ">="):
        return None
    ref = conjunct.left
    bound = conjunct.right
    if not isinstance(ref, ColumnRef) or ref.name != TS_COLUMN:
        return None
    if resolve(ref) != alias:
        return None
    if not isinstance(bound, Literal):
        return None
    value = bound.value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    lower = float(value)
    if window.kind == W_SINCE:
        lower = max(window.value, lower)
    return Window(W_SINCE, lower), conjunct.op == ">"


# ----------------------------------------------------------------------
# Projection pruning
# ----------------------------------------------------------------------

def needed_columns(
    exprs: List[Expr],
    aliases: List[str],
    resolve: Resolver,
) -> Dict[str, Tuple[str, ...]]:
    """Columns each source alias contributes anywhere in the query."""
    need: Dict[str, set] = {alias: set() for alias in aliases}
    for expr in exprs:
        for ref in collect_column_refs(expr):
            need[resolve(ref)].add(ref.name)
    return {alias: tuple(sorted(names)) for alias, names in need.items()}
