"""Recursive-descent parser for the CQL variant."""

from __future__ import annotations

from typing import Any, List, Optional, Union

from ...core.errors import QueryError
from .ast_nodes import (
    Binary,
    ColumnRef,
    CreateTable,
    Explain,
    Expr,
    FunctionCall,
    InList,
    Insert,
    Literal,
    OrderItem,
    Projection,
    Select,
    TableRef,
    Unary,
    W_NOW,
    W_RANGE,
    W_ROWS,
    W_SINCE,
    Window,
)
from .lexer import TokenStream, tokenize

Statement = Union[Select, Insert, CreateTable, Explain]

_UNIT_SECONDS = {
    "millisecond": 0.001,
    "milliseconds": 0.001,
    "second": 1.0,
    "seconds": 1.0,
    "minute": 60.0,
    "minutes": 60.0,
    "hour": 3600.0,
    "hours": 3600.0,
}

AGGREGATE_FUNCTIONS = {"count", "sum", "avg", "min", "max", "first", "last", "stddev"}
SCALAR_FUNCTIONS = {"abs", "upper", "lower", "coalesce", "round", "length"}


def parse(text: str) -> Statement:
    """Parse one statement; trailing ``;`` is tolerated."""
    stream = TokenStream(tokenize(text))
    statement = _parse_statement(stream)
    stream.accept("punct", ";")
    if not stream.eof():
        token = stream.peek()
        raise QueryError(
            f"unexpected trailing input at position {token.position}: {token.value!r}"
        )
    return statement


def _parse_statement(s: TokenStream) -> Statement:
    if s.at_keyword("select"):
        return _parse_select(s)
    if s.at_keyword("insert"):
        return _parse_insert(s)
    if s.at_keyword("create"):
        return _parse_create(s)
    if s.at_keyword("explain"):
        s.next()
        analyze = bool(s.accept("keyword", "analyze"))
        if not s.at_keyword("select"):
            token = s.peek()
            raise QueryError(
                f"EXPLAIN takes a SELECT statement, got {token.value!r}"
            )
        return Explain(_parse_select(s), analyze=analyze)
    token = s.peek()
    raise QueryError(f"expected a statement, got {token.value!r}")


# ----------------------------------------------------------------------
# SELECT
# ----------------------------------------------------------------------

def _parse_select(s: TokenStream) -> Select:
    s.expect("keyword", "select")
    distinct = bool(s.accept("keyword", "distinct"))
    star = False
    projections: List[Projection] = []
    if s.accept("op", "*"):
        star = True
    else:
        projections.append(_parse_projection(s))
        while s.accept("punct", ","):
            projections.append(_parse_projection(s))
    s.expect("keyword", "from")
    sources = [_parse_table_ref(s)]
    while s.accept("punct", ","):
        sources.append(_parse_table_ref(s))

    where = None
    if s.accept("keyword", "where"):
        where = _parse_expr(s)

    group_by: List[Expr] = []
    if s.accept("keyword", "group"):
        s.expect("keyword", "by")
        group_by.append(_parse_expr(s))
        while s.accept("punct", ","):
            group_by.append(_parse_expr(s))

    having = None
    if s.accept("keyword", "having"):
        having = _parse_expr(s)

    order_by: List[OrderItem] = []
    if s.accept("keyword", "order"):
        s.expect("keyword", "by")
        order_by.append(_parse_order_item(s))
        while s.accept("punct", ","):
            order_by.append(_parse_order_item(s))

    limit = None
    if s.accept("keyword", "limit"):
        token = s.expect("number")
        limit = int(float(token.value))

    return Select(
        projections=projections,
        sources=sources,
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=limit,
        star=star,
        distinct=distinct,
    )


def _parse_projection(s: TokenStream) -> Projection:
    expr = _parse_expr(s)
    alias = None
    if s.accept("keyword", "as"):
        alias = s.expect("ident").value
    elif s.peek().kind == "ident" and not s.at_keyword():
        # Bare alias: SELECT bytes b FROM ...
        alias = s.next().value
    return Projection(expr, alias)


def _parse_order_item(s: TokenStream) -> OrderItem:
    expr = _parse_expr(s)
    descending = False
    if s.accept("keyword", "desc"):
        descending = True
    else:
        s.accept("keyword", "asc")
    return OrderItem(expr, descending)


def _parse_table_ref(s: TokenStream) -> TableRef:
    table = s.expect("ident").value
    window: Optional[Window] = None
    if s.accept("punct", "["):
        window = _parse_window(s)
        s.expect("punct", "]")
    alias = None
    if s.accept("keyword", "as"):
        alias = s.expect("ident").value
    elif s.peek().kind == "ident":
        alias = s.next().value
    return TableRef(table, window, alias)


def _parse_window(s: TokenStream) -> Window:
    if s.accept("keyword", "now"):
        return Window(W_NOW)
    if s.accept("keyword", "range"):
        amount = float(s.expect("number").value)
        unit_token = s.peek()
        scale = 1.0
        if unit_token.kind == "keyword" and unit_token.value in _UNIT_SECONDS:
            scale = _UNIT_SECONDS[s.next().value]
        if amount < 0:
            raise QueryError("RANGE window must be non-negative")
        return Window(W_RANGE, amount * scale)
    if s.accept("keyword", "rows"):
        count = int(float(s.expect("number").value))
        if count < 0:
            raise QueryError("ROWS window must be non-negative")
        return Window(W_ROWS, count)
    if s.accept("keyword", "since"):
        return Window(W_SINCE, float(s.expect("number").value))
    token = s.peek()
    raise QueryError(f"bad window specification near {token.value!r}")


# ----------------------------------------------------------------------
# Expressions (precedence climbing)
# ----------------------------------------------------------------------

def _parse_expr(s: TokenStream) -> Expr:
    return _parse_or(s)


def _parse_or(s: TokenStream) -> Expr:
    left = _parse_and(s)
    while s.accept("keyword", "or"):
        left = Binary("or", left, _parse_and(s))
    return left


def _parse_and(s: TokenStream) -> Expr:
    left = _parse_not(s)
    while s.accept("keyword", "and"):
        left = Binary("and", left, _parse_not(s))
    return left


def _parse_not(s: TokenStream) -> Expr:
    if s.accept("keyword", "not"):
        return Unary("not", _parse_not(s))
    return _parse_comparison(s)


_COMPARISONS = {"=", "!=", "<>", "<", "<=", ">", ">="}


def _parse_comparison(s: TokenStream) -> Expr:
    left = _parse_additive(s)
    token = s.peek()
    if token.kind == "op" and token.value in _COMPARISONS:
        op = s.next().value
        if op == "<>":
            op = "!="
        return Binary(op, left, _parse_additive(s))
    if s.at_keyword("like"):
        s.next()
        return Binary("like", left, _parse_additive(s))
    if s.at_keyword("in"):
        s.next()
        return _parse_in(s, left, negated=False)
    if s.at_keyword("not") and s.peek(1).kind == "keyword" and s.peek(1).value == "in":
        s.next()
        s.next()
        return _parse_in(s, left, negated=True)
    if s.at_keyword("is"):
        s.next()
        negated = bool(s.accept("keyword", "not"))
        s.expect("keyword", "null")
        check = Binary("is_null", left, Literal(None))
        return Unary("not", check) if negated else check
    return left


def _parse_in(s: TokenStream, needle: Expr, negated: bool) -> Expr:
    s.expect("punct", "(")
    items = [_parse_expr(s)]
    while s.accept("punct", ","):
        items.append(_parse_expr(s))
    s.expect("punct", ")")
    return InList(needle, items, negated)


def _parse_additive(s: TokenStream) -> Expr:
    left = _parse_multiplicative(s)
    while True:
        token = s.peek()
        if token.kind == "op" and token.value in ("+", "-"):
            op = s.next().value
            left = Binary(op, left, _parse_multiplicative(s))
        else:
            return left


def _parse_multiplicative(s: TokenStream) -> Expr:
    left = _parse_unary(s)
    while True:
        token = s.peek()
        if token.kind == "op" and token.value in ("*", "/", "%"):
            op = s.next().value
            left = Binary(op, left, _parse_unary(s))
        else:
            return left


def _parse_unary(s: TokenStream) -> Expr:
    token = s.peek()
    if token.kind == "op" and token.value == "-":
        s.next()
        return Unary("-", _parse_unary(s))
    if token.kind == "op" and token.value == "+":
        s.next()
        return _parse_unary(s)
    return _parse_primary(s)


def _parse_primary(s: TokenStream) -> Expr:
    token = s.peek()
    if token.kind == "number":
        s.next()
        value = float(token.value)
        if value.is_integer() and "." not in token.value:
            return Literal(int(value))
        return Literal(value)
    if token.kind == "string":
        s.next()
        return Literal(token.value)
    if token.kind == "keyword":
        if token.value == "true":
            s.next()
            return Literal(True)
        if token.value == "false":
            s.next()
            return Literal(False)
        if token.value == "null":
            s.next()
            return Literal(None)
        if token.value == "now":  # now() as a bare keyword-function
            s.next()
            if s.accept("punct", "("):
                s.expect("punct", ")")
            return FunctionCall("now", [])
    if token.kind == "punct" and token.value == "(":
        s.next()
        inner = _parse_expr(s)
        s.expect("punct", ")")
        return inner
    if token.kind == "ident":
        s.next()
        name = token.value
        if s.accept("punct", "("):
            if s.accept("op", "*"):
                s.expect("punct", ")")
                return FunctionCall(name, [], star=True)
            args: List[Expr] = []
            if not s.accept("punct", ")"):
                args.append(_parse_expr(s))
                while s.accept("punct", ","):
                    args.append(_parse_expr(s))
                s.expect("punct", ")")
            return FunctionCall(name, args)
        if s.accept("punct", "."):
            column = s.expect("ident").value
            return ColumnRef(column, table=name)
        return ColumnRef(name)
    raise QueryError(f"unexpected token {token.value!r} at position {token.position}")


# ----------------------------------------------------------------------
# INSERT / CREATE
# ----------------------------------------------------------------------

def _parse_literal_value(s: TokenStream) -> Any:
    token = s.peek()
    if token.kind == "number":
        s.next()
        value = float(token.value)
        return int(value) if value.is_integer() and "." not in token.value else value
    if token.kind == "string":
        s.next()
        return token.value
    if token.kind == "keyword" and token.value in ("true", "false", "null"):
        s.next()
        return {"true": True, "false": False, "null": None}[token.value]
    if token.kind == "op" and token.value == "-":
        s.next()
        number = s.expect("number")
        value = -float(number.value)
        return int(value) if value.is_integer() and "." not in number.value else value
    raise QueryError(f"expected a literal at position {token.position}")


def _parse_insert(s: TokenStream) -> Insert:
    s.expect("keyword", "insert")
    s.expect("keyword", "into")
    table = s.expect("ident").value
    columns: Optional[List[str]] = None
    if s.accept("punct", "("):
        columns = [s.expect("ident").value]
        while s.accept("punct", ","):
            columns.append(s.expect("ident").value)
        s.expect("punct", ")")
    s.expect("keyword", "values")
    s.expect("punct", "(")
    values = [_parse_literal_value(s)]
    while s.accept("punct", ","):
        values.append(_parse_literal_value(s))
    s.expect("punct", ")")
    return Insert(table, columns, values)


def _parse_create(s: TokenStream) -> CreateTable:
    s.expect("keyword", "create")
    s.expect("keyword", "table")
    table = s.expect("ident").value
    s.expect("punct", "(")
    columns = [_parse_coldef(s)]
    while s.accept("punct", ","):
        columns.append(_parse_coldef(s))
    s.expect("punct", ")")
    buffer_rows = None
    if s.accept("keyword", "buffer"):
        buffer_rows = int(float(s.expect("number").value))
    return CreateTable(table, columns, buffer_rows)


def _parse_coldef(s: TokenStream):
    name = s.expect("ident").value
    type_token = s.peek()
    if type_token.kind not in ("ident", "keyword"):
        raise QueryError(f"expected column type at position {type_token.position}")
    s.next()
    return (name, type_token.value)
