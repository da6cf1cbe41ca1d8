"""The reference CQL SELECT executor: the differential fuzzer's oracle.

A direct, unoptimised reading of the language: window every source,
form the full join product, filter by WHERE, then group, aggregate,
DISTINCT, order and limit, with no plan, cache or incremental state.
hwdb never runs it.  Every production SELECT goes through the compiled
plan (:mod:`repro.query`); :mod:`repro.check.cql_fuzz` replays random
queries through both and demands identical answers.  It lives in the
``check`` layer so no production layer can call it.

Row model and expression evaluation are shared with the plan
(:mod:`repro.hwdb.cql.executor`).  A change there moves both sides at
once, which is why the frozen digest corpus
(``tests/fuzz_corpus/cql_seed1.json``) guards them separately.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from ..core.errors import QueryError
from ..hwdb.cql.ast_nodes import Select
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
from ..hwdb.table import Row, StreamTable


def execute_select(
    select: Select,
    tables: Dict[str, StreamTable],
    now: float,
) -> ResultSet:
    """Run ``select`` against ``tables`` at time ``now``."""
    evaluator = Evaluator(now)

    # 1. Windowed sources.
    alias_rows: List[Tuple[str, StreamTable, List[Row]]] = []
    seen_aliases = set()
    for ref in select.sources:
        table = tables.get(ref.table)
        if table is None:
            raise QueryError(f"no such table {ref.table!r}")
        if ref.alias in seen_aliases:
            raise QueryError(f"duplicate table alias {ref.alias!r}")
        seen_aliases.add(ref.alias)
        alias_rows.append((ref.alias, table, apply_window_ex(table, ref, now)[0]))

    # 2. Join (cartesian product filtered by WHERE).
    bindings: List[Binding] = []
    for combo in itertools.product(*(rows for _, _, rows in alias_rows)):
        binding = Binding(
            {
                alias: (table, row)
                for (alias, table, _), row in zip(alias_rows, combo)
            }
        )
        if select.where is None or truthy(evaluator.scalar(select.where, binding)):
            bindings.append(binding)

    # 3. Projection plan.
    if select.star:
        projections = star_projections(alias_rows, len(select.sources) > 1)
    else:
        projections = select.projections
    aggregated = bool(select.group_by) or any(
        has_aggregate(p.expr) for p in projections
    )

    columns = [projection_name(p, i) for i, p in enumerate(projections)]

    # 4. Grouping / aggregation.
    if aggregated:
        groups = group_bindings(bindings, select.group_by, evaluator)
        out_rows: List[Tuple] = []
        for group in groups:
            if select.having is not None and not truthy(
                evaluator.aggregate(select.having, group)
            ):
                continue
            out_rows.append(
                tuple(evaluator.aggregate(p.expr, group) for p in projections)
            )
    else:
        out_rows = [
            tuple(evaluator.scalar(p.expr, binding) for p in projections)
            for binding in bindings
        ]

    # 5. DISTINCT, then ORDER BY + LIMIT.
    if select.distinct:
        seen = set()
        unique: List[Tuple] = []
        for row in out_rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        out_rows = unique
    if select.order_by:
        out_rows = order_rows(out_rows, select.order_by, projections, columns, evaluator)
    if select.limit is not None:
        out_rows = out_rows[: select.limit]

    return ResultSet(columns, out_rows, executed_at=now)
