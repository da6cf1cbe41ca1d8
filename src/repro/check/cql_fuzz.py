"""Differential CQL fuzzing: the query engine vs the reference executor.

The engine's core promise is *bit-identical* results — any query, either
tier (incremental / plan), any ring state.  This module checks that
promise the FoundationDB way: a seeded generator produces random-but-
valid CQL SELECTs over two small ring tables, the rings churn between
ticks (small capacities force wrap-around and overwrite of unconsumed
rows), and after every tick the same statement is executed by the
database (its engine) and by the naive reference executor
(:mod:`.cql_reference`) at the same clock reading.  Results must match
column-for-column and value-for-value *including Python types* (``2``
is not ``2.0`` on the wire); errors must match type and message.

The generator is type-aware by construction — ``sum()`` only over
numeric columns, comparisons only between compatible types, ``HAVING``
only over aggregate expressions — so every generated query is valid.
Determinism: one ``random.Random(seed)`` drives everything, so a
failing seed is a one-command reproduction.  :func:`engine_digests`
replays the same stream through the engine alone; its output for seed 1
is frozen as ``tests/fuzz_corpus/cql_seed1.json``.
"""

from __future__ import annotations

import hashlib
import logging
import random
from typing import Iterator, List, Tuple

from ..core.clock import SimulatedClock
from ..core.errors import HwdbError
from ..hwdb.cql.ast_nodes import Select
from ..hwdb.cql.executor import ResultSet
from ..hwdb.cql.parser import parse
from ..hwdb.database import HomeworkDatabase
from .cql_reference import execute_select

logger = logging.getLogger(__name__)

#: Schema the generator draws from: table -> (varchar, integer, boolean)
#: column pools.  Capacities are tiny on purpose — a few dozen inserts
#: wrap the ring, so windows routinely span the wrap point.
SCHEMA = {
    "readings": (("device",), ("value",), ("ok",)),
    "flows": (("device", "protocol"), ("bytes",), ()),
}
CAPACITIES = {"readings": 32, "flows": 48}
DEVICES = ("dev0", "dev1", "dev2", "dev3", "dev4")
PROTOCOLS = ("tcp", "udp", "icmp")

NUMERIC_AGGREGATES = ("sum", "avg", "min", "max", "stddev")
ANY_AGGREGATES = ("count", "first", "last")


class Mismatch:
    """One divergence between the engine and the reference executor."""

    def __init__(self, query: str, tick: int, detail: str):
        self.query = query
        self.tick = tick
        self.detail = detail

    def __repr__(self) -> str:
        return f"Mismatch(tick={self.tick}, query={self.query!r}, {self.detail})"


def _fingerprint(result: ResultSet) -> Tuple:
    """Type-exact digest: ``2`` and ``2.0`` compare equal, so hash the
    type name alongside the repr."""
    return (
        tuple(result.columns),
        tuple(
            tuple((type(v).__name__, repr(v)) for v in row) for row in result.rows
        ),
        result.executed_at,
    )


class _QueryGen:
    """Type-aware random SELECT builder over :data:`SCHEMA`."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def build(self) -> str:
        rng = self.rng
        if rng.random() < 0.12:
            return self._join_query()
        table = rng.choice(sorted(SCHEMA))
        aggregated = rng.random() < 0.55
        window = self._window()
        where = self._where(table) if rng.random() < 0.6 else ""
        if aggregated:
            return self._aggregate_query(table, window, where)
        return self._plain_query(table, window, where)

    # -- clauses -------------------------------------------------------

    def _window(self) -> str:
        rng = self.rng
        kind = rng.randrange(5)
        if kind == 0:
            return ""
        if kind == 1:
            return " [NOW]"
        if kind == 2:
            return f" [ROWS {rng.randrange(1, 60)}]"
        if kind == 3:
            return f" [RANGE {rng.randrange(1, 50)} SECONDS]"
        return f" [SINCE {rng.uniform(0.0, 120.0):.1f}]"

    def _conjunct(self, table: str, alias: str = "") -> str:
        rng = self.rng
        varchars, integers, booleans = SCHEMA[table]
        prefix = f"{alias}." if alias else ""
        choices = ["numeric", "string", "timestamp"]
        if booleans:
            choices.append("boolean")
        kind = rng.choice(choices)
        if kind == "numeric":
            col = rng.choice(integers)
            op = rng.choice(("<", "<=", ">", ">=", "=", "!="))
            return f"{prefix}{col} {op} {rng.randrange(0, 2000)}"
        if kind == "string":
            col = rng.choice(varchars)
            pool = PROTOCOLS if col == "protocol" else DEVICES
            if rng.random() < 0.3:
                values = ", ".join(f"'{v}'" for v in rng.sample(pool, 2))
                return f"{prefix}{col} IN ({values})"
            return f"{prefix}{col} = '{rng.choice(pool)}'"
        if kind == "boolean":
            col = rng.choice(booleans)
            return rng.choice((f"{prefix}{col}", f"{prefix}{col} = TRUE"))
        op = rng.choice((">=", ">"))
        return f"{prefix}timestamp {op} {rng.uniform(0.0, 100.0):.1f}"

    def _where(self, table: str, alias: str = "") -> str:
        parts = [self._conjunct(table, alias)]
        while self.rng.random() < 0.35 and len(parts) < 3:
            parts.append(self._conjunct(table, alias))
        glue = " OR " if self.rng.random() < 0.2 and len(parts) > 1 else " AND "
        return " WHERE " + glue.join(parts)

    def _aggregate_exprs(self, table: str, count: int) -> List[str]:
        rng = self.rng
        varchars, integers, booleans = SCHEMA[table]
        out = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.15:
                out.append("count(*)")
            elif roll < 0.7:
                fn = rng.choice(NUMERIC_AGGREGATES)
                out.append(f"{fn}({rng.choice(integers)})")
            else:
                fn = rng.choice(ANY_AGGREGATES)
                col = rng.choice(varchars + integers + booleans)
                out.append(f"{fn}({col})")
        return out

    def _aggregate_query(self, table: str, window: str, where: str) -> str:
        rng = self.rng
        varchars, _integers, _booleans = SCHEMA[table]
        group_cols = []
        if rng.random() < 0.75:
            group_cols = list(
                rng.sample(varchars, rng.randrange(1, len(varchars) + 1))
            )
        aggs = self._aggregate_exprs(table, rng.randrange(1, 4))
        projections = group_cols + [
            f"{expr} AS a{i}" for i, expr in enumerate(aggs)
        ]
        text = (
            f"SELECT {', '.join(projections)} FROM {table}{window}{where}"
        )
        if group_cols:
            text += f" GROUP BY {', '.join(group_cols)}"
        if rng.random() < 0.3:
            _varchars, integers, _ = SCHEMA[table]
            fn = rng.choice(("sum", "count", "avg"))
            text += f" HAVING {fn}({rng.choice(integers)}) > {rng.randrange(0, 3000)}"
        if rng.random() < 0.5:
            key = rng.choice([f"a{i}" for i in range(len(aggs))] + group_cols)
            text += f" ORDER BY {key} {rng.choice(('ASC', 'DESC'))}"
        if rng.random() < 0.4:
            text += f" LIMIT {rng.randrange(1, 8)}"
        return text

    def _plain_query(self, table: str, window: str, where: str) -> str:
        rng = self.rng
        varchars, integers, booleans = SCHEMA[table]
        columns = varchars + integers + booleans
        if rng.random() < 0.3:
            select = "*"
            order_pool: Tuple[str, ...] = columns
        else:
            picked = rng.sample(columns, rng.randrange(1, len(columns) + 1))
            select = ", ".join(picked)
            order_pool = tuple(picked)
        distinct = "DISTINCT " if rng.random() < 0.15 else ""
        text = f"SELECT {distinct}{select} FROM {table}{window}{where}"
        if rng.random() < 0.5:
            text += f" ORDER BY {rng.choice(order_pool)} {rng.choice(('ASC', 'DESC'))}"
        if rng.random() < 0.4:
            text += f" LIMIT {rng.randrange(1, 10)}"
        return text

    def _join_query(self) -> str:
        rng = self.rng
        window = self._window()
        where = self._where("flows", alias="f") if rng.random() < 0.7 else ""
        join_pred = "r.device = f.device"
        where = (
            where + f" AND {join_pred}" if where else f" WHERE {join_pred}"
        )
        text = (
            f"SELECT r.device, sum(f.bytes) AS bytes FROM readings{window} r,"
            f" flows{window} f{where} GROUP BY r.device"
        )
        if rng.random() < 0.5:
            text += " ORDER BY bytes DESC"
        return text


def _build_db(rng: random.Random) -> Tuple[HomeworkDatabase, SimulatedClock]:
    clock = SimulatedClock(start=rng.uniform(0.0, 20.0))
    db = HomeworkDatabase(clock)
    for table, (varchars, integers, booleans) in sorted(SCHEMA.items()):
        columns = (
            [(c, "varchar") for c in varchars]
            + [(c, "integer") for c in integers]
            + [(c, "boolean") for c in booleans]
        )
        db.create_table(table, columns, capacity=CAPACITIES[table])
    return db, clock


def _churn(db: HomeworkDatabase, rng: random.Random) -> None:
    """Insert a random batch into both tables."""
    for _ in range(rng.randrange(0, 14)):
        db.insert(
            "readings",
            {
                "device": rng.choice(DEVICES),
                "value": rng.randrange(0, 500),
                "ok": rng.random() < 0.8,
            },
        )
    for _ in range(rng.randrange(0, 18)):
        db.insert(
            "flows",
            {
                "device": rng.choice(DEVICES),
                "protocol": rng.choice(PROTOCOLS),
                "bytes": rng.randrange(0, 5000),
            },
        )


def _outcome(fn) -> Tuple[str, object]:
    """Run ``fn`` and normalise to (kind, payload) for comparison."""
    try:
        return ("ok", _fingerprint(fn()))
    except HwdbError as exc:
        return ("error", (type(exc).__name__, str(exc)))


def _replay(
    queries: int, seed: int, ticks: int
) -> Iterator[Tuple[int, str, Select, int, HomeworkDatabase]]:
    """Yield ``(index, text, statement, tick, db)`` once per tick.

    Each generated query gets ``ticks`` rounds of ring churn plus a
    clock advance, all drawn from one ``random.Random(seed)``.  The
    stream does not depend on what the consumer executes.
    """
    rng = random.Random(seed)
    db, clock = _build_db(rng)
    gen = _QueryGen(rng)
    for index in range(queries):
        text = gen.build()
        try:
            statement = parse(text)
        except HwdbError:  # pragma: no cover - generator bug, not engine
            raise AssertionError(f"generator produced unparseable CQL: {text}")
        for tick in range(ticks):
            _churn(db, rng)
            clock.advance(rng.uniform(0.5, 5.0))
            yield index, text, statement, tick, db


def run_differential(
    queries: int = 500, seed: int = 1, ticks: int = 4
) -> List[Mismatch]:
    """Replay ``queries`` generated SELECTs, ``ticks`` churn rounds each.

    Every query is executed repeatedly against a mutating ring — that is
    what makes the *incremental* tier earn its keep: the engine carries
    per-group state between calls while the reference executor
    recomputes from scratch, and the two must never be told apart.

    The engine side goes through ``db.query(text)``, so its ticks after
    the first run on the statement hwdb parsed and cached, while the
    reference runs its own parse of the text: a cached AST that some
    execution mutated shows up as a mismatch on the next tick.  More
    queries than the statement map holds also exercise its eviction.
    """
    mismatches: List[Mismatch] = []
    diverged = -1
    for index, text, statement, tick, db in _replay(queries, seed, ticks):
        if index == diverged:
            continue  # one report per query
        expected = _outcome(
            lambda: execute_select(statement, db._tables, db.now)
        )
        actual = _outcome(lambda: db.query(text))
        if expected != actual:
            diverged = index
            mismatches.append(
                Mismatch(text, tick, f"reference={expected!r} engine={actual!r}")
            )
            logger.error(
                "cql-fuzz mismatch (query %d tick %d): %s", index, tick, text
            )
    return mismatches


def engine_digests(
    queries: int = 500, seed: int = 1, ticks: int = 4
) -> List[Tuple[str, str]]:
    """``(query text, SHA-256 of its tick outcomes)`` per generated query,
    from the database's engine alone (no reference executor)."""
    texts: List[str] = []
    outcomes: List[list] = []
    for index, text, _statement, _tick, db in _replay(queries, seed, ticks):
        if index == len(texts):
            texts.append(text)
            outcomes.append([])
        outcomes[-1].append(_outcome(lambda: db.query(text)))
    return [
        (text, hashlib.sha256(repr(ticks_out).encode()).hexdigest())
        for text, ticks_out in zip(texts, outcomes)
    ]


def fuzz_cql(queries: int, seed: int, say=logger.info) -> int:
    """CLI entry: run the differential sweep, log a summary, exit code."""
    mismatches = run_differential(queries=queries, seed=seed)
    if mismatches:
        for miss in mismatches[:10]:
            say("MISMATCH tick=%d: %s\n  %s", miss.tick, miss.query, miss.detail)
        say("cql-fuzz: %d/%d queries diverged", len(mismatches), queries)
        return 1
    say("cql-fuzz: %d queries, engine == reference executor on every tick", queries)
    return 0


#: Re-exported for the property-based regression tests.
__all__ = ["Mismatch", "run_differential", "engine_digests", "fuzz_cql"]
