"""repro.query compilation: tiers, errors, optimizer rewrites, caches, EXPLAIN.

The engine's contract is behavioural identity with the reference
executor, so most correctness lives in the differential tests
(``test_query_fuzz.py``); this file pins down the *machinery* — which
tier a statement lands in, which errors compilation raises, what the
optimizer rewrites, how the plan and share caches behave, and what
EXPLAIN reports.
"""

import pytest

from repro.check.cql_reference import execute_select
from repro.core.clock import SimulatedClock
from repro.core.errors import QueryError
from repro.hwdb.cql.parser import parse
from repro.hwdb.database import HomeworkDatabase
from repro.hwdb.rpc import RpcServer
from repro.core.metrics import MetricsRegistry
from repro.query.engine import MODE_INCREMENTAL, MODE_PLAN, PLAN_CACHE_SIZE
from repro.query.plan import compile_select
from repro.sim.simulator import Simulator

SCHEMA = [("device", "varchar"), ("proto", "integer"), ("bytes", "integer")]


@pytest.fixture
def db():
    database = HomeworkDatabase(SimulatedClock())
    database.create_table("flows", SCHEMA, 64)
    return database


@pytest.fixture
def engine(db):
    return db._engine


def fill(db, rows=20):
    for i in range(rows):
        db._clock.advance(1.0)
        db.insert(
            "flows",
            {"device": f"dev{i % 3}", "proto": 6, "bytes": 100 * (i + 1)},
        )


def mode_of(engine, db, text):
    """Execute once, return the tier the (sole) cached entry landed in.

    Cache keys are the *normalised* statement text (``unparse`` output),
    so looking up by the input text would be fragile."""
    engine.execute_select(parse(text), db._tables, db.now)
    info = engine.cache_info()
    assert len(info) == 1
    return info[0][1]


class TestTierRouting:
    def test_windowed_aggregate_is_incremental(self, engine, db):
        fill(db)
        assert mode_of(
            engine,
            db,
            "SELECT device, sum(bytes) AS b FROM flows [RANGE 10 SECONDS] "
            "GROUP BY device",
        ) == MODE_INCREMENTAL

    def test_rows_window_takes_plan_tier(self, engine, db):
        fill(db)
        assert mode_of(engine, db, "SELECT device, bytes FROM flows [ROWS 5]") == MODE_PLAN

    def test_distinct_takes_plan_tier(self, engine, db):
        fill(db)
        assert mode_of(engine, db, "SELECT DISTINCT device FROM flows") == MODE_PLAN


ERROR_CASES = [
    ("unknown-column", "SELECT nosuch FROM flows", "unknown column 'nosuch'"),
    (
        "count-star-plus-unknown-column",
        "SELECT count(*) AS n, nosuch FROM flows",
        "unknown column 'nosuch'",
    ),
    (
        "qualified-unknown-column",
        "SELECT f.nosuch FROM flows f",
        "table 'flows' has no column 'nosuch'",
    ),
    (
        "ambiguous-join-column",
        "SELECT device FROM flows f, hosts h",
        "ambiguous column 'device'; qualify it",
    ),
    ("unknown-alias", "SELECT x.device FROM flows", "unknown table alias 'x'"),
    (
        "aggregate-in-where",
        "SELECT device FROM flows WHERE sum(bytes) > 1",
        "aggregate sum() not allowed in row context",
    ),
    (
        "nested-aggregate",
        "SELECT sum(sum(bytes)) AS s FROM flows",
        "aggregate sum() not allowed in row context",
    ),
    ("sum-without-argument", "SELECT sum() AS s FROM flows", "sum() needs an argument"),
    ("sum-of-star", "SELECT sum(*) AS s FROM flows", "sum() needs an argument"),
    ("unknown-function", "SELECT frob(device) FROM flows", "unknown function 'frob'"),
    (
        "order-by-true",
        "SELECT device FROM flows ORDER BY TRUE",
        "ORDER BY must reference an output column or position",
    ),
    (
        "order-by-out-of-range",
        "SELECT device FROM flows ORDER BY 3",
        "ORDER BY position 3 out of range",
    ),
    (
        "order-by-qualified",
        "SELECT device FROM flows f ORDER BY f.device",
        "ORDER BY must reference an output column or position",
    ),
    ("unknown-table", "SELECT x FROM nosuch", "no such table 'nosuch'"),
    (
        "duplicate-alias",
        "SELECT f.device FROM flows f, hosts f",
        "duplicate table alias 'f'",
    ),
]


class TestErrorContract:
    """A query's errors depend on its text and the schema, never on
    whether rows exist: compilation raises them all."""

    @pytest.mark.parametrize(
        "text,message",
        [case[1:] for case in ERROR_CASES],
        ids=[case[0] for case in ERROR_CASES],
    )
    def test_same_error_empty_and_filled(self, db, text, message):
        db.create_table("hosts", [("device", "varchar"), ("owner", "varchar")], 8)
        with pytest.raises(QueryError) as empty:
            db.query(text)
        db.insert("flows", {"device": "tv", "proto": 6, "bytes": 1})
        db.insert("hosts", {"device": "tv", "owner": "kim"})
        with pytest.raises(QueryError) as filled:
            db.query(text)
        with pytest.raises(QueryError) as compiled:
            compile_select(parse(text), db._tables)
        assert str(empty.value) == str(filled.value) == str(compiled.value) == message

    def test_evaluation_error_cancels_subscription_not_simulator(self):
        """``'tv' + 1`` only fails once a row exists; the subscription is
        cancelled and the simulator runs on.  Over RPC it is a plain
        ``ERROR`` reply, not an internal error."""
        sim = Simulator()
        registry = MetricsRegistry()
        db = HomeworkDatabase(sim.clock, registry=registry)
        db.create_table("flows", SCHEMA, 64)
        db.attach_scheduler(sim)
        text = "SELECT device + 1 AS x FROM flows"
        subscription = db.subscribe(text, 1.0, lambda result: None)
        sim.schedule_at(
            2.5, lambda: db.insert("flows", {"device": "tv", "proto": 6, "bytes": 1})
        )
        sim.run_until(10.0)
        assert sim.now == 10.0
        assert not subscription.active
        assert subscription.executions == 2
        replies = []
        RpcServer(db).handle_datagram(
            f"QUERY {text}".encode(), replies.append
        )
        assert replies[0].startswith(b"ERROR cannot evaluate")
        assert registry.counter("rpc.internal_error_total").value == 0

    def test_evaluation_error_evicts_incremental_state(self, engine, db):
        text = "SELECT sum(device) AS s FROM flows [RANGE 60 SECONDS]"
        assert mode_of(engine, db, text) == MODE_INCREMENTAL
        fill(db, rows=2)
        with pytest.raises(QueryError):
            db.query(text)
        assert engine.cache_info() == []


class TestOptimizer:
    def test_timestamp_predicate_tightens_window(self, db):
        fill(db)
        text = (
            "SELECT device, sum(bytes) AS b FROM flows "
            "WHERE timestamp >= 5.0 GROUP BY device"
        )
        plan = compile_select(parse(text), db._tables)
        assert any("window" in note for note in plan.notes)
        reference = execute_select(parse(text), db._tables, db.now)
        optimized = plan.execute(db._tables, db.now)
        assert optimized.rows == reference.rows

    def test_predicate_pushdown_noted(self, db):
        plan = compile_select(
            parse("SELECT device FROM flows WHERE bytes > 100"), db._tables
        )
        assert any("pushdown" in note for note in plan.notes)

    def test_constant_folding_preserves_results(self, db):
        fill(db)
        text = "SELECT device FROM flows WHERE bytes > 100 + 200"
        plan = compile_select(parse(text), db._tables)
        reference = execute_select(parse(text), db._tables, db.now)
        assert plan.execute(db._tables, db.now).rows == reference.rows


class TestPlanCache:
    def test_cache_hit_on_equivalent_text(self, engine, db):
        fill(db)
        for _ in range(3):
            engine.execute_select(
                parse("SELECT device FROM flows"), db._tables, db.now
            )
        assert len(engine.cache_info()) == 1

    def test_invalidate_on_schema_change(self, engine, db):
        fill(db)
        engine.execute_select(parse("SELECT device FROM flows"), db._tables, db.now)
        assert engine.cache_info()
        db.create_table("other", [("x", "integer")], 8)
        assert engine.cache_info() == []

    def test_subscription_pins_survive_eviction(self, engine, db):
        fill(db)
        pinned = parse("SELECT device, sum(bytes) AS b FROM flows GROUP BY device")
        engine.attach_subscription(pinned)
        engine.execute_select(pinned, db._tables, db.now)
        for i in range(PLAN_CACHE_SIZE + 10):
            engine.execute_select(
                parse(f"SELECT device FROM flows LIMIT {i + 1}"),
                db._tables,
                db.now,
            )
        assert len(engine.cache_info()) <= PLAN_CACHE_SIZE + engine.pinned_count
        texts = [text for text, _ in engine.cache_info()]
        assert any("GROUP BY device" in text for text in texts)
        engine.detach_subscription(pinned)
        assert engine.pinned_count == 0


class TestExplain:
    def test_explain_reports_tier_and_tree(self, db):
        fill(db)
        result = db.query(
            "EXPLAIN SELECT device, sum(bytes) AS b FROM flows "
            "[RANGE 10 SECONDS] GROUP BY device"
        )
        lines = [row[0] for row in result.rows]
        assert result.columns == ["plan"]
        assert any("Mode: incremental" in line for line in lines)
        assert any("Scan" in line for line in lines)

    def test_explain_analyze_includes_row_counts(self, db):
        fill(db)
        result = db.query("EXPLAIN ANALYZE SELECT device, bytes FROM flows [ROWS 5]")
        lines = [row[0] for row in result.rows]
        assert any("rows=" in line for line in lines)


class TestExecutedAt:
    def test_engine_results_stamped(self, db):
        fill(db)
        result = db.query("SELECT device FROM flows")
        assert result.executed_at == db.now

    def test_rpc_roundtrip_preserves_stamp(self, db):
        from repro.hwdb.rpc import pack_resultset, unpack_resultset

        fill(db)
        result = db.query("SELECT device, bytes FROM flows [ROWS 3]")
        assert result.executed_at == db.now
        wire = pack_resultset(result)
        back = unpack_resultset(wire)
        assert back.executed_at == result.executed_at
        assert back.rows == result.rows


class TestMetrics:
    def test_tick_counters_move(self, db):
        fill(db)
        registry = db.registry
        db.query(
            "SELECT device, sum(bytes) AS b FROM flows "
            "[RANGE 10 SECONDS] GROUP BY device"
        )
        db.query("SELECT device FROM flows [ROWS 3]")
        assert registry.counter("query.incremental_tick_total").value == 1
        assert registry.counter("query.full_tick_total").value == 1

    def test_subscription_gauge_and_fire_histogram(self):
        registry = MetricsRegistry()
        db = HomeworkDatabase(SimulatedClock(), registry=registry)
        db.create_table("flows", SCHEMA, 64)
        fill(db)
        subscription = db.subscribe(
            "SELECT device, sum(bytes) AS b FROM flows GROUP BY device",
            interval=1.0,
            callback=lambda result: None,
            start=False,
        )
        assert registry.gauge("hwdb.subscriptions_active").value == 1.0
        subscription.fire()
        assert registry.histogram("hwdb.subscription_fire_seconds").count == 1
        subscription.cancel()
        assert registry.gauge("hwdb.subscriptions_active").value == 0.0
