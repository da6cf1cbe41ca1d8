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
from repro.hwdb.cql.ast_nodes import Select
from repro.hwdb.cql.parser import parse
from repro.hwdb.cql.unparse import unparse
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

    @pytest.mark.parametrize(
        "request_text",
        [
            "SUBSCRIBE 0 SELECT device FROM flows",
            "QUERY INSERT INTO nosuch VALUES (1)",
            "QUERY CREATE TABLE flows (x int)",
        ],
        ids=["zero-interval", "insert-unknown-table", "create-existing-table"],
    )
    def test_client_faults_are_not_internal_errors(self, request_text):
        """An hwdb error the request caused is a plain ``ERROR`` reply:
        no traceback, no internal-error count."""
        registry = MetricsRegistry()
        db = HomeworkDatabase(SimulatedClock(), registry=registry)
        db.create_table("flows", SCHEMA, 64)
        replies = []
        RpcServer(db).handle_datagram(request_text.encode(), replies.append)
        assert replies[0].startswith(b"ERROR ")
        assert b"internal" not in replies[0]
        assert registry.counter("rpc.internal_error_total").value == 0

    @pytest.mark.parametrize("interval", ["nan", "1e-300"])
    def test_subscribe_interval_that_cannot_advance_time_is_refused(self, interval):
        """A NaN interval, or one too small to add to the clock, would
        fire forever at one instant; the reply is an error before the
        simulator ever runs."""
        sim = Simulator()
        sim.run_for(1.0)  # 1.0 + 1e-300 == 1.0
        db = HomeworkDatabase(sim.clock)
        db.create_table("t", [("x", "integer")], 8)
        db.attach_scheduler(sim)
        replies = []
        RpcServer(db).handle_datagram(
            f"SUBSCRIBE {interval} SELECT x FROM t".encode(), replies.append
        )
        assert replies[0].startswith(b"ERROR subscription interval")
        assert db.subscriptions() == []
        sim.run_for(1.0)
        assert sim.now == 2.0

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


def dump(node):
    """Every attribute of an AST, recursively: a structural fingerprint
    (``repr`` alone is shallow for most nodes)."""
    if isinstance(node, (list, tuple)):
        return tuple(dump(item) for item in node)
    if type(node).__module__ != "repro.hwdb.cql.ast_nodes":
        return repr(node)
    names = list(getattr(type(node), "__slots__", ())) + sorted(
        getattr(node, "__dict__", {})
    )
    return (type(node).__name__, repr(node)) + tuple(
        (name, dump(getattr(node, name))) for name in names
    )


MUTATION_CASES = [
    ("plan-tier", "SELECT device, bytes FROM flows [ROWS 5]"),
    (
        "incremental-tier",
        "SELECT device, sum(bytes) AS b FROM flows [RANGE 10 SECONDS] "
        "GROUP BY device HAVING count(*) > 0",
    ),
    (
        "join",
        "SELECT f.device, h.owner, timestamp FROM flows f, hosts h "
        "WHERE f.device = h.device AND f.bytes > 100 AND timestamp >= 2",
    ),
    ("star", "SELECT * FROM flows WHERE timestamp > 3 AND 1 + 1 = 2"),
    ("star-join", "SELECT * FROM flows f, hosts h WHERE f.device = h.device"),
    (
        "order-limit",
        "SELECT device, bytes FROM flows ORDER BY bytes DESC LIMIT 3",
    ),
    (
        "explain",
        "EXPLAIN SELECT device, sum(bytes) AS b FROM flows [RANGE 10 SECONDS] "
        "GROUP BY device",
    ),
    (
        "explain-analyze",
        "EXPLAIN ANALYZE SELECT device, bytes FROM flows "
        "WHERE bytes > 500 ORDER BY 2 LIMIT 4",
    ),
]


class TestStatementMap:
    """The engine parses a SELECT or EXPLAIN text once and hands every
    later call the same AST, so nothing may mutate it."""

    @pytest.fixture
    def joined(self, db):
        db.create_table("hosts", [("device", "varchar"), ("owner", "varchar")], 8)
        for device, owner in (("dev0", "kim"), ("dev1", "lee")):
            db._clock.advance(0.5)
            db.insert("hosts", {"device": device, "owner": owner})
        fill(db)
        return db

    @pytest.mark.parametrize(
        "text",
        [case[1] for case in MUTATION_CASES],
        ids=[case[0] for case in MUTATION_CASES],
    )
    def test_cached_statement_is_never_mutated(self, joined, text):
        """Dump the statement as parsed, before anything runs it; then
        query, fire and recompile it (invalidation) a few times."""
        db = joined
        statement, key = db._engine.parse(text)
        before = (unparse(statement), dump(statement))
        subscription = None
        if isinstance(statement, Select):
            subscription = db.subscribe(text, 1.0, lambda result: None, start=False)
            assert subscription.select is statement
        for _ in range(3):
            fill(db, 5)
            db.query(text)
            if subscription is not None:
                assert subscription.fire() is not None
            db._engine.invalidate()
        assert db._engine._statements[text] == (statement, key)
        assert (unparse(statement), dump(statement)) == before

    def test_repeated_text_lexes_once_and_unparses_once(self, db, monkeypatch):
        import repro.hwdb.cql.parser as parser_module
        import repro.query.engine as engine_module

        lexed, unparsed = [], []
        real_tokenize, real_unparse = parser_module.tokenize, engine_module.unparse

        def counting_tokenize(text):
            lexed.append(text)
            return real_tokenize(text)

        def counting_unparse(statement):
            unparsed.append(statement)
            return real_unparse(statement)

        monkeypatch.setattr(parser_module, "tokenize", counting_tokenize)
        monkeypatch.setattr(engine_module, "unparse", counting_unparse)
        fill(db)
        text = "SELECT device, bytes FROM flows [RANGE 10 SECONDS]"
        first = db.query(text).rows
        assert lexed == [text] and len(unparsed) == 1
        for _ in range(9):
            assert db.query(text).rows == first
        assert lexed == [text] and len(unparsed) == 1

    def test_map_holds_at_most_plan_cache_size_texts(self, db):
        texts = [
            f"SELECT device FROM flows [RANGE {i + 1} SECONDS]"
            for i in range(PLAN_CACHE_SIZE + 20)
        ]
        for text in texts:
            db.query(text)
        held = list(db._engine._statements)
        assert held == texts[-PLAN_CACHE_SIZE:]

    def test_least_recently_used_text_leaves_first(self, db):
        texts = [f"SELECT device FROM flows LIMIT {i + 1}" for i in range(PLAN_CACHE_SIZE)]
        for text in texts:
            db.query(text)
        db.query(texts[0])
        db.query("SELECT bytes FROM flows")
        assert texts[0] in db._engine._statements
        assert texts[1] not in db._engine._statements

    def test_unparseable_text_raises_every_time(self, db):
        for _ in range(3):
            with pytest.raises(QueryError, match="expected"):
                db.query("SELECT FROM flows")
        assert not db._engine._statements

    def test_insert_and_create_are_never_stored(self, db):
        for _ in range(2):
            db.query("INSERT INTO flows VALUES ('tv', 6, 1)")
        db.query("CREATE TABLE other (x int)")
        assert not db._engine._statements
        assert len(db.table("flows")) == 2


class TestBoundProjections:
    """A projection of bare columns is bound to row positions at compile
    time; the reference executor still resolves every name per row."""

    def assert_same_as_reference(self, db, text):
        result = db.query(text)
        reference = execute_select(parse(text), db._tables, db.now)
        assert result.columns == reference.columns
        assert [[(type(v), v) for v in row] for row in result.rows] == [
            [(type(v), v) for v in row] for row in reference.rows
        ]
        return result

    def test_join_projects_first_source_timestamp_and_qualified_column(self, db):
        db.create_table("hosts", [("device", "varchar"), ("owner", "varchar")], 8)
        fill(db)
        for device, owner in (("dev0", "kim"), ("dev2", "lee")):
            db._clock.advance(0.5)
            db.insert("hosts", {"device": device, "owner": owner})
        text = (
            "SELECT timestamp, h.owner, f.bytes, h.timestamp FROM flows f, hosts h "
            "WHERE f.device = h.device"
        )
        project = compile_select(parse(text), db._tables).root
        assert project.kind == "project" and project.bound is not None
        result = self.assert_same_as_reference(db, text)
        assert len(result.rows) == 13
        assert all(row[0] < row[3] for row in result.rows)

    def test_expression_projection_keeps_the_evaluator(self, db):
        project = compile_select(
            parse("SELECT device, bytes + 1 AS b FROM flows"), db._tables
        ).root
        assert project.kind == "project" and project.bound is None

    def test_star_over_a_table_with_a_store(self, db, tmp_path):
        from repro.store import DurableStore

        store = DurableStore(
            str(tmp_path / "store"),
            db._clock,
            flush_interval=0.5,
            group_records=4,
            segment_rows=4,
        )
        db.drop_table("flows")
        db.create_table("flows", SCHEMA, 8)
        store.attach(db)
        fill(db, 40)
        result = self.assert_same_as_reference(db, "SELECT * FROM flows")
        assert len(result.rows) == 40  # the 8-row ring plus the archive
        store.close()


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
        assert registry.histogram("hwdb.query_seconds").count == 1
        subscription.cancel()
        assert registry.gauge("hwdb.subscriptions_active").value == 0.0

    def test_each_select_is_timed_once(self, db):
        """One SELECT, ad hoc or fired, is one sample across all histograms."""
        fill(db)
        registry = db.registry

        def samples():
            return sum(
                metric.count
                for metric in registry.metrics()
                if metric.kind == "histogram"
            )

        before = samples()
        db.query("SELECT device, sum(bytes) AS b FROM flows GROUP BY device")
        assert samples() == before + 1
        subscription = db.subscribe(
            "SELECT device FROM flows [ROWS 3]",
            interval=1.0,
            callback=lambda result: None,
            start=False,
        )
        before = samples()
        subscription.fire()
        assert samples() == before + 1
