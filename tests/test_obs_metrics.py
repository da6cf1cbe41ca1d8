"""The telemetry subsystem: registry, latency histograms, and the hwdb Metrics table.

The tentpole property under test is the dogfooding loop: every
instrument in the registry is periodically flushed into the ``Metrics``
stream table, where it is queryable over CQL, subscribable over the UDP
RPC, and bounded by the ring buffer like any other measurement data.
"""

import pytest

from repro import HomeworkRouter, MetricsRegistry, RouterConfig, Simulator
from repro.hwdb.database import HomeworkDatabase
from repro.hwdb.rpc import HwdbClient, LocalTransport, RpcServer
from repro.hwdb.schema import METRICS_SCHEMA
from repro.hwdb.udp_gateway import RemoteHwdbClient
from repro.obs import MetricsFlusher
from repro.sim.traffic import VideoStreaming, WebBrowsing

from tests.conftest import join_device


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        for value in (0.001, 0.002, 0.004):
            registry.histogram("h").observe(value)
        assert registry.get("c").value == 5
        assert registry.get("g").value == 2.5
        hist = registry.get("h")
        assert hist.count == 3
        assert hist.min == 0.001 and hist.max == 0.004
        assert 0.001 <= hist.percentile(0.50) <= 0.004

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_snapshot_row_shape(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        rows = registry.snapshot()
        assert rows == [("a", "counter", "value", 1.0)]
        # The snapshot shape mirrors the Metrics table schema.
        assert [name for name, _type in METRICS_SCHEMA] == [
            "name", "kind", "field", "value",
        ]

    def test_render_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("hwdb.insert_total").inc(3)
        text = registry.render_text()
        assert "# TYPE hwdb_insert_total counter" in text
        assert "hwdb_insert_total 3" in text


def _flushing_db(interval=1.0):
    sim = Simulator(seed=9)
    db = HomeworkDatabase(sim.clock)
    db.attach_scheduler(sim)
    db.create_table("metrics", METRICS_SCHEMA, 64)
    registry = MetricsRegistry()
    flusher = MetricsFlusher(db, registry, interval=interval)
    flusher.start(sim)
    return sim, db, registry, flusher


class TestFlusher:
    def test_snapshots_published_each_interval(self):
        sim, db, registry, flusher = _flushing_db(interval=1.0)
        registry.counter("demo.events_total").inc()
        sim.run_for(3.5)
        assert registry.value("obs.flush_total") == 3
        result = db.query("SELECT name, field, value FROM metrics")
        assert ("demo.events_total", "value", 1.0) in result.rows

    def test_collectors_refresh_before_snapshot(self):
        sim, db, registry, flusher = _flushing_db(interval=1.0)
        ticks = []
        flusher.add_collector(lambda: registry.gauge("pull.depth").set(len(ticks)))
        flusher.add_collector(lambda: ticks.append(sim.now))
        sim.run_for(2.5)
        assert len(ticks) == 2
        assert registry.get("pull.depth").value == 1.0

    def test_bad_collector_does_not_stop_export(self):
        sim, db, registry, flusher = _flushing_db(interval=1.0)

        def explode():
            raise RuntimeError("collector bug")

        flusher.add_collector(explode)
        registry.counter("still.flows_total").inc()
        sim.run_for(1.5)
        assert registry.value("obs.flush_total") == 1
        assert len(db.table("metrics")) > 0

    def test_raising_collector_before_good_one_is_isolated(self):
        sim, db, registry, flusher = _flushing_db(interval=1.0)
        ran = []

        def explode():
            raise RuntimeError("collector bug")

        flusher.add_collector(explode)
        flusher.add_collector(lambda: ran.append(sim.now))
        sim.run_for(1.5)
        assert ran, "good collector after the raising one never ran"
        assert registry.value("obs.flush_total") == 1
        assert registry.get("obs.collector_error_total").value == 1

    def test_raising_collector_after_good_one_is_isolated(self):
        sim, db, registry, flusher = _flushing_db(interval=1.0)
        ran = []

        def explode():
            raise RuntimeError("collector bug")

        flusher.add_collector(lambda: ran.append(sim.now))
        flusher.add_collector(explode)
        sim.run_for(1.5)
        assert ran, "good collector before the raising one never ran"
        assert registry.value("obs.flush_total") == 1
        assert registry.get("obs.collector_error_total").value == 1
        # The error count itself reaches the Metrics table next flush.
        sim.run_for(1.0)
        result = db.query(
            "SELECT last(value) FROM metrics WHERE name = 'obs.collector_error_total'"
        )
        assert result.scalar() == 2.0

    def test_ring_eviction_bounds_memory(self):
        sim, db, registry, flusher = _flushing_db(interval=1.0)
        # Each flush writes several rows per instrument; a long-running
        # router must stay inside the 64-slot ring regardless.
        for i in range(10):
            registry.counter(f"noise.c{i}_total").inc()
        sim.run_for(30.0)
        table = db.table("metrics")
        assert table.total_inserted > table.capacity
        assert len(table) <= table.capacity == 64

    def test_subscribe_receives_metric_pushes(self):
        sim, db, registry, flusher = _flushing_db(interval=1.0)
        registry.counter("sub.events_total").inc(7)
        client = HwdbClient(LocalTransport(RpcServer(db)))
        pushed = []
        client.subscribe(
            "SELECT name, field, value FROM metrics [RANGE 2 SECONDS]",
            2.0,
            pushed.append,
        )
        sim.run_for(4.5)
        rows = [row for result in pushed for row in result.rows]
        assert ("sub.events_total", "value", 7.0) in rows


class TestRouterTelemetry:
    @pytest.fixture
    def busy_router(self):
        sim = Simulator(seed=31)
        router = HomeworkRouter(
            sim,
            config=RouterConfig(default_permit=True, metrics_flush_interval=2.0),
        )
        router.start()
        laptop = join_device(router, "laptop", "02:aa:00:00:00:01", wireless=True)
        tv = join_device(router, "tv", "02:aa:00:00:00:02")
        WebBrowsing(laptop).start(0.5)
        VideoStreaming(tv).start(1.0)
        sim.run_for(30.0)
        return sim, router

    def test_metrics_table_covers_all_namespaces(self, busy_router):
        _sim, router = busy_router
        client = router.hwdb_client()
        result = client.query(
            "SELECT name, kind, value FROM metrics [RANGE 2 SECONDS]"
        )
        assert result.rows, "flusher published nothing"
        namespaces = {name.split(".")[0] for name, _kind, _value in result.rows}
        assert namespaces >= {"hwdb", "openflow", "dhcp", "dnsproxy"}
        kinds = {kind for _name, kind, _value in result.rows}
        assert kinds >= {"counter", "histogram", "gauge"}

    def test_counters_and_histograms_nonzero(self, busy_router):
        _sim, router = busy_router
        client = router.hwdb_client()
        value_of = lambda name, field: client.query(
            f"SELECT last(value) FROM metrics [RANGE 2 SECONDS] "
            f"WHERE name = '{name}' AND field = '{field}'"
        ).scalar()
        assert value_of("hwdb.insert_total", "value") > 0
        assert value_of("openflow.packet_in_total", "value") > 0
        assert value_of("dhcp.ack_total", "value") > 0
        assert value_of("dnsproxy.query_total", "value") > 0
        assert value_of("openflow.flow_setup_sim_seconds", "count") > 0

    def test_http_endpoint_serves_same_snapshot(self, busy_router):
        _sim, router = busy_router
        response = router.control_api.request("GET", "/metrics")
        assert response.status == 200
        assert response.headers["content-type"].startswith("text/plain")
        body = response.body.decode("utf-8")
        assert "# TYPE hwdb_insert_total counter" in body
        assert "openflow_flow_setup_sim_seconds_count" in body
        # The exposition agrees with the live registry value.
        inserts = router.metrics.get("hwdb.insert_total").value
        assert f"hwdb_insert_total {inserts}" in body

    def test_metrics_queryable_over_udp_rpc(self, busy_router):
        """The acceptance path: QUERY against Metrics as UDP datagrams."""
        sim, router = busy_router
        gateway_ip = router.enable_rpc_gateway()
        station = join_device(router, "station", "02:aa:00:00:00:08")
        client = RemoteHwdbClient(station, gateway_ip)
        results = []
        client.query(
            "SELECT name, kind, field, value FROM metrics [RANGE 2 SECONDS]",
            lambda result, error: results.append((result, error)),
        )
        sim.run_for(1.0)
        assert results, "no RPC response arrived"
        result, error = results[0]
        assert error is None
        namespaces = {row[0].split(".")[0] for row in result.rows}
        assert namespaces >= {"hwdb", "openflow", "dhcp", "dnsproxy"}
        kinds = {row[1] for row in result.rows}
        assert {"counter", "histogram"} <= kinds

    def test_flush_interval_knob(self):
        with pytest.raises(Exception):
            RouterConfig(metrics_flush_interval=0)
        config = RouterConfig(metrics_flush_interval=0.5)
        assert config.metrics_flush_interval == 0.5

    def test_hot_paths_emit_spans(self, busy_router):
        """Controller dispatch and hwdb queries each feed one histogram."""
        _sim, router = busy_router
        assert router.metrics.get("openflow.packet_in_seconds").count > 0
        queries = router.metrics.get("hwdb.query_seconds").count
        router.hwdb_client().query("SELECT name FROM metrics [RANGE 2 SECONDS]")
        assert router.metrics.get("hwdb.query_seconds").count == queries + 1
        names = {metric.name for metric in router.metrics.metrics()}
        assert not any(name.startswith("span.") for name in names)
        assert "hwdb.subscription_fire_seconds" not in names
        assert "obs.span_dropped_total" not in names

    def test_store_group_commit_runs_in_span(self, tmp_path):
        sim = Simulator(seed=5)
        router = HomeworkRouter(
            sim,
            RouterConfig(
                default_permit=True,
                durable_store=True,
                store_dir=str(tmp_path / "store"),
            ),
        )
        router.start()
        join_device(router, "tv", "02:aa:00:00:00:02")
        sim.run_for(5.0)
        router.store.flush()
        assert router.metrics.get("store.group_commit_seconds").count > 0
        router.stop()

    def test_port_gauges_reflect_traffic(self, busy_router):
        _sim, router = busy_router
        router.metrics_flusher.flush()
        gauges = [
            metric
            for metric in router.metrics.metrics()
            if metric.name.startswith("router.port.") and metric.name.endswith("rx_bytes")
        ]
        assert gauges and any(g.value > 0 for g in gauges)


#: The datapath's cache-hit ratio over the last ten minutes, from the
#: Metrics table alone: counters are cumulative, so the ratio is the rise
#: in hits over the rise in packets between the first and last flush in
#: the window.  Both rows of one flush share its timestamp.
CACHE_HIT_RATIO_10_MIN = (
    "SELECT (last(h.value) - first(h.value)) / (last(p.value) - first(p.value)) "
    "AS cache_hit_ratio "
    "FROM metrics [RANGE 10 MINUTES] AS h, metrics [RANGE 10 MINUTES] AS p "
    "WHERE h.timestamp = p.timestamp "
    "AND h.name = 'openflow.cache_hit_total' AND p.name = 'openflow.packet_total'"
)


class TestRegistryIsTheOnlyStore:
    def test_cache_hit_ratio_over_ten_minutes_is_one_query(self):
        sim = Simulator(seed=41)
        # A 30 s flush keeps ten minutes of snapshots inside the ring.
        router = HomeworkRouter(
            sim, RouterConfig(default_permit=True, metrics_flush_interval=30.0)
        )
        router.start()
        seen = []
        # Collectors run right before each snapshot: record what it holds.
        router.metrics_flusher.add_collector(
            lambda: seen.append(
                (
                    sim.now,
                    router.metrics.value("openflow.cache_hit_total"),
                    router.metrics.value("openflow.packet_total"),
                )
            )
        )
        laptop = join_device(router, "laptop", "02:aa:00:00:00:05")
        WebBrowsing(laptop).start(0.5)
        sim.run_until(700.0)

        ratio = router.db.query(CACHE_HIT_RATIO_10_MIN).scalar()

        window = [record for record in seen if record[0] >= sim.now - 600.0]
        (_t0, hits0, packets0), (_t1, hits1, packets1) = window[0], window[-1]
        assert ratio == pytest.approx((hits1 - hits0) / (packets1 - packets0))
        assert 0.5 < ratio < 1.0

    def test_stats_are_the_registry(self):
        sim = Simulator(seed=42)
        router = HomeworkRouter(sim, RouterConfig(default_permit=True))
        router.start()
        join_device(router, "tv", "02:aa:00:00:00:02")
        sim.run_for(5.0)
        stats = router.stats()
        for metric in router.metrics.metrics():
            subsystem, _, name = metric.name.partition(".")
            if metric.kind == "histogram":
                assert name not in stats.get(subsystem, {})
            else:
                assert stats[subsystem][name] == metric.value
        assert stats["dhcp"]["ack_total"] == 1
        assert stats["dhcp"]["lease_entries"] == 1

    def test_standalone_components_count_into_their_own_registry(self):
        sim = Simulator(seed=43)
        db = HomeworkDatabase(sim.clock)
        db.create_table("metrics", METRICS_SCHEMA, 16)
        db.insert("metrics", {"name": "x", "kind": "counter", "field": "value", "value": 1.0})
        db.query("INSERT INTO metrics VALUES ('y', 'counter', 'value', 2.0)")
        db.query("SELECT name FROM metrics")
        # Both write paths count as inserts; every statement is a query.
        assert db.registry.value("hwdb.insert_total") == 2
        assert db.registry.value("hwdb.query_total") == 2
        assert db.registry.histogram("hwdb.query_seconds").count == 1
