"""HomeworkDatabase: subscriptions, RPC protocol, persistence sinks."""

import io

import pytest

from repro.core.errors import HwdbError, QueryError, RpcError
from repro.hwdb.cql.executor import ResultSet
from repro.hwdb.database import HomeworkDatabase
from repro.hwdb.persist import CsvSink, JsonLinesSink, MemorySink, render_table
from repro.hwdb.rpc import (
    HwdbClient,
    LocalTransport,
    RpcServer,
    pack_resultset,
    unpack_resultset,
)
from repro.hwdb.schema import install_standard_schema
from repro.sim.simulator import Simulator


@pytest.fixture
def setup():
    sim = Simulator(seed=2)
    db = HomeworkDatabase(sim.clock, default_capacity=128)
    db.attach_scheduler(sim)
    db.create_table("events", [("device", "varchar"), ("value", "integer")])
    return sim, db


class TestDatabase:
    def test_duplicate_table(self, setup):
        _sim, db = setup
        with pytest.raises(HwdbError):
            db.create_table("events", [("x", "integer")])

    def test_drop_table(self, setup):
        _sim, db = setup
        db.drop_table("events")
        assert not db.has_table("events")
        with pytest.raises(HwdbError):
            db.drop_table("events")

    def test_insert_timestamped_with_clock(self, setup):
        sim, db = setup
        sim.run_for(5.0)
        db.insert("events", {"device": "a", "value": 1})
        assert db.query("SELECT timestamp FROM events [NOW]").rows[0][0] == 5.0

    def test_insert_sequence_form(self, setup):
        _sim, db = setup
        db.insert("events", ["tv", 3])
        assert db.query("SELECT device FROM events").rows == [("tv",)]

    def test_standard_schema(self, setup):
        _sim, db = setup
        install_standard_schema(db)
        assert set(db.tables()) >= {"flows", "links", "leases", "dns"}
        # Idempotent.
        install_standard_schema(db)

    def test_stats(self, setup):
        _sim, db = setup
        db.insert("events", ["a", 1])
        stats = db.stats()
        assert stats["inserts"] == 1
        assert stats["rows_retained"] == 1


class TestSubscriptions:
    def test_periodic_delivery(self, setup):
        sim, db = setup
        deliveries = []
        db.subscribe(
            "SELECT count(*) AS n FROM events [RANGE 10 SECONDS]",
            interval=1.0,
            callback=deliveries.append,
        )
        db.insert("events", ["a", 1])
        sim.run_for(3.5)
        assert len(deliveries) == 3
        assert all(d.rows[0][0] >= 1 for d in deliveries)

    def test_empty_results_skipped_by_default(self, setup):
        sim, db = setup
        deliveries = []
        db.subscribe("SELECT * FROM events", interval=1.0, callback=deliveries.append)
        sim.run_for(3.0)
        assert deliveries == []

    def test_deliver_empty_flag(self, setup):
        sim, db = setup
        deliveries = []
        db.subscribe(
            "SELECT * FROM events",
            interval=1.0,
            callback=deliveries.append,
            deliver_empty=True,
        )
        sim.run_for(2.5)
        assert len(deliveries) == 2

    def test_cancel_stops_delivery(self, setup):
        sim, db = setup
        deliveries = []
        db.insert("events", ["a", 1])
        sub = db.subscribe("SELECT * FROM events", 1.0, deliveries.append)
        sim.run_for(1.5)
        sub.cancel()
        sim.run_for(5.0)
        assert len(deliveries) == 1
        assert sub.id not in [s.id for s in db.subscriptions()]

    def test_callback_exception_contained(self, setup):
        sim, db = setup
        db.insert("events", ["a", 1])

        def broken(result):
            raise RuntimeError("subscriber bug")

        sub = db.subscribe("SELECT * FROM events", 1.0, broken)
        sim.run_for(2.0)  # must not raise
        assert sub.executions >= 1

    def test_manual_fire_without_scheduler(self):
        clock_db = HomeworkDatabase(Simulator().clock)
        clock_db.create_table("t", [("x", "integer")])
        clock_db.insert("t", [1])
        seen = []
        sub = clock_db.subscribe("SELECT * FROM t", 1.0, seen.append, start=False)
        sub.fire()
        assert len(seen) == 1

    def test_subscribe_requires_scheduler_when_started(self):
        db = HomeworkDatabase(Simulator().clock)
        db.create_table("t", [("x", "integer")])
        with pytest.raises(HwdbError):
            db.subscribe("SELECT * FROM t", 1.0, lambda r: None)

    def test_subscribe_rejects_non_select(self, setup):
        _sim, db = setup
        with pytest.raises(QueryError):
            db.subscribe("INSERT INTO events VALUES ('x', 1)", 1.0, lambda r: None)

    def test_bad_interval(self, setup):
        _sim, db = setup
        with pytest.raises(HwdbError):
            db.subscribe("SELECT * FROM events", 0.0, lambda r: None)


class TestRpcWireFormat:
    def test_resultset_roundtrip(self):
        result = ResultSet(
            ["a", "b", "c", "d"],
            [(1, 2.5, "text with\ttab", None), (0, -1.25, "line\nbreak", True)],
        )
        restored = unpack_resultset(pack_resultset(result))
        assert restored.columns == result.columns
        assert restored.rows == result.rows

    def test_empty_resultset(self):
        restored = unpack_resultset(pack_resultset(ResultSet(["x"], [])))
        assert restored.columns == ["x"] and restored.rows == []

    def test_bad_token(self):
        with pytest.raises(RpcError):
            unpack_resultset("col\nzz")


class TestRpcServer:
    def test_ping(self, setup):
        _sim, db = setup
        client = HwdbClient(LocalTransport(RpcServer(db)))
        assert client.ping()

    def test_query(self, setup):
        _sim, db = setup
        db.insert("events", ["tv", 9])
        client = HwdbClient(LocalTransport(RpcServer(db)))
        result = client.query("SELECT device, value FROM events")
        assert result.rows == [("tv", 9)]

    def test_query_error_propagates(self, setup):
        _sim, db = setup
        client = HwdbClient(LocalTransport(RpcServer(db)))
        with pytest.raises(RpcError):
            client.query("SELECT * FROM missing_table")

    def test_subscribe_and_push(self, setup):
        sim, db = setup
        client = HwdbClient(LocalTransport(RpcServer(db)))
        pushed = []
        sub_id = client.subscribe("SELECT value FROM events [NOW]", 1.0, pushed.append)
        assert sub_id >= 1
        db.insert("events", ["tv", 5])
        sim.run_for(2.5)
        assert len(pushed) == 2
        assert pushed[0].rows == [(5,)]

    def test_unsubscribe(self, setup):
        sim, db = setup
        client = HwdbClient(LocalTransport(RpcServer(db)))
        pushed = []
        sub_id = client.subscribe("SELECT value FROM events [NOW]", 1.0, pushed.append)
        db.insert("events", ["tv", 5])
        sim.run_for(1.5)
        client.unsubscribe(sub_id)
        sim.run_for(5.0)
        assert len(pushed) == 1

    def test_unsubscribe_unknown(self, setup):
        _sim, db = setup
        client = HwdbClient(LocalTransport(RpcServer(db)))
        with pytest.raises(RpcError):
            client.unsubscribe(999)

    def test_unsubscribe_after_the_database_cancelled_it(self, setup):
        sim, db = setup
        db.create_table("probe", [("v", "integer")])
        server = RpcServer(db)
        client = HwdbClient(LocalTransport(server))
        sub_id = client.subscribe("SELECT v FROM probe", 1.0, lambda result: None)
        db.drop_table("probe")
        sim.run_for(3.0)  # the next fire cannot run its query and cancels
        assert db.subscriptions() == []
        responses = []
        server.handle_datagram(f"UNSUBSCRIBE {sub_id}".encode(), responses.append)
        assert responses == [f"ERROR no subscription {sub_id}".encode()]
        with pytest.raises(RpcError):
            client.unsubscribe(sub_id)
        assert sub_id not in client._push_callbacks

    def test_malformed_requests(self, setup):
        _sim, db = setup
        server = RpcServer(db)
        responses = []
        server.handle_datagram(b"BOGUS", responses.append)
        server.handle_datagram(b"QUERY", responses.append)
        server.handle_datagram(b"SUBSCRIBE nope SELECT 1", responses.append)
        server.handle_datagram(b"\xff\xfe", responses.append)
        assert all(r.startswith(b"ERROR") for r in responses)


class TestPersistence:
    def _result(self):
        return ResultSet(["device", "bytes"], [("tv", 100), ("laptop", 50)], executed_at=3.0)

    def test_csv_sink(self):
        buffer = io.StringIO()
        sink = CsvSink(buffer)
        sink(self._result())
        sink(self._result())
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "delivered_at,device,bytes"
        assert len(lines) == 5  # header + 4 rows
        assert sink.rows_written == 4

    def test_csv_sink_without_time(self):
        buffer = io.StringIO()
        sink = CsvSink(buffer, include_delivery_time=False)
        sink(self._result())
        assert buffer.getvalue().splitlines()[0] == "device,bytes"

    def test_jsonl_sink(self):
        import json

        buffer = io.StringIO()
        sink = JsonLinesSink(buffer)
        sink(self._result())
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert records[0]["device"] == "tv"
        assert records[0]["_delivered_at"] == 3.0

    def test_csv_sink_path_based(self, tmp_path):
        out = tmp_path / "flows.csv"
        sink = CsvSink(out)
        sink(self._result())
        sink.flush()
        assert out.read_text().splitlines()[0] == "delivered_at,device,bytes"
        sink.close()
        # Closed sink reopens in append mode on the next delivery.
        sink(self._result())
        sink.close()
        assert len(out.read_text().strip().splitlines()) == 5  # header + 4 rows

    def test_csv_sink_rotation(self, tmp_path):
        out = tmp_path / "flows.csv"
        sink = CsvSink(out, max_bytes=80)
        for _ in range(6):
            sink(self._result())
        sink.close()
        assert sink.rotations >= 2
        rotated = sorted(tmp_path.glob("flows.csv.*"))
        assert len(rotated) == sink.rotations
        # The live file is absent when the final delivery itself rotated.
        files = rotated + ([out] if out.exists() else [])
        # Every file re-announces the header, and no delivery was split
        # across a rotation boundary.
        for path in files:
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "delivered_at,device,bytes"
            assert (len(lines) - 1) % 2 == 0  # whole deliveries only
        total_rows = sum(len(p.read_text().strip().splitlines()) - 1 for p in files)
        assert total_rows == sink.rows_written == 12

    def test_jsonl_sink_rotation(self, tmp_path):
        import json

        out = tmp_path / "flows.jsonl"
        sink = JsonLinesSink(out, max_bytes=100)
        for _ in range(5):
            sink(self._result())
        sink.close()
        assert sink.rotations >= 1
        files = sorted(tmp_path.glob("flows.jsonl*"))
        rows = []
        for path in files:
            rows.extend(json.loads(line) for line in path.read_text().splitlines())
        assert len(rows) == sink.rows_written == 10
        assert all(r["_delivered_at"] == 3.0 for r in rows)

    def test_rotation_requires_path(self):
        with pytest.raises(ValueError):
            CsvSink(io.StringIO(), max_bytes=100)
        with pytest.raises(ValueError):
            JsonLinesSink("out.jsonl", max_bytes=0)

    def test_memory_sink(self):
        sink = MemorySink(max_deliveries=2)
        for _ in range(3):
            sink(self._result())
        assert len(sink.deliveries) == 2
        assert sink.latest is not None
        assert len(sink.all_rows()) == 4

    def test_render_table(self):
        text = render_table(self._result())
        assert "device" in text and "tv" in text

    def test_render_table_truncation(self):
        result = ResultSet(["n"], [(i,) for i in range(100)])
        text = render_table(result, max_rows=5)
        assert "95 more rows" in text
