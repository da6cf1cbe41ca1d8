"""Incremental-tier edge cases: empty rings, wrap-around, overwrites.

The window shapes where incremental state maintenance is easiest to get
wrong.  Every test runs the database's own engine and the reference
executor over the same rings at the same instant and demands
bit-identical results — the same oracle the fuzzer uses, aimed at the
corners a random workload might miss.
"""

import pytest

from repro.check.cql_reference import execute_select
from repro.core.clock import SimulatedClock
from repro.hwdb.cql.parser import parse
from repro.hwdb.database import HomeworkDatabase
from repro.query.incremental import NotIncremental, build_incremental
from repro.query.plan import compile_select

SCHEMA = [("device", "varchar"), ("bytes", "integer")]


def make_db(capacity=8):
    db = HomeworkDatabase(SimulatedClock())
    db.create_table("flows", SCHEMA, capacity)
    return db


def fingerprint(result):
    return (
        tuple(result.columns),
        tuple(
            tuple((type(v).__name__, repr(v)) for v in row) for row in result.rows
        ),
        result.executed_at,
    )


def assert_identical(db, text):
    """Engine output must match the reference executor's, types included."""
    statement = parse(text)
    expected = fingerprint(execute_select(statement, db._tables, db.now))
    actual = fingerprint(db.execute_parsed(statement))
    assert actual == expected, text


AGG = "SELECT device, sum(bytes) AS b, avg(bytes) AS a FROM flows {window}GROUP BY device"


class TestEmptyRing:
    @pytest.mark.parametrize(
        "window", ["", "[SINCE 5.0] ", "[ROWS 4] ", "[RANGE 10 SECONDS] ", "[NOW] "]
    )
    def test_aggregate_over_empty_ring(self, window):
        db = make_db()
        assert_identical(db, AGG.format(window=window))

    @pytest.mark.parametrize("window", ["[SINCE 2.0] ", "[ROWS 3] "])
    def test_window_drains_to_empty_then_refills(self, window):
        """A ring that empties (all rows beyond the window) and refills
        must not strand stale incremental groups."""
        db = make_db()
        text = "SELECT device, sum(bytes) AS b FROM flows [RANGE 3 SECONDS] GROUP BY device"
        db._clock.advance(1.0)
        db.insert("flows", {"device": "a", "bytes": 10})
        assert_identical(db, text)
        db._clock.advance(60.0)  # everything ages out of the window
        assert_identical(db, text)
        db.insert("flows", {"device": "b", "bytes": 20})
        assert_identical(db, text)
        assert_identical(db, AGG.format(window=window))


class TestRingWrapAround:
    def test_window_spans_wrap_point(self):
        """More inserts than capacity: the retained rows straddle the
        ring's physical wrap and the window covers all of them."""
        db = make_db(capacity=8)
        text = "SELECT device, sum(bytes) AS b, count(*) AS n FROM flows GROUP BY device"
        for i in range(20):  # 2.5 laps of the ring
            db._clock.advance(0.5)
            db.insert("flows", {"device": f"dev{i % 3}", "bytes": i * 7})
            assert_identical(db, text)
        assert db.table("flows").overwritten == 12

    def test_since_window_vs_wrap(self):
        db = make_db(capacity=8)
        text = "SELECT device, sum(bytes) AS b FROM flows [SINCE 4.0] GROUP BY device"
        for i in range(30):
            db._clock.advance(0.4)
            db.insert("flows", {"device": f"dev{i % 2}", "bytes": 100 + i})
            assert_identical(db, text)


class TestOverwrittenUnconsumedRows:
    def test_burst_overwrites_rows_between_ticks(self):
        """A burst larger than the ring between two subscription fires:
        rows the incremental state never saw are gone.  The watermark
        jump must match what a from-scratch recompute sees."""
        db = make_db(capacity=8)
        text = "SELECT device, sum(bytes) AS b FROM flows [RANGE 60 SECONDS] GROUP BY device"
        db._clock.advance(1.0)
        db.insert("flows", {"device": "a", "bytes": 1})
        assert_identical(db, text)
        # 25 inserts into an 8-slot ring: the engine's next delta scan
        # can only ever see the 8 survivors.
        for i in range(25):
            db._clock.advance(0.1)
            db.insert("flows", {"device": f"dev{i % 4}", "bytes": 1000 + i})
        assert_identical(db, text)
        assert_identical(db, text)  # steady state after the burst

    def test_eviction_of_ring_overwritten_entries(self):
        """Rows ingested into incremental state and *then* overwritten
        in the ring must leave the state too (seq-based eviction)."""
        db = make_db(capacity=4)
        text = "SELECT sum(bytes) AS b, first(device) AS d FROM flows"
        for i in range(12):
            db._clock.advance(1.0)
            db.insert("flows", {"device": f"dev{i}", "bytes": 2 ** i})
            assert_identical(db, text)


class TestStateLifecycle:
    def test_table_recreation_resets_state(self):
        db = make_db()
        text = "SELECT device, sum(bytes) AS b FROM flows GROUP BY device"
        db._clock.advance(1.0)
        db.insert("flows", {"device": "a", "bytes": 5})
        assert_identical(db, text)
        db.drop_table("flows")
        db.create_table("flows", SCHEMA, 8)
        db.insert("flows", {"device": "z", "bytes": 9})
        assert_identical(db, text)

    def test_state_counters_expose_activity(self):
        db = make_db(capacity=8)
        plan = compile_select(
            parse("SELECT device, sum(bytes) AS b FROM flows "
                  "[RANGE 2 SECONDS] GROUP BY device"),
            db._tables,
        )
        state = build_incremental(plan)
        for i in range(10):
            db._clock.advance(1.0)
            db.insert("flows", {"device": "a", "bytes": i})
            state.tick(db._tables, db.now)
        assert state.ticks == 10
        assert state.rows_ingested == 10
        assert state.rows_evicted > 0
        assert state.watermark == db.table("flows").total_inserted

    def test_non_incrementalizable_shapes_refused(self):
        db = make_db()
        db._clock.advance(1.0)
        db.insert("flows", {"device": "a", "bytes": 5})
        for text in (
            "SELECT device, bytes FROM flows",  # not aggregated
            "SELECT device, count(*) AS n FROM flows [ROWS 3] GROUP BY device",
            "SELECT device, count(*) AS n FROM flows [NOW] GROUP BY device",
            # now() in a WHERE conjunct re-evaluates per tick: the rows
            # already ingested would have been filtered under a
            # different clock, so the shape cannot be incremental.
            "SELECT device, count(*) AS n FROM flows "
            "WHERE timestamp > now() - 5 GROUP BY device",
        ):
            plan = compile_select(parse(text), db._tables)
            with pytest.raises(NotIncremental):
                build_incremental(plan)


class TestSubscriptionDelivery:
    def test_subscription_identical_to_legacy_over_many_ticks(self):
        """The headline behaviour: a Figure-1 subscription fired across
        churn, wrap and quiet periods never differs from the reference
        executor run at the same instant."""
        db = make_db(capacity=16)
        text = (
            "SELECT device, sum(bytes) AS b FROM flows [RANGE 5 SECONDS] "
            "GROUP BY device ORDER BY b DESC"
        )
        results = []
        subscription = db.subscribe(
            text, 1.0, results.append, deliver_empty=True, start=False
        )
        expected = []
        for tick in range(40):
            if tick < 25:  # then a quiet tail drains the window
                for j in range(tick % 5):
                    db.insert("flows", {"device": f"dev{j % 3}", "bytes": tick * 10 + j})
            db._clock.advance(1.0)
            subscription.fire()
            expected.append(fingerprint(execute_select(parse(text), db._tables, db.now)))
        assert [fingerprint(r) for r in results] == expected
        assert len(results) == 40
        assert db._engine.cache_info()[0][1] == "incremental"
