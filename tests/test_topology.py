"""Household topology builder + SELECT DISTINCT."""

from repro.core.clock import SimulatedClock
from repro.hwdb.cql import parse, unparse
from repro.hwdb.database import HomeworkDatabase
from repro.household import build_household
from repro.sim.topology import DeviceSpec


class TestHouseholdBuilder:
    def test_standard_household_joins(self):
        household = build_household(seed=601, start_traffic=False)
        assert len(household.hosts) == 4
        assert all(h.ip is not None for h in household.hosts.values())

    def test_workloads_attached_by_class(self):
        household = build_household(seed=602)
        # laptop gets 2 generators, tv 1, workstation 2, iot 1.
        assert len(household.generators) == 6
        household.sim.run_for(15.0)
        started = sum(g.sessions_started for g in household.generators)
        assert started > 0
        household.stop_traffic()
        after = sum(g.sessions_started for g in household.generators)
        household.sim.run_for(30.0)
        assert sum(g.sessions_started for g in household.generators) == after

    def test_custom_spec(self):
        specs = [
            DeviceSpec("solo", "02:dd:00:00:00:01", "phone", wireless=True, position=(2, 2)),
        ]
        household = build_household(specs, seed=603)
        assert list(household.hosts) == ["solo"]
        assert household.host("solo").ip is not None
        assert len(household.generators) == 1  # phone -> WebBrowsing

    def test_traffic_reaches_hwdb(self):
        household = build_household(seed=604)
        household.sim.run_for(20.0)
        total = household.router.db.query(
            "SELECT sum(bytes) FROM flows"
        ).scalar()
        assert (total or 0) > 0


class TestSelectDistinct:
    def _db(self):
        clock = SimulatedClock()
        db = HomeworkDatabase(clock)
        db.create_table("t", [("device", "varchar"), ("value", "integer")])
        for device, value in [("a", 1), ("a", 1), ("a", 2), ("b", 1), ("b", 1)]:
            clock.advance(1.0)
            db.insert("t", [device, value])
        return db

    def test_distinct_single_column(self):
        db = self._db()
        result = db.query("SELECT DISTINCT device FROM t ORDER BY device")
        assert result.rows == [("a",), ("b",)]

    def test_distinct_tuples(self):
        db = self._db()
        result = db.query("SELECT DISTINCT device, value FROM t")
        assert len(result.rows) == 3

    def test_distinct_with_limit(self):
        db = self._db()
        result = db.query("SELECT DISTINCT device FROM t LIMIT 1")
        assert len(result.rows) == 1

    def test_non_distinct_keeps_duplicates(self):
        db = self._db()
        assert len(db.query("SELECT device FROM t").rows) == 5

    def test_distinct_unparse_roundtrip(self):
        statement = parse("SELECT DISTINCT device FROM t")
        rendered = unparse(statement)
        assert "DISTINCT" in rendered
        assert parse(rendered).distinct
