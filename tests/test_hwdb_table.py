"""Ring-buffer stream table tests, including hypothesis invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clock import SimulatedClock
from repro.core.errors import HwdbError
from repro.hwdb.database import HomeworkDatabase
from repro.hwdb.schema import STANDARD_TABLES, install_standard_schema
from repro.hwdb.snapshot import database_digests, table_digest
from repro.hwdb.table import Column, StreamTable
from repro.hwdb.types import INTEGER, MACADDR, REAL, VARCHAR, type_by_name


def make_table(capacity=8):
    return StreamTable(
        "events",
        [Column("device", VARCHAR), Column("value", INTEGER)],
        capacity=capacity,
    )


class TestSchema:
    def test_column_names(self):
        table = make_table()
        assert table.column_names() == ["device", "value"]

    def test_reserved_timestamp_column(self):
        with pytest.raises(HwdbError):
            StreamTable("t", [Column("timestamp", REAL)])

    def test_duplicate_column(self):
        with pytest.raises(HwdbError):
            StreamTable("t", [Column("a", REAL), Column("a", INTEGER)])

    def test_bad_capacity(self):
        with pytest.raises(HwdbError):
            StreamTable("t", [Column("a", REAL)], capacity=0)

    def test_column_position(self):
        table = make_table()
        assert table.column_position("value") == 1
        with pytest.raises(HwdbError):
            table.column_position("missing")

    def test_has_column_includes_timestamp(self):
        assert make_table().has_column("timestamp")

    def test_type_registry(self):
        assert type_by_name("int") is INTEGER
        assert type_by_name("MAC") is MACADDR
        with pytest.raises(HwdbError):
            type_by_name("blob")


class TestInsert:
    def test_coercion(self):
        table = make_table()
        row = table.insert(1.0, ["laptop", "42"])
        assert row.values == ("laptop", 42)

    def test_bad_coercion(self):
        with pytest.raises(HwdbError):
            make_table().insert(1.0, ["laptop", "not-a-number"])

    def test_wrong_arity(self):
        with pytest.raises(HwdbError):
            make_table().insert(1.0, ["only-one"])

    def test_insert_dict(self):
        table = make_table()
        row = table.insert_dict(1.0, {"device": "tv", "value": 7})
        assert row.values == ("tv", 7)

    def test_insert_dict_missing_key(self):
        with pytest.raises(HwdbError):
            make_table().insert_dict(1.0, {"device": "tv"})

    def test_timestamps_monotone_clamped(self):
        table = make_table()
        table.insert(5.0, ["a", 1])
        row = table.insert(3.0, ["b", 2])  # out of order: clamped
        assert row.timestamp == 5.0

    def test_mac_column_normalised(self):
        table = StreamTable("t", [Column("mac", MACADDR)])
        row = table.insert(0.0, ["02-AA-00-00-00-01"])
        assert row.values[0] == "02:aa:00:00:00:01"


class TestRingBehaviour:
    def test_wraps_at_capacity(self):
        table = make_table(capacity=4)
        for i in range(10):
            table.insert(float(i), [f"d{i}", i])
        assert len(table) == 4
        values = [row.values[1] for row in table.rows()]
        assert values == [6, 7, 8, 9]
        assert table.total_inserted == 10
        assert table.overwritten == 6

    def test_oldest_newest(self):
        table = make_table(capacity=3)
        for i in range(5):
            table.insert(float(i), [f"d{i}", i])
        assert table.oldest().values[1] == 2
        assert table.newest().values[1] == 4

    def test_empty_table(self):
        table = make_table()
        assert list(table.rows()) == []
        assert table.newest() is None
        assert table.oldest() is None
        assert table.last_rows(5) == []

    def test_rows_since(self):
        table = make_table(capacity=16)
        for i in range(10):
            table.insert(float(i), [f"d{i}", i])
        assert [r.values[1] for r in table.rows_since(7.0)] == [7, 8, 9]

    def test_last_rows(self):
        table = make_table(capacity=16)
        for i in range(10):
            table.insert(float(i), [f"d{i}", i])
        assert [r.values[1] for r in table.last_rows(3)] == [7, 8, 9]
        assert len(table.last_rows(100)) == 10

    def test_clear(self):
        table = make_table()
        table.insert(0.0, ["a", 1])
        table.clear()
        assert len(table) == 0

    def test_row_as_dict(self):
        table = make_table()
        row = table.insert(2.5, ["tv", 9])
        assert table.row_as_dict(row) == {"timestamp": 2.5, "device": "tv", "value": 9}

    @settings(max_examples=50)
    @given(
        st.integers(min_value=1, max_value=32),
        st.lists(st.integers(min_value=0, max_value=1000), max_size=100),
    )
    def test_ring_invariants(self, capacity, values):
        """Retained rows are always the most recent min(n, capacity)."""
        table = StreamTable("t", [Column("v", INTEGER)], capacity=capacity)
        for i, value in enumerate(values):
            table.insert(float(i), [value])
        retained = [row.values[0] for row in table.rows()]
        expected = values[-min(len(values), capacity):]
        assert retained == expected
        assert len(table) == min(len(values), capacity)
        assert table.total_inserted == len(values)
        # Timestamps are non-decreasing.
        stamps = [row.timestamp for row in table.rows()]
        assert stamps == sorted(stamps)


class _RecordingSpill:
    """Duck-typed spill hook that records every callback in order."""

    def __init__(self):
        self.calls = []

    def on_evict(self, table, seq, row):
        self.calls.append(("evict", seq, row.values[0], len(table)))

    def on_append(self, table, seq, row):
        self.calls.append(("append", seq, row.values[0], len(table)))

    def on_clear(self, table):
        self.calls.append(("clear", table.total_inserted, None, len(table)))


class TestSpillHooks:
    def test_eviction_callback_ordering(self):
        """evict(seq=k) fires before the append that displaces row k,
        with the victim still counted in the ring; append sees the new
        row already inserted."""
        table = make_table(capacity=3)
        spill = _RecordingSpill()
        table.spill = spill
        for i in range(5):
            table.insert(float(i), [f"d{i}", i])
        assert spill.calls == [
            ("append", 1, "d0", 1),
            ("append", 2, "d1", 2),
            ("append", 3, "d2", 3),
            ("evict", 1, "d0", 3),   # victim still retained at hook time
            ("append", 4, "d3", 3),
            ("evict", 2, "d1", 3),
            ("append", 5, "d4", 3),
        ]

    def test_evicted_seqs_are_gapless(self):
        table = make_table(capacity=4)
        spill = _RecordingSpill()
        table.spill = spill
        for i in range(50):
            table.insert(float(i), [f"d{i}", i])
        evicted = [seq for kind, seq, *_ in spill.calls if kind == "evict"]
        assert evicted == list(range(1, 50 - 4 + 1))
        assert table.overwritten == len(evicted)

    def test_clear_fires_before_reset(self):
        table = make_table(capacity=4)
        spill = _RecordingSpill()
        table.spill = spill
        table.insert(0.0, ["a", 1])
        table.insert(0.0, ["b", 2])
        table.clear()
        # on_clear observed both retained rows (len(table) == 2).
        assert spill.calls[-1] == ("clear", 2, None, 2)
        assert len(table) == 0
        # total_inserted survives clear; the next insert gets seq 3.
        table.insert(1.0, ["c", 3])
        assert spill.calls[-1] == ("append", 3, "c", 1)

    def test_rows_with_seq_since_under_burst_overwrite(self):
        """A burst that wraps the ring several times: the watermark scan
        returns only what the ring retains, seqs stay consistent with
        the eviction stream."""
        table = make_table(capacity=4)
        spill = _RecordingSpill()
        table.spill = spill
        table.insert(0.0, ["x0", 0])
        watermark = table.append_seq
        assert watermark == 1
        for i in range(1, 11):  # 10 more inserts, ring wraps twice
            table.insert(float(i), [f"x{i}", i])
        delta = table.rows_with_seq_since(watermark)
        assert [seq for seq, _row in delta] == [8, 9, 10, 11]
        assert [row.values[0] for _seq, row in delta] == ["x7", "x8", "x9", "x10"]
        # Everything the delta scan can no longer see was offered to the
        # spill hook: evicted seqs + retained seqs == full history.
        evicted = [seq for kind, seq, *_ in spill.calls if kind == "evict"]
        retained = [seq for seq, _row in table.rows_with_seq_since(0)]
        assert evicted + retained == list(range(1, table.total_inserted + 1))

    def test_no_spill_hook_means_no_overhead_paths(self):
        table = make_table(capacity=2)
        for i in range(5):
            table.insert(float(i), [f"d{i}", i])
        assert table.overwritten == 3  # plain ring behaviour untouched


def filled_table(rows, capacity=8):
    table = make_table(capacity)
    for timestamp, value in rows:
        table.insert(timestamp, ["tv", value])
    return table


class TestDigests:
    def test_standard_schema_digests_every_table_but_metrics(self):
        db = HomeworkDatabase(SimulatedClock())
        install_standard_schema(db)
        assert set(database_digests(db)) == set(STANDARD_TABLES) - {"metrics"}

    def test_equal_tables_digest_equal(self):
        rows = [(1.0, 1), (2.0, 2)]
        assert table_digest(filled_table(rows)) == table_digest(filled_table(rows))

    def test_one_value_changes_the_digest(self):
        base = table_digest(filled_table([(1.0, 1), (2.0, 2)]))
        assert table_digest(filled_table([(1.0, 1), (2.0, 3)])) != base

    def test_one_timestamp_changes_the_digest(self):
        base = table_digest(filled_table([(1.0, 1), (2.0, 2)]))
        assert table_digest(filled_table([(1.0, 1), (2.5, 2)])) != base

    def test_total_inserted_changes_the_digest(self):
        # Same retained rows; one ring has also overwritten an older row.
        wrapped = filled_table([(1.0, 1), (2.0, 2), (3.0, 3)], capacity=2)
        fresh = filled_table([(2.0, 2), (3.0, 3)], capacity=2)
        assert [(r.timestamp, r.values) for r in wrapped.rows()] == [
            (r.timestamp, r.values) for r in fresh.rows()
        ]
        assert wrapped.total_inserted != fresh.total_inserted
        assert table_digest(wrapped) != table_digest(fresh)
