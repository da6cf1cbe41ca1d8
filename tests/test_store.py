"""repro.store: WAL framing, segments, tiers, compaction, CQL spanning.

Crash-recovery determinism has its own file (test_store_recovery.py);
this one covers the write path, the archive read facade, the query
integration and the operational surface (CLI, bench gate).
"""

import json

import pytest

from repro.bench.gate import check_gate, make_report
from repro.core.clock import SimulatedClock
from repro.core.errors import StoreError
from repro.hwdb.database import HomeworkDatabase
from repro.query.engine import MODE_PLAN
from repro.store import (
    DurableStore,
    RetentionPolicy,
    WriteAheadLog,
    compact_store,
    read_wal,
)
from repro.store.archive import MANIFEST_NAME, SEGMENT_DIR, WAL_NAME
from repro.store.cli import main as store_main
from repro.store.segment import read_segment
from repro.store.wal import MAGIC, frame_record

pytestmark = pytest.mark.tier1

SCHEMA = [("device", "varchar"), ("bytes", "integer")]


def make_db(capacity=8):
    clock = SimulatedClock()
    db = HomeworkDatabase(clock)
    db.create_table("flows", SCHEMA, capacity)
    return clock, db


def make_store(tmp_path, capacity=8, **overrides):
    clock, db = make_db(capacity)
    config = dict(flush_interval=0.5, group_records=4, segment_rows=4)
    config.update(overrides)
    store = DurableStore(str(tmp_path / "store"), clock, **config)
    store.attach(db)
    return clock, db, store


def insert_n(clock, db, n, step=1.0, start_bytes=0):
    for i in range(n):
        clock.advance(step)
        db.insert("flows", (f"dev{i % 3}", start_bytes + i))


class TestWal:
    def test_append_flush_read_roundtrip(self, tmp_path):
        clock = SimulatedClock()
        wal = WriteAheadLog(tmp_path / "wal.log", clock, group_records=100)
        wal.append("flows", 1, 1.0, ("a", 1))
        wal.append("flows", 2, 2.0, ("b", 2))
        assert wal.pending_rows == 2
        assert wal.flush() == 2
        wal.close()
        contents = read_wal(tmp_path / "wal.log")
        assert not contents.torn
        assert contents.rows["flows"] == {1: (1.0, ["a", 1]), 2: (2.0, ["b", 2])}

    def test_group_commit_at_batch_size(self, tmp_path):
        clock = SimulatedClock()
        wal = WriteAheadLog(tmp_path / "wal.log", clock, group_records=3)
        for seq in range(1, 3):
            wal.append("flows", seq, float(seq), ("a", seq))
        assert wal.registry.value("store.wal_record_total") == 0  # still buffered
        wal.append("flows", 3, 3.0, ("a", 3))
        assert wal.registry.value("store.wal_record_total") == 1  # one framed record for the batch
        assert wal.pending_rows == 0
        wal.close()

    def test_group_commit_seconds_times_each_batch_written(self, tmp_path):
        # One sample per batch the log writes, whether the append path or
        # an explicit flush writes it; a flush with nothing pending is
        # not a group commit.
        clock = SimulatedClock()
        wal = WriteAheadLog(tmp_path / "wal.log", clock, group_records=2)
        commits = wal.registry.get("store.group_commit_seconds")
        assert commits is not None and commits.count == 0
        wal.append("flows", 1, 1.0, ("a", 1))
        wal.append("flows", 2, 2.0, ("a", 2))  # the batch is full: written
        assert commits.count == 1
        assert wal.flush() == 0
        assert commits.count == 1
        wal.append("flows", 3, 3.0, ("a", 3))
        assert wal.flush() == 1
        assert commits.count == 2
        wal.close()

    def test_time_based_flush_uses_injected_clock(self, tmp_path):
        clock = SimulatedClock()
        wal = WriteAheadLog(
            tmp_path / "wal.log", clock, flush_interval=1.0, group_records=100
        )
        wal.append("flows", 1, 0.0, ("a", 1))
        assert wal.registry.value("store.wal_record_total") == 0
        clock.advance(1.5)
        wal.append("flows", 2, 1.5, ("a", 2))
        assert wal.registry.value("store.wal_record_total") == 1
        wal.close()

    def test_clear_marker_round_trips(self, tmp_path):
        clock = SimulatedClock()
        wal = WriteAheadLog(tmp_path / "wal.log", clock)
        wal.append("flows", 1, 1.0, ("a", 1))
        wal.write_clear("flows", 1)
        wal.close()
        contents = read_wal(tmp_path / "wal.log")
        assert contents.clears == {"flows": 1}
        assert contents.records == 2

    def test_bad_config_rejected(self, tmp_path):
        clock = SimulatedClock()
        with pytest.raises(StoreError):
            WriteAheadLog(tmp_path / "w", clock, flush_interval=0)
        with pytest.raises(StoreError):
            WriteAheadLog(tmp_path / "w", clock, group_records=0)

    def test_missing_file_reads_empty(self, tmp_path):
        contents = read_wal(tmp_path / "absent.log")
        assert contents.records == 0 and not contents.torn
        assert contents.note == "missing"

    def test_bad_magic_is_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL\n")
        assert read_wal(path).torn

    @pytest.mark.parametrize("cut", [1, 3, 7])
    def test_truncated_tail_keeps_prefix(self, tmp_path, cut):
        clock = SimulatedClock()
        wal = WriteAheadLog(tmp_path / "wal.log", clock, group_records=1)
        wal.append("flows", 1, 1.0, ("a", 1))
        wal.append("flows", 2, 2.0, ("b", 2))
        wal.close()
        data = (tmp_path / "wal.log").read_bytes()
        (tmp_path / "wal.log").write_bytes(data[:-cut])
        contents = read_wal(tmp_path / "wal.log")
        assert contents.torn
        assert contents.rows["flows"] == {1: (1.0, ["a", 1])}

    def test_crc_mismatch_stops_scan(self, tmp_path):
        clock = SimulatedClock()
        wal = WriteAheadLog(tmp_path / "wal.log", clock, group_records=1)
        wal.append("flows", 1, 1.0, ("a", 1))
        wal.append("flows", 2, 2.0, ("b", 2))
        wal.close()
        data = bytearray((tmp_path / "wal.log").read_bytes())
        data[-1] ^= 0xFF  # scribble the last payload byte
        (tmp_path / "wal.log").write_bytes(bytes(data))
        contents = read_wal(tmp_path / "wal.log")
        assert contents.torn and "CRC" in contents.note
        assert list(contents.rows["flows"]) == [1]

    def test_unknown_record_kind_skipped(self, tmp_path):
        path = tmp_path / "wal.log"
        payload = json.dumps({"k": "future", "x": 1}).encode()
        path.write_bytes(MAGIC + frame_record(payload))
        contents = read_wal(path)
        assert contents.records == 1 and not contents.torn

    def test_rewrite_replaces_contents_atomically(self, tmp_path):
        clock = SimulatedClock()
        wal = WriteAheadLog(tmp_path / "wal.log", clock, group_records=1)
        for seq in range(1, 6):
            wal.append("flows", seq, float(seq), ("a", seq))
        wal.rewrite([("flows", 5, 5.0, ["a", 5])], {"flows": 2})
        wal.close()
        contents = read_wal(tmp_path / "wal.log")
        assert list(contents.rows["flows"]) == [5]
        assert contents.clears == {"flows": 2}


class TestDurableStore:
    def test_attach_registers_tables_and_writes_manifest(self, tmp_path):
        _clock, _db, store = make_store(tmp_path)
        assert "flows" in store.tiers
        manifest = json.loads((store.root / MANIFEST_NAME).read_text())
        assert "flows" in manifest["tables"]
        assert manifest["tables"]["flows"]["capacity"] == 8

    def test_double_attach_rejected(self, tmp_path):
        _clock, db, store = make_store(tmp_path)
        with pytest.raises(StoreError):
            store.attach(db)

    def test_evictions_seal_into_segments(self, tmp_path):
        clock, db, store = make_store(tmp_path, capacity=4, segment_rows=4)
        insert_n(clock, db, 12)  # 8 evictions -> 2 sealed segments
        tier = store.tier("flows")
        assert len(tier.segments) == 2
        assert tier.sealed_rows == 8
        assert tier.sealed_through == 8
        # Segment files verify against their manifest digests.
        for segment in tier.segments:
            rows = read_segment(
                store.root / SEGMENT_DIR / segment.file, segment.digest
            )
            assert len(rows) == segment.rows
            assert rows[0][0] == segment.min_seq
            assert rows[-1][0] == segment.max_seq

    def test_segment_time_index_matches_rows(self, tmp_path):
        clock, db, store = make_store(tmp_path, capacity=2, segment_rows=3)
        insert_n(clock, db, 8)
        for segment in store.tier("flows").segments:
            rows = read_segment(store.root / SEGMENT_DIR / segment.file)
            assert segment.min_ts == rows[0][1]
            assert segment.max_ts == rows[-1][1]

    def test_scan_since_prunes_on_manifest_metadata(self, tmp_path):
        clock, db, store = make_store(tmp_path, capacity=2, segment_rows=2)
        insert_n(clock, db, 12)  # 5 sealed segments of 2 rows, 1s apart
        tier = store.tier("flows")
        assert len(tier.segments) == 5
        rows, info = tier.scan_since(7.5)  # rows at t=8,9,10 are archived
        assert [r.timestamp for r in rows] == [8.0, 9.0, 10.0]
        assert info.segments_pruned >= 3
        assert info.segments_scanned + info.segments_pruned == info.segments_total

    def test_scan_since_includes_pending_spill(self, tmp_path):
        clock, db, store = make_store(tmp_path, capacity=2, segment_rows=100)
        insert_n(clock, db, 6)  # 4 evictions, none sealed
        rows, info = store.tier("flows").scan_since(0.0)
        assert len(rows) == 4
        assert info.pending_rows == 4 and info.segments_total == 0

    def test_wal_rows_counted_once_including_group_commits(self, tmp_path):
        # group_records=4: rows 1-8 commit inside the WAL's append path,
        # the last two on the explicit flush.  One counter sees all ten.
        clock, db, store = make_store(tmp_path, capacity=64)
        insert_n(clock, db, 10, step=0.01)
        store.flush()
        assert store.wal.registry.value("store.wal_rows_total") == 10
        assert store.stats()["wal"]["rows"] == 10

    def test_wal_rewritten_once_enough_rows_are_dead(self, tmp_path):
        # Rewrites are thresholded (REWRITE_MIN_DEAD): sealing a couple
        # of segments leaves the WAL alone, sealing hundreds trims it.
        clock, db, store = make_store(
            tmp_path, capacity=2, segment_rows=64, group_records=32
        )
        insert_n(clock, db, 600, step=0.01)
        store.flush()
        assert store.wal.registry.value("store.wal_rewrite_total") >= 1
        contents = read_wal(store.root / WAL_NAME)
        tier = store.tier("flows")
        assert tier.sealed_through >= 512
        # Every live row (pending spill + ring) must still be in the log...
        table = db.table("flows")
        live = {seq for seq, _ts, _v in tier.pending}
        live.update(seq for seq, _row in table.rows_with_seq_since(0))
        assert live <= set(contents.rows["flows"])
        # ...but the rewrite dropped the bulk of the sealed history.
        assert len(contents.rows["flows"]) < 600 - 256

    def test_on_create_table_attaches_new_tables(self, tmp_path):
        clock, db, store = make_store(tmp_path)
        db.create_table("dns", [("name", "varchar")], 4)
        assert "dns" in store.tiers
        assert db.table("dns").spill is store.tier("dns")

    def test_drop_table_removes_tier_and_segments(self, tmp_path):
        clock, db, store = make_store(tmp_path, capacity=2, segment_rows=2)
        insert_n(clock, db, 8)
        files = [s.file for s in store.tier("flows").segments]
        assert files
        db.drop_table("flows")
        assert "flows" not in store.tiers
        for name in files:
            assert not (store.root / SEGMENT_DIR / name).exists()

    def test_clear_persists_marker_and_accounting(self, tmp_path):
        clock, db, store = make_store(tmp_path, capacity=4, segment_rows=100)
        insert_n(clock, db, 6)
        table = db.table("flows")
        total = table.total_inserted
        db.table("flows").clear()
        tier = store.tier("flows")
        assert tier.cleared_through == total
        # Agreement invariant: every overwritten row is accounted for.
        accounted = (
            tier.sealed_rows + len(tier.pending) + tier.discarded + tier.expired_rows
        )
        assert accounted == table.overwritten

    def test_stats_shape(self, tmp_path):
        clock, db, store = make_store(tmp_path, capacity=2)
        insert_n(clock, db, 6)
        stats = store.stats()
        flows = stats["tables"]["flows"]
        assert flows["sealed_rows"] + flows["pending_rows"] == 4
        assert stats["wal"]["rows"] >= 0


class TestCompaction:
    def make_aged_store(self, tmp_path):
        clock, db, store = make_store(tmp_path, capacity=2, segment_rows=2)
        insert_n(clock, db, 12)  # 5 segments, timestamps 1..12
        return clock, db, store

    def test_max_age_expires_old_segments(self, tmp_path):
        clock, db, store = self.make_aged_store(tmp_path)
        report = compact_store(store, RetentionPolicy(max_age=4.0), now=clock.now())
        tier = store.tier("flows")
        assert report["flows"]["expired_segments"] >= 3
        assert all(s.max_ts >= clock.now() - 4.0 for s in tier.segments)
        # Expired rows stay accounted so the agreement invariant holds.
        table = db.table("flows")
        accounted = (
            tier.sealed_rows + len(tier.pending) + tier.discarded + tier.expired_rows
        )
        assert accounted == table.overwritten

    def test_max_segments_expires_oldest_first(self, tmp_path):
        _clock, db, store = self.make_aged_store(tmp_path)
        compact_store(store, RetentionPolicy(max_segments=2))
        tier = store.tier("flows")
        assert len(tier.segments) <= 2
        assert tier.expired_rows >= 6  # the three oldest segments
        accounted = (
            tier.sealed_rows + len(tier.pending) + tier.discarded + tier.expired_rows
        )
        assert accounted == db.table("flows").overwritten

    def test_merge_folds_undersized_segments(self, tmp_path):
        _clock, _db, store = self.make_aged_store(tmp_path)
        tier = store.tier("flows")
        before_rows = [
            row
            for segment in tier.segments
            for row in read_segment(store.root / SEGMENT_DIR / segment.file)
        ]
        # Raising the target (a config change across restarts) makes the
        # existing 2-row segments undersized; compaction folds them.
        store.segment_rows = 8
        compact_store(store, RetentionPolicy())
        assert len(tier.segments) < 5
        assert tier.sealed_rows == len(before_rows)  # merging loses nothing
        after_rows = [
            row
            for segment in tier.segments
            for row in read_segment(
                store.root / SEGMENT_DIR / segment.file, segment.digest
            )
        ]
        assert after_rows == before_rows

    def test_expired_segment_files_deleted(self, tmp_path):
        _clock, _db, store = self.make_aged_store(tmp_path)
        old_files = [s.file for s in store.tier("flows").segments]
        compact_store(store, RetentionPolicy(max_rows=2))
        kept = {s.file for s in store.tier("flows").segments}
        for name in old_files:
            if name not in kept:
                assert not (store.root / SEGMENT_DIR / name).exists()


class _SpyTier:
    """Archive facade wrapper that records every scan."""

    def __init__(self, tier, calls):
        self._tier = tier
        self._calls = calls

    def scan_since(self, t_from):
        self._calls.append(t_from)
        return self._tier.scan_since(t_from)


class TestTierSpanningQueries:
    """CQL windows that reach past the ring extend over the archive."""

    def twins(self, tmp_path, n=40, capacity=8):
        """A durable small ring and an oversized bare ring, same inserts."""
        clock_s, db_s, store = make_store(
            tmp_path, capacity=capacity, segment_rows=4
        )
        clock_b, db_b = make_db(capacity=10_000)
        insert_n(clock_s, db_s, n)
        insert_n(clock_b, db_b, n)
        return db_s, db_b, store

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT * FROM flows",
            "SELECT * FROM flows [RANGE 35 SECONDS]",
            "SELECT * FROM flows [SINCE 3.0]",
            "SELECT device, sum(bytes) AS b FROM flows [RANGE 35 SECONDS] "
            "GROUP BY device ORDER BY device",
            "SELECT count(*) FROM flows [SINCE 0.0]",
        ],
    )
    def test_bit_identical_to_oversized_ring(self, tmp_path, query):
        db_s, db_b, _store = self.twins(tmp_path)
        small = db_s.query(query)
        big = db_b.query(query)
        assert small.columns == big.columns
        assert small.rows == big.rows

    def test_ring_only_window_never_touches_archive(self, tmp_path):
        db_s, db_b, store = self.twins(tmp_path)
        table = db_s.table("flows")
        tier, calls = table.archive, []
        table.archive = _SpyTier(tier, calls)
        result = db_s.query("SELECT * FROM flows [ROWS 3]")
        assert result.rows == db_b.query("SELECT * FROM flows [ROWS 3]").rows
        assert calls == []  # [ROWS n] is ring-only by definition
        db_s.query("SELECT * FROM flows [SINCE 0.0]")
        assert calls  # ...while a history-deep window does consult it

    def test_explain_analyze_shows_segment_pruning(self, tmp_path):
        db_s, _db_b, _store = self.twins(tmp_path, n=40)
        result = db_s.query(
            "EXPLAIN ANALYZE SELECT * FROM flows [RANGE 20 SECONDS]"
        )
        text = "\n".join(line for (line,) in result.rows)
        assert "archive[segments=" in text
        assert "pruned=" in text
        # The 20s window skips the oldest segments entirely.
        pruned = int(text.split("pruned=")[1].split()[0].rstrip("]"))
        assert pruned >= 1

    def test_engine_demotes_archived_tables_to_plan_tier(self, tmp_path):
        db_s, _db_b, _store = self.twins(tmp_path, n=12)
        db_s.query("SELECT device, sum(bytes) AS b FROM flows GROUP BY device")
        info = dict(db_s._engine.cache_info())
        (mode,) = info.values()
        assert mode.startswith(MODE_PLAN)


class TestStoreCli:
    def populated(self, tmp_path):
        clock, db, store = make_store(tmp_path, capacity=2, segment_rows=2)
        insert_n(clock, db, 8)
        store.close()
        return store.root

    def test_stat_and_verify_ok(self, tmp_path):
        root = self.populated(tmp_path)
        assert store_main(["stat", str(root)]) == 0
        assert store_main(["verify", str(root)]) == 0

    def test_verify_detects_corrupt_segment(self, tmp_path):
        root = self.populated(tmp_path)
        segment = next((root / SEGMENT_DIR).iterdir())
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        assert store_main(["verify", str(root)]) == 1

    def test_recover_subcommand(self, tmp_path):
        root = self.populated(tmp_path)
        assert store_main(["recover", str(root)]) == 0

    def test_compact_subcommand(self, tmp_path):
        root = self.populated(tmp_path)
        assert store_main(["compact", str(root), "--max-segments", "1"]) == 0

    def test_not_a_store_dir_errors(self, tmp_path):
        assert store_main(["recover", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["stat", "verify", "recover"])
    def test_truncated_manifest_errors(self, tmp_path, command):
        root = self.populated(tmp_path)
        manifest = root / MANIFEST_NAME
        manifest.write_text(manifest.read_text()[:20])
        assert store_main([command, str(root)]) == 2

    @pytest.mark.parametrize("command", ["stat", "verify", "recover"])
    def test_foreign_manifest_format_errors(self, tmp_path, command):
        root = self.populated(tmp_path)
        (root / MANIFEST_NAME).write_text('{"format": "bogus/9", "tables": {}}')
        assert store_main([command, str(root)]) == 2


class TestStoreBenchGate:
    CANNED = {
        "store_insert_append_ratio": 0.9,
        "store_wal_commit_rows_per_sec": 500_000.0,
        "store_recover_rows_per_sec": 1_000_000.0,
        "store_archive_scan_rows_per_sec": 400_000.0,
    }
    FLOORS = {"store_insert_append_ratio": 0.75}
    KEYS = ("store_wal_commit_rows_per_sec", "store_recover_rows_per_sec")

    def test_custom_floors_and_keys(self):
        baseline = make_report(self.CANNED, quick=False, floors=self.FLOORS)
        assert baseline["floors"] == self.FLOORS
        gate = check_gate(
            self.CANNED, baseline, floors=self.FLOORS, throughput_keys=self.KEYS
        )
        assert gate.passed
        assert gate.checked == 1 + len(self.KEYS)

    def test_ratio_floor_trips(self):
        results = dict(self.CANNED, store_insert_append_ratio=0.5)
        gate = check_gate(results, None, floors=self.FLOORS, throughput_keys=())
        assert not gate.passed
        assert "below floor" in gate.failures[0]

    def test_throughput_band_trips_only_on_selected_keys(self):
        baseline = make_report(self.CANNED, quick=False, floors=self.FLOORS)
        slow = dict(self.CANNED)
        slow["store_archive_scan_rows_per_sec"] = 1.0  # not in KEYS
        slow["store_recover_rows_per_sec"] = 1.0  # in KEYS
        gate = check_gate(
            slow, baseline, floors=self.FLOORS, throughput_keys=self.KEYS
        )
        assert not gate.passed
        assert len(gate.failures) == 1
        assert "store_recover_rows_per_sec" in gate.failures[0]

    def test_committed_store_baseline_is_valid(self):
        from pathlib import Path

        from repro.bench.gate import SCHEMA, load_baseline
        from repro.bench.store import STORE_FLOORS, STORE_THROUGHPUT_KEYS

        path = Path(__file__).resolve().parents[1] / "BENCH_STORE.json"
        baseline = load_baseline(path)
        assert baseline is not None and baseline["schema"] == SCHEMA
        assert baseline["floors"] == STORE_FLOORS
        for key in STORE_THROUGHPUT_KEYS:
            assert isinstance(baseline["results"][key], float), key
        # The committed run must itself clear its floors.
        gate = check_gate(
            baseline["results"],
            None,
            floors=STORE_FLOORS,
            throughput_keys=STORE_THROUGHPUT_KEYS,
        )
        assert gate.passed, gate.failures
