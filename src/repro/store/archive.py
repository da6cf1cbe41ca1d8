"""The durable store facade: per-table tiers, manifest, seal/rewrite.

A :class:`DurableStore` owns one directory::

    <root>/
        MANIFEST.json        # schema + segment index (atomic rewrites)
        wal.log              # the group-committed write-ahead log
        segments/            # sealed, immutable segment files

and attaches to a :class:`~repro.hwdb.database.HomeworkDatabase` through
the duck-typed ``db.set_store(store)`` hook (hwdb never imports this
package).  Attaching gives every non-excluded table a
:class:`TableTier`, wired into the ring as ``table.spill`` (write hooks)
and ``table.archive`` (the read facade tier-spanning scans consume).

Sequence-number bookkeeping (1-based; ``seq == total_inserted`` of the
row's insert):

* the ring retains seqs ``(overwritten, total]``;
* the *pending* spill buffer holds evicted-but-unsealed rows, seqs
  ``(max(sealed_through, cleared_through), overwritten]``;
* sealed segments cover the history below, each an explicit
  ``[min_seq, max_seq]`` range;
* rows at or below a table's ``cleared_through`` that were still in the
  ring when ``clear()`` ran were discarded, not archived (``discarded``
  counts them), and compaction may expire whole old segments
  (``expired_rows``).

So at every operation boundary::

    sealed_rows + len(pending) + discarded + expired_rows == overwritten

— the agreement invariant ``repro.check`` asserts after every fuzz op.

The WAL must retain any row not yet in a sealed segment.  Sealing makes
WAL rows dead; once the dead count overtakes the live count (and a floor,
so tiny logs are left alone) the log is rewritten from live state —
pending buffers plus the rings themselves — via tmp + rename.
"""

from __future__ import annotations

import json
import logging
import os
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.errors import StoreError
from ..core.metrics import MetricsRegistry
from ..hwdb.table import Row, StreamTable
from .segment import (
    ArchivedRow,
    SegmentInfo,
    read_segment,
    segment_file_name,
    write_segment,
)
from .wal import PendingRow, WriteAheadLog

logger = logging.getLogger(__name__)

#: Manifest format tag; bump on any incompatible layout change.
FORMAT = "repro.store/1"

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"
SEGMENT_DIR = "segments"

#: Tables that must never spill: metrics rows are wall-clock tainted (a
#: durable copy would break deterministic replay/digest comparison) and
#: trace lineages are high-churn debug data with no recovery value.
DEFAULT_EXCLUDE = ("metrics", "traces")

#: Parsed segment payloads kept in memory (per store, LRU).
SEGMENT_CACHE_SIZE = 8

#: Never rewrite the WAL while fewer dead rows than this have piled up.
REWRITE_MIN_DEAD = 512


def read_manifest(root: Union[str, Path]) -> Dict[str, Any]:
    """The manifest of the store at ``root``, or an empty one if it has none.

    Raises :class:`StoreError` when the file is not JSON or carries a
    format other than :data:`FORMAT`.
    """
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        return {"format": FORMAT, "tables": {}}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise StoreError(f"unreadable manifest {path}: {exc}") from exc
    found = data.get("format") if isinstance(data, dict) else None
    if found != FORMAT:
        raise StoreError(f"unsupported store format {found!r} (expected {FORMAT!r})")
    return data


class ArchiveScanInfo:
    """What one archive scan touched — EXPLAIN's segment-pruning proof."""

    __slots__ = ("segments_total", "segments_scanned", "segments_pruned", "rows", "pending_rows")

    def __init__(
        self,
        segments_total: int,
        segments_scanned: int,
        segments_pruned: int,
        rows: int,
        pending_rows: int,
    ):
        self.segments_total = segments_total
        self.segments_scanned = segments_scanned
        self.segments_pruned = segments_pruned
        self.rows = rows
        self.pending_rows = pending_rows

    def __repr__(self) -> str:
        return (
            f"ArchiveScanInfo(segments={self.segments_scanned}/{self.segments_total}, "
            f"pruned={self.segments_pruned}, rows={self.rows})"
        )


class TableTier:
    """One table's durable tier: write hooks + the archive read facade.

    The same object is installed as ``table.spill`` and
    ``table.archive`` — the names match what each consumer needs, not
    two implementations.
    """

    __slots__ = (
        "store",
        "name",
        "columns",
        "capacity",
        "pending",
        "segments",
        "sealed_through",
        "cleared_through",
        "discarded",
        "expired_rows",
        "next_segment_id",
        "_wal_append",
    )

    def __init__(self, store: "DurableStore", name: str, columns: List[List[str]], capacity: int):
        self.store = store
        self.name = name
        self.columns = columns
        self.capacity = capacity
        self.pending: List[ArchivedRow] = []
        self.segments: List[SegmentInfo] = []
        self.sealed_through = 0
        self.cleared_through = 0
        self.discarded = 0
        self.expired_rows = 0
        self.next_segment_id = 1
        # Bound once: on_append runs on every insert of every durable
        # table, and the store keeps one WriteAheadLog object for its
        # whole life (rewrite() swaps file handles, not the object).
        self._wal_append = store.wal.append

    # -- write hooks (called from StreamTable.insert/clear) -------------

    def on_append(self, table: StreamTable, seq: int, row: Row) -> None:
        self._wal_append(self.name, seq, row.timestamp, row.values)

    def on_evict(self, table: StreamTable, seq: int, row: Row) -> None:
        # row.values stays a tuple — JSON encodes it as an array, and
        # avoiding the list copy keeps this hook a bare append.
        pending = self.pending
        pending.append((seq, row.timestamp, row.values))
        if len(pending) >= self.store.segment_rows:
            self.store._seal(self)

    def on_clear(self, table: StreamTable) -> None:
        self.store._on_clear(self, table)

    # -- read facade (called via the duck-typed table.archive) ----------

    @property
    def sealed_rows(self) -> int:
        return sum(segment.rows for segment in self.segments)

    def scan_since(self, t_from: float) -> Tuple[List[Row], ArchiveScanInfo]:
        """Archived rows with ``timestamp >= t_from``, oldest first.

        Segments whose ``max_ts`` falls before the window are pruned on
        manifest metadata alone — their files are never opened.
        """
        rows: List[Row] = []
        scanned = 0
        pruned = 0
        for segment in self.segments:
            if segment.max_ts < t_from:
                pruned += 1
                continue
            scanned += 1
            for _seq, ts, values in self.store._segment_rows(segment):
                if ts >= t_from:
                    rows.append(Row(ts, tuple(values)))
        pending_hit = 0
        for _seq, ts, values in self.pending:
            if ts >= t_from:
                rows.append(Row(ts, tuple(values)))
                pending_hit += 1
        info = ArchiveScanInfo(
            segments_total=len(self.segments),
            segments_scanned=scanned,
            segments_pruned=pruned,
            rows=len(rows),
            pending_rows=pending_hit,
        )
        self.store._note_scan(info)
        return rows, info

    def to_manifest(self) -> Dict[str, Any]:
        return {
            "columns": [list(c) for c in self.columns],
            "capacity": self.capacity,
            "sealed_through": self.sealed_through,
            "cleared_through": self.cleared_through,
            "discarded": self.discarded,
            "expired_rows": self.expired_rows,
            "next_segment_id": self.next_segment_id,
            "segments": [segment.to_dict() for segment in self.segments],
        }

    def load_manifest(self, data: Dict[str, Any]) -> None:
        self.columns = [list(c) for c in data.get("columns", self.columns)]
        self.capacity = int(data.get("capacity", self.capacity))
        self.sealed_through = int(data.get("sealed_through", 0))
        self.cleared_through = int(data.get("cleared_through", 0))
        self.discarded = int(data.get("discarded", 0))
        self.expired_rows = int(data.get("expired_rows", 0))
        self.next_segment_id = int(data.get("next_segment_id", 1))
        self.segments = [SegmentInfo.from_dict(s) for s in data.get("segments", ())]

    def __repr__(self) -> str:
        return (
            f"TableTier({self.name}, sealed={self.sealed_rows} rows in "
            f"{len(self.segments)} segments, pending={len(self.pending)})"
        )


class DurableStore:
    """Durable cold tier for one hwdb: WAL + segment archive + manifest."""

    def __init__(
        self,
        root: Union[str, Path],
        clock,
        flush_interval: float = 0.25,
        group_records: int = 64,
        segment_rows: int = 256,
        fsync: bool = False,
        registry: Optional[MetricsRegistry] = None,
        exclude_tables: Sequence[str] = DEFAULT_EXCLUDE,
    ):
        if segment_rows <= 0:
            raise StoreError(f"segment_rows must be positive, got {segment_rows}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / SEGMENT_DIR).mkdir(exist_ok=True)
        self.segment_rows = int(segment_rows)
        self.fsync = bool(fsync)
        self._clock = clock
        self._db = None
        self._tiers: Dict[str, TableTier] = {}
        self._persisted: Dict[str, Dict[str, Any]] = {}
        self._segment_cache: "OrderedDict[Tuple[str, int], List[ArchivedRow]]" = OrderedDict()
        self._wal_dead_rows = 0
        self.excluded = {str(name).lower() for name in exclude_tables}
        self._registry = registry if registry is not None else MetricsRegistry()
        self._m_seals = self._registry.counter("store.segment_seal_total")
        self._m_scans = self._registry.counter("store.archive_scan_total")
        self._m_pruned = self._registry.counter("store.segments_pruned_total")
        self._load_manifest()
        self.wal = WriteAheadLog(
            self.root / WAL_NAME,
            clock,
            flush_interval=flush_interval,
            group_records=group_records,
            fsync=fsync,
            registry=self._registry,
        )

    # -- attach ---------------------------------------------------------

    def attach(self, db) -> None:
        """Become ``db``'s durable tier (``db.set_store`` + table hooks).

        For a fresh directory this registers every existing table; a
        directory with prior state must go through
        :func:`repro.store.recover.recover_store`, which aligns the
        database's counters with the manifest before attaching.
        """
        if self._db is not None:
            raise StoreError("store is already attached to a database")
        self._db = db
        for name in db.tables():
            if name in self.excluded:
                continue
            self._attach_table(db.table(name))
        db.set_store(self)
        self._write_manifest()

    @property
    def tiers(self) -> Dict[str, TableTier]:
        return self._tiers

    def tier(self, name: str) -> TableTier:
        try:
            return self._tiers[name.lower()]
        except KeyError:
            raise StoreError(f"no durable tier for table {name!r}") from None

    def _attach_table(self, table: StreamTable) -> TableTier:
        columns = [[column.name, column.ctype.name] for column in table.columns]
        tier = TableTier(self, table.name, columns, table.capacity)
        persisted = self._persisted.pop(table.name, None)
        if persisted is not None:
            tier.load_manifest(persisted)
        self._tiers[table.name] = tier
        table.spill = tier
        table.archive = tier
        return tier

    # -- database notifications (duck-typed, via set_store) -------------

    def on_create_table(self, table: StreamTable) -> None:
        if table.name in self.excluded:
            return
        self._attach_table(table)
        self._write_manifest()

    def on_drop_table(self, name: str) -> None:
        tier = self._tiers.pop(name.lower(), None)
        if tier is None:
            return
        for segment in tier.segments:
            self._segment_cache.pop((tier.name, segment.segment_id), None)
            try:
                (self.root / SEGMENT_DIR / segment.file).unlink()
            except OSError:  # repro: ignore[except-swallow]
                pass
        self._rewrite_wal()
        self._write_manifest()

    # -- flush / seal / rewrite ----------------------------------------

    def flush(self) -> int:
        """Group-commit the pending WAL batch; returns rows flushed."""
        return self.wal.flush()

    def _seal(self, tier: TableTier) -> Optional[SegmentInfo]:
        """Seal ``tier``'s pending rows into one immutable segment."""
        if not tier.pending:
            return None
        # The WAL must be current before its rows become seal-durable;
        # a crash between the two must always find the rows somewhere.
        self.flush()
        segment_id = tier.next_segment_id
        tier.next_segment_id += 1
        file_name = segment_file_name(tier.name, segment_id)
        info = write_segment(
            self.root / SEGMENT_DIR / file_name,
            segment_id,
            tier.name,
            tier.pending,
            fsync=self.fsync,
        )
        sealed = len(tier.pending)
        tier.segments.append(info)
        tier.sealed_through = info.max_seq
        tier.pending = []
        self._write_manifest()
        self._wal_dead_rows += sealed
        self._m_seals.inc()
        if self._wal_dead_rows >= REWRITE_MIN_DEAD and self._wal_dead_rows >= self._live_rows():
            self._rewrite_wal()
        return info

    def _live_rows(self) -> int:
        """Rows the WAL must retain: pending spill + the rings themselves."""
        total = 0
        for tier in self._tiers.values():
            total += len(tier.pending)
            if self._db is not None and self._db.has_table(tier.name):
                total += len(self._db.table(tier.name))
        return total

    def _rewrite_wal(self) -> None:
        """Drop sealed/dead rows: rebuild the log from live state."""
        rows: List[PendingRow] = []
        clears: Dict[str, int] = {}
        for name in sorted(self._tiers):
            tier = self._tiers[name]
            if tier.cleared_through:
                clears[name] = tier.cleared_through
            for seq, ts, values in tier.pending:
                rows.append((name, seq, ts, values))
            if self._db is not None and self._db.has_table(name):
                table = self._db.table(name)
                floor = table.total_inserted - len(table)
                for seq, row in table.rows_with_seq_since(floor):
                    rows.append((name, seq, row.timestamp, row.values))
        rows.sort(key=lambda item: (item[1], item[0]))
        self.wal.rewrite(rows, clears)
        self._wal_dead_rows = 0

    def _on_clear(self, tier: TableTier, table: StreamTable) -> None:
        """``clear()`` support: seal what was evicted, mark the rest dead.

        Rows still in the ring at clear time were never evicted, so they
        are *discarded* — gone from ring and archive both.  Sealing the
        pending buffer first keeps the recovery arithmetic closed: after
        the marker, pending rows are exactly seqs in
        ``(cleared_through, overwritten]``.
        """
        self._seal(tier)
        tier.discarded += len(table)
        tier.cleared_through = table.total_inserted
        self.wal.write_clear(tier.name, tier.cleared_through)
        self._write_manifest()

    # -- segment access -------------------------------------------------

    def _segment_rows(self, segment: SegmentInfo) -> List[ArchivedRow]:
        key = (segment.table, segment.segment_id)
        cached = self._segment_cache.get(key)
        if cached is not None:
            self._segment_cache.move_to_end(key)
            return cached
        rows = read_segment(self.root / SEGMENT_DIR / segment.file, segment.digest)
        self._segment_cache[key] = rows
        while len(self._segment_cache) > SEGMENT_CACHE_SIZE:
            self._segment_cache.popitem(last=False)
        return rows

    def _note_scan(self, info: ArchiveScanInfo) -> None:
        self._m_scans.inc()
        self._m_pruned.inc(info.segments_pruned)

    # -- manifest -------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _load_manifest(self) -> None:
        data = read_manifest(self.root)
        # A re-opened store keeps the exclusions it was created with.
        self.excluded = {
            str(name).lower() for name in data.get("exclude_tables", self.excluded)
        }
        self._persisted = {
            str(name): dict(entry) for name, entry in data.get("tables", {}).items()
        }

    def _write_manifest(self) -> None:
        payload = {
            "format": FORMAT,
            "exclude_tables": sorted(self.excluded),
            "tables": {
                name: self._tiers[name].to_manifest() for name in sorted(self._tiers)
            },
        }
        # Tables known from a prior manifest but not (yet) attached stay.
        for name, entry in self._persisted.items():
            payload["tables"].setdefault(name, entry)
        tmp = self.manifest_path.with_name(MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, self.manifest_path)

    def stats(self) -> Dict[str, Any]:
        return {
            "root": str(self.root),
            "tables": {
                name: {
                    "segments": len(tier.segments),
                    "sealed_rows": tier.sealed_rows,
                    "pending_rows": len(tier.pending),
                    "discarded": tier.discarded,
                    "expired_rows": tier.expired_rows,
                }
                for name, tier in sorted(self._tiers.items())
            },
            "wal": {
                "records": self._registry.value("store.wal_record_total"),
                "rows": self._registry.value("store.wal_rows_total"),
                "bytes": self._registry.value("store.wal_byte_total"),
                "rewrites": self._registry.value("store.wal_rewrite_total"),
                "pending": self.wal.pending_rows,
            },
        }

    def close(self) -> None:
        """Flush and release the WAL handle (the store stays readable)."""
        self.wal.close()

    def __repr__(self) -> str:
        return f"DurableStore({self.root}, tables={sorted(self._tiers)})"


__all__ = [
    "ArchiveScanInfo",
    "DEFAULT_EXCLUDE",
    "DurableStore",
    "FORMAT",
    "TableTier",
    "read_manifest",
]
