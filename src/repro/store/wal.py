"""The write-ahead log: group-committed, CRC-framed, torn-tail tolerant.

One WAL file per database.  The file starts with :data:`MAGIC`; after it
come framed records::

    <u32 payload length> <u32 crc32(payload)> <payload bytes>

(little-endian).  A payload is compact JSON.  Two record kinds:

* ``{"k": "b", "rows": [[table, seq, ts, [values...]], ...]}`` — one
  *commit batch*.  Appends are buffered in memory and encoded/written as
  a single record at flush time, so the per-append cost is one list
  append (the <5% overhead budget on the T1 bench) and a torn tail loses
  whole batches, never half a row.
* ``{"k": "x", "table": name, "through": seq}`` — a clear marker:
  ``StreamTable.clear()`` discarded every row with seq <= ``through``
  that had not already been archived.

Flushes happen when the pending batch reaches ``group_records`` rows or
when ``flush_interval`` seconds (by the injectable clock — simulated
time in tests and scenarios, wall time in a real deployment) have passed
since the last flush; callers may also flush explicitly (the router
schedules a periodic flush).

The reader (:func:`read_wal`) is the recovery half of the contract: it
stops at the first short read or CRC mismatch and reports the offset of
the last good record, so a crash mid-write — a truncated tail, a
scribbled block — costs at most the unsynced suffix, never an exception.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.errors import StoreError
from ..core.metrics import MetricsRegistry

#: File magic; also the format version (bump on incompatible change).
MAGIC = b"RWAL1\n"

_FRAME = struct.Struct("<II")

#: One buffered append: (table, seq, timestamp, values).
PendingRow = Tuple[str, int, float, Sequence[Any]]


def _encode_payload(obj: Dict[str, Any]) -> bytes:
    # Compact separators: the WAL is written far more than read.
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def frame_record(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


class WriteAheadLog:
    """Append side of the WAL: buffer, group-commit, rewrite.

    ``clock`` is any zero-argument callable returning seconds — the
    database's own clock, so flush timing is deterministic under the
    simulator.
    """

    def __init__(
        self,
        path: Union[str, Path],
        clock: Callable[[], float],
        flush_interval: float = 0.25,
        group_records: int = 64,
        fsync: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ):
        if flush_interval <= 0:
            raise StoreError(f"flush_interval must be positive, got {flush_interval}")
        if group_records <= 0:
            raise StoreError(f"group_records must be positive, got {group_records}")
        self.path = Path(path)
        self._clock = clock
        self.flush_interval = float(flush_interval)
        self.group_records = int(group_records)
        self.fsync = bool(fsync)
        self._pending: List[PendingRow] = []
        self._last_flush = clock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_records = self.registry.counter("store.wal_record_total")
        self._m_rows = self.registry.counter("store.wal_rows_total")
        self._m_bytes = self.registry.counter("store.wal_byte_total")
        self._m_rewrites = self.registry.counter("store.wal_rewrite_total")
        self._m_group_commit = self.registry.histogram("store.group_commit_seconds")
        self._fh = self._open()

    def _open(self):
        exists = self.path.exists() and self.path.stat().st_size >= len(MAGIC)
        fh = open(self.path, "ab")
        if not exists:
            fh.write(MAGIC)
            fh.flush()
        return fh

    # -- append path ---------------------------------------------------

    def append(self, table: str, seq: int, timestamp: float, values: Sequence[Any]) -> None:
        """Buffer one row; group-commits when the batch or clock says so."""
        pending = self._pending
        pending.append((table, seq, timestamp, values))
        if (
            len(pending) >= self.group_records
            or self._clock() - self._last_flush >= self.flush_interval
        ):
            self.flush()

    @property
    def pending_rows(self) -> int:
        return len(self._pending)

    def flush(self) -> int:
        """Write the pending batch as one framed record; returns rows flushed."""
        self._last_flush = self._clock()
        if not self._pending:
            return 0
        clock = self.registry.clock
        t0 = clock()
        count = len(self._pending)
        # The pending tuples are JSON-encoded directly (tuples render as
        # arrays) — no per-row copy on the group-commit path.
        self._write_record({"k": "b", "rows": self._pending})
        self._pending = []
        self._m_rows.inc(count)
        self._m_group_commit.observe(clock() - t0)
        return count

    def write_clear(self, table: str, through: int) -> None:
        """Persist a clear marker (flushes pending rows first, in order)."""
        self.flush()
        self._write_record({"k": "x", "table": table, "through": int(through)})

    def _write_record(self, obj: Dict[str, Any]) -> None:
        framed = frame_record(_encode_payload(obj))
        self._fh.write(framed)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._m_records.inc()
        self._m_bytes.inc(len(framed))

    # -- rewrite -------------------------------------------------------

    def rewrite(self, rows: Sequence[PendingRow], clears: Dict[str, int]) -> None:
        """Atomically replace the log with exactly ``rows`` (+ markers).

        Called after segments sealed (their rows no longer need the WAL)
        or a table dropped: the caller passes every row the log must
        still retain.  tmp + ``os.replace`` so a crash mid-rewrite leaves
        the old log intact.
        """
        self.flush()
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            for table, through in sorted(clears.items()):
                fh.write(frame_record(_encode_payload({"k": "x", "table": table, "through": through})))
            if rows:
                payload = {"k": "b", "rows": list(rows)}
                fh.write(frame_record(_encode_payload(payload)))
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        self._fh = open(self.path, "ab")
        self._m_rewrites.inc()

    def close(self) -> None:
        self.flush()
        self._fh.close()


class WalContents:
    """Everything :func:`read_wal` recovered from a log file."""

    __slots__ = ("rows", "clears", "records", "good_offset", "torn", "note")

    def __init__(self) -> None:
        #: table -> {seq: (timestamp, values)}; later records win.
        self.rows: Dict[str, Dict[int, Tuple[float, List[Any]]]] = {}
        #: table -> highest clear marker seen.
        self.clears: Dict[str, int] = {}
        self.records = 0
        self.good_offset = 0
        self.torn = False
        self.note: Optional[str] = None


def read_wal(path: Union[str, Path]) -> WalContents:
    """Tolerantly read a WAL file: stop at the last good record.

    Never raises on torn/corrupt data — a short header, truncated frame
    or CRC mismatch ends the scan, with ``torn`` set and ``good_offset``
    marking where a recovering writer should truncate to.  A missing
    file reads as empty.
    """
    contents = WalContents()
    path = Path(path)
    if not path.exists():
        contents.note = "missing"
        return contents
    data = path.read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        contents.torn = len(data) > 0
        contents.note = "bad magic"
        return contents
    offset = len(MAGIC)
    contents.good_offset = offset
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > len(data):
            contents.torn = True
            contents.note = f"truncated frame at offset {offset}"
            return contents
        payload = data[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            contents.torn = True
            contents.note = f"CRC mismatch at offset {offset}"
            return contents
        try:
            obj = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            contents.torn = True
            contents.note = f"undecodable payload at offset {offset}"
            return contents
        _apply_record(contents, obj)
        contents.records += 1
        offset = end
        contents.good_offset = offset
    if offset != len(data):
        contents.torn = True
        contents.note = f"trailing {len(data) - offset} byte(s)"
    return contents


def _apply_record(contents: WalContents, obj: Dict[str, Any]) -> None:
    kind = obj.get("k")
    if kind == "b":
        for table, seq, ts, values in obj.get("rows", ()):
            contents.rows.setdefault(str(table), {})[int(seq)] = (float(ts), list(values))
    elif kind == "x":
        table = str(obj.get("table"))
        through = int(obj.get("through", 0))
        if through > contents.clears.get(table, 0):
            contents.clears[table] = through
    # Unknown kinds are skipped: forward-compatible within one MAGIC.


__all__ = ["MAGIC", "WalContents", "WriteAheadLog", "frame_record", "read_wal"]
