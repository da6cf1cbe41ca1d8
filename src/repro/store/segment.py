"""Time-indexed segment files: the archive's sealed, immutable unit.

When a ring evicts enough rows (``segment_rows``), the store seals them
into one segment file — same framing as the WAL (:data:`SEG_MAGIC`, one
length+CRC framed JSON record) — and records a :class:`SegmentInfo` in
the manifest: min/max timestamp and sequence number, row count and a
SHA-256 content digest.  Queries prune on the timestamp bounds without
opening the file; reads (and ``repro store verify``) check the file
against the digest.

Segment file names are deterministic (``<table>-<id:08d>.seg``) so a
replayed household produces a byte-identical archive layout.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from ..core.errors import StoreError

SEG_MAGIC = b"RSEG1\n"

_FRAME = struct.Struct("<II")

#: One archived row: (seq, timestamp, values).
ArchivedRow = Tuple[int, float, List[Any]]


class SegmentInfo:
    """Manifest entry for one sealed segment (never the row payload)."""

    __slots__ = (
        "segment_id",
        "table",
        "file",
        "rows",
        "min_seq",
        "max_seq",
        "min_ts",
        "max_ts",
        "digest",
    )

    def __init__(
        self,
        segment_id: int,
        table: str,
        file: str,
        rows: int,
        min_seq: int,
        max_seq: int,
        min_ts: float,
        max_ts: float,
        digest: str,
    ):
        self.segment_id = int(segment_id)
        self.table = table
        self.file = file
        self.rows = int(rows)
        self.min_seq = int(min_seq)
        self.max_seq = int(max_seq)
        self.min_ts = float(min_ts)
        self.max_ts = float(max_ts)
        self.digest = digest

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.segment_id,
            "table": self.table,
            "file": self.file,
            "rows": self.rows,
            "min_seq": self.min_seq,
            "max_seq": self.max_seq,
            "min_ts": self.min_ts,
            "max_ts": self.max_ts,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SegmentInfo":
        return cls(
            segment_id=int(data["id"]),
            table=str(data["table"]),
            file=str(data["file"]),
            rows=int(data["rows"]),
            min_seq=int(data["min_seq"]),
            max_seq=int(data["max_seq"]),
            min_ts=float(data["min_ts"]),
            max_ts=float(data["max_ts"]),
            digest=str(data["digest"]),
        )

    def __repr__(self) -> str:
        return (
            f"SegmentInfo({self.table}#{self.segment_id}, rows={self.rows}, "
            f"seq=[{self.min_seq},{self.max_seq}], ts=[{self.min_ts:.3f},{self.max_ts:.3f}])"
        )


def segment_file_name(table: str, segment_id: int) -> str:
    return f"{table}-{segment_id:08d}.seg"


def write_segment(
    path: Union[str, Path],
    segment_id: int,
    table: str,
    rows: List[ArchivedRow],
    fsync: bool = False,
) -> SegmentInfo:
    """Seal ``rows`` (eviction order = seq order) into a segment file."""
    if not rows:
        raise StoreError(f"refusing to seal an empty segment for {table!r}")
    payload = json.dumps(
        {"k": "s", "table": table, "rows": [[s, ts, list(v)] for s, ts, v in rows]},
        separators=(",", ":"),
    ).encode("utf-8")
    framed = _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(SEG_MAGIC)
        fh.write(framed)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    return SegmentInfo(
        segment_id=segment_id,
        table=table,
        file=path.name,
        rows=len(rows),
        min_seq=rows[0][0],
        max_seq=rows[-1][0],
        min_ts=rows[0][1],
        max_ts=rows[-1][1],
        digest=hashlib.sha256(payload).hexdigest(),
    )


def read_segment(path: Union[str, Path], expected_digest: str = "") -> List[ArchivedRow]:
    """Load a sealed segment; integrity failures raise :class:`StoreError`.

    Segments are not the WAL: they were sealed with a full flush, so any
    damage here is real corruption, reported loudly rather than skipped.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise StoreError(f"cannot read segment {path}: {exc}") from exc
    if data[: len(SEG_MAGIC)] != SEG_MAGIC:
        raise StoreError(f"segment {path} has bad magic")
    offset = len(SEG_MAGIC)
    if offset + _FRAME.size > len(data):
        raise StoreError(f"segment {path} is truncated")
    length, crc = _FRAME.unpack_from(data, offset)
    payload = data[offset + _FRAME.size : offset + _FRAME.size + length]
    if len(payload) != length:
        raise StoreError(f"segment {path} is truncated")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise StoreError(f"segment {path} fails its CRC")
    if expected_digest and hashlib.sha256(payload).hexdigest() != expected_digest:
        raise StoreError(f"segment {path} does not match its manifest digest")
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise StoreError(f"segment {path} payload undecodable: {exc}") from exc
    return [(int(s), float(ts), list(v)) for s, ts, v in obj.get("rows", ())]


__all__ = [
    "ArchivedRow",
    "SEG_MAGIC",
    "SegmentInfo",
    "read_segment",
    "segment_file_name",
    "write_segment",
]
