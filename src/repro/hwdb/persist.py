"""Persisting query output.

hwdb itself is ephemeral (fixed memory buffers); the paper notes that the
RPC interface lets applications subscribe to query results, "persisting
output as desired".  These sinks do that: attach one as a subscription
callback and every delivery is appended to a CSV or JSON-lines file.

A sink takes either an open text stream (the caller owns its lifetime)
or a filesystem path.  Path-based sinks own their file: they open
lazily, support explicit ``flush()``/``close()``, and rotate by size —
once a delivery pushes the file past ``max_bytes`` it is renamed to
``<path>.1``, ``<path>.2``, … and a fresh file (with a fresh CSV
header) takes its place.  Rotation happens *between* deliveries, so a
single delivery is never split across files.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Any, List, Optional, TextIO, Union

from .cql.executor import ResultSet

SinkTarget = Union[str, "os.PathLike[str]", TextIO]


class _SinkFile:
    """The stream behind a sink: borrowed, or owned-by-path with rotation."""

    __slots__ = ("path", "max_bytes", "rotations", "_stream", "_borrowed")

    def __init__(self, target: SinkTarget, max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if isinstance(target, (str, os.PathLike)):
            self.path: Optional[Path] = Path(target)
            self._stream: Optional[TextIO] = None
            self._borrowed = False
        else:
            if max_bytes is not None:
                raise ValueError("rotation needs a path-based sink, not a stream")
            self.path = None
            self._stream = target
            self._borrowed = True
        self.max_bytes = max_bytes
        self.rotations = 0

    @property
    def stream(self) -> TextIO:
        if self._stream is None:
            assert self.path is not None
            self._stream = open(self.path, "a", encoding="utf-8", newline="")
        return self._stream

    def maybe_rotate(self) -> bool:
        """Rotate the owned file if it outgrew ``max_bytes``; True if it did."""
        if self.max_bytes is None or self.path is None or self._stream is None:
            return False
        self._stream.flush()
        if self._stream.tell() < self.max_bytes:
            return False
        self._stream.close()
        self._stream = None
        self.rotations += 1
        os.replace(self.path, f"{self.path}.{self.rotations}")
        return True

    def flush(self) -> None:
        if self._stream is not None:
            self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.flush()
            if not self._borrowed:
                self._stream.close()
                self._stream = None


class CsvSink:
    """Append result-set rows as CSV (header written once per file)."""

    def __init__(
        self,
        target: SinkTarget,
        include_delivery_time: bool = True,
        max_bytes: Optional[int] = None,
    ):
        self._file = _SinkFile(target, max_bytes)
        self._header_written = False
        self.include_delivery_time = include_delivery_time
        self.rows_written = 0

    @property
    def rotations(self) -> int:
        return self._file.rotations

    def __call__(self, result: ResultSet) -> None:
        writer = csv.writer(self._file.stream)
        if not self._header_written:
            header: List[str] = list(result.columns)
            if self.include_delivery_time:
                header = ["delivered_at"] + header
            writer.writerow(header)
            self._header_written = True
        for row in result.rows:
            out: List[Any] = list(row)
            if self.include_delivery_time:
                out = [result.executed_at] + out
            writer.writerow(out)
            self.rows_written += 1
        if self._file.maybe_rotate():
            # The next delivery starts a fresh file; re-announce columns.
            self._header_written = False

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self._file.close()


class JsonLinesSink:
    """Append each delivery as one JSON object per row."""

    def __init__(self, target: SinkTarget, max_bytes: Optional[int] = None):
        self._file = _SinkFile(target, max_bytes)
        self.rows_written = 0

    @property
    def rotations(self) -> int:
        return self._file.rotations

    def __call__(self, result: ResultSet) -> None:
        stream = self._file.stream
        for record in result.to_dicts():
            record["_delivered_at"] = result.executed_at
            stream.write(json.dumps(record, default=str) + "\n")
            self.rows_written += 1
        self._file.maybe_rotate()

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self._file.close()


class MemorySink:
    """Keep every delivered result in memory (handy in tests and UIs)."""

    def __init__(self, max_deliveries: Optional[int] = None):
        self.deliveries: List[ResultSet] = []
        self.max_deliveries = max_deliveries

    def __call__(self, result: ResultSet) -> None:
        self.deliveries.append(result)
        if self.max_deliveries is not None and len(self.deliveries) > self.max_deliveries:
            del self.deliveries[0]

    @property
    def latest(self) -> Optional[ResultSet]:
        return self.deliveries[-1] if self.deliveries else None

    def all_rows(self) -> List[tuple]:
        return [row for delivery in self.deliveries for row in delivery.rows]


def render_table(result: ResultSet, max_rows: int = 50) -> str:
    """Human-readable fixed-width rendering of a result set."""
    columns = result.columns or ["(empty)"]
    rows = [tuple(_fmt(v) for v in row) for row in result.rows[:max_rows]]
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if len(result.rows) > max_rows:
        lines.append(f"... ({len(result.rows) - max_rows} more rows)")
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
