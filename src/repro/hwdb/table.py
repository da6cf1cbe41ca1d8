"""Ring-buffer stream tables.

"The Homework Database, hwdb, provides measurement support as an active
ephemeral stream database which stores ephemeral events into a fixed size
memory buffer.  It links events into tables..."  A :class:`StreamTable`
is exactly that: a fixed-capacity circular buffer of timestamped rows.
Old rows are overwritten, never moved — append is O(1) regardless of
history length (the property experiment T1 measures).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import HwdbError
from .types import Column

#: Name of the implicit timestamp column present on every table.
TS_COLUMN = "timestamp"


class Row:
    """One event: a timestamp plus the schema's values, attribute-accessible."""

    __slots__ = ("timestamp", "values")

    def __init__(self, timestamp: float, values: Tuple):
        self.timestamp = timestamp
        self.values = values

    def __repr__(self) -> str:
        return f"Row(t={self.timestamp:.6f}, {self.values!r})"


class StreamTable:
    """A typed circular buffer of rows.

    ``capacity`` rows are preallocated; insertion past capacity reclaims
    the oldest slot.  Rows are timestamped on insert (monotonically per
    table), so range scans can early-terminate.
    """

    def __init__(self, name: str, columns: Sequence[Column], capacity: int = 4096):
        if capacity <= 0:
            raise HwdbError(f"table capacity must be positive, got {capacity}")
        seen = set()
        for column in columns:
            if column.name == TS_COLUMN:
                raise HwdbError(f"column name {TS_COLUMN!r} is reserved")
            if column.name in seen:
                raise HwdbError(f"duplicate column {column.name!r}")
            seen.add(column.name)
        self.name = name.lower()
        self.columns: List[Column] = list(columns)
        self.capacity = capacity
        self._index: Dict[str, int] = {
            column.name: i for i, column in enumerate(self.columns)
        }
        self._buffer: List[Optional[Row]] = [None] * capacity
        self._head = 0  # next write slot
        self._count = 0  # rows currently stored (<= capacity)
        self.total_inserted = 0
        self.last_timestamp = float("-inf")
        #: Duck-typed durable-tier hooks (set by repro.store, never by
        #: hwdb itself): ``spill`` receives on_append/on_evict/on_clear,
        #: ``archive`` serves scan_since for tier-spanning windows.
        self.spill = None
        self.archive = None

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index or name.lower() == TS_COLUMN

    def column_position(self, name: str) -> int:
        """Position in the value tuple; raises for the timestamp column."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise HwdbError(f"table {self.name!r} has no column {name!r}") from None

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(self, timestamp: float, values: Sequence[Any]) -> Row:
        """Append one event; values are coerced to the column types."""
        if len(values) != len(self.columns):
            raise HwdbError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        coerced = tuple(
            column.ctype.coerce(value)
            for column, value in zip(self.columns, values)
        )
        # Clamp to keep timestamps monotone (events arriving same-tick).
        timestamp = max(float(timestamp), self.last_timestamp)
        self.last_timestamp = timestamp
        row = Row(timestamp, coerced)
        spill = self.spill
        if spill is not None and self._count == self.capacity:
            evicted = self._buffer[self._head]
            if evicted is not None:
                # The slot's occupant leaves the ring right now; its seq
                # is total_inserted - capacity + 1 (pre-increment).
                spill.on_evict(self, self.total_inserted - self.capacity + 1, evicted)
        self._buffer[self._head] = row
        self._head = (self._head + 1) % self.capacity
        if self._count < self.capacity:
            self._count += 1
        self.total_inserted += 1
        if spill is not None:
            spill.on_append(self, self.total_inserted, row)
        return row

    def insert_dict(self, timestamp: float, record: Dict[str, Any]) -> Row:
        """Insert from a column-name mapping (missing keys are an error)."""
        try:
            values = [record[column.name] for column in self.columns]
        except KeyError as exc:
            raise HwdbError(
                f"missing column {exc.args[0]!r} for table {self.name!r}"
            ) from None
        return self.insert(timestamp, values)

    def clear(self) -> None:
        if self.spill is not None:
            # Fired before the reset so the tier can see what the ring
            # is about to discard (rows never evicted are lost for good).
            self.spill.on_clear(self)
        self._buffer = [None] * self.capacity
        self._head = 0
        self._count = 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def overwritten(self) -> int:
        """Events lost to the ring (inserted minus retained)."""
        return self.total_inserted - self._count

    def rows(self) -> Iterator[Row]:
        """All retained rows, oldest first."""
        if self._count == 0:
            return
        start = (self._head - self._count) % self.capacity
        for offset in range(self._count):
            row = self._buffer[(start + offset) % self.capacity]
            if row is not None:
                yield row

    def rows_since(self, t_from: float) -> Iterator[Row]:
        """Rows with ``timestamp >= t_from``, oldest first."""
        for row in self.rows():
            if row.timestamp >= t_from:
                yield row

    def last_rows(self, n: int) -> List[Row]:
        """The most recent ``n`` rows, oldest first."""
        if n <= 0 or self._count == 0:
            return []
        n = min(n, self._count)
        start = (self._head - n) % self.capacity
        result = []
        for offset in range(n):
            row = self._buffer[(start + offset) % self.capacity]
            if row is not None:
                result.append(row)
        return result

    @property
    def append_seq(self) -> int:
        """Sequence number of the newest row (1-based; 0 = empty history).

        Every insert gets the next sequence number, so the retained rows
        are exactly those with seq in ``(overwritten, total_inserted]``.
        The query engine's delta scans watermark on this.
        """
        return self.total_inserted

    def rows_with_seq_since(self, seq: int) -> List[Tuple[int, Row]]:
        """Rows appended after sequence number ``seq``, oldest first.

        Returns ``(seq, row)`` pairs.  Rows that were appended *and*
        already overwritten since the watermark are gone — the caller
        sees only what the ring still retains, which is also all any
        full rescan at this instant could see.
        """
        missed = self.total_inserted - seq
        if missed <= 0:
            return []
        n = min(missed, self._count)
        first_seq = self.total_inserted - n + 1
        return [
            (first_seq + i, row) for i, row in enumerate(self.last_rows(n))
        ]

    def newest(self) -> Optional[Row]:
        if self._count == 0:
            return None
        return self._buffer[(self._head - 1) % self.capacity]

    def oldest(self) -> Optional[Row]:
        if self._count == 0:
            return None
        return self._buffer[(self._head - self._count) % self.capacity]

    def row_as_dict(self, row: Row) -> Dict[str, Any]:
        record = {TS_COLUMN: row.timestamp}
        for column, value in zip(self.columns, row.values):
            record[column.name] = value
        return record

    def __repr__(self) -> str:
        return (
            f"StreamTable({self.name!r}, cols={len(self.columns)}, "
            f"rows={self._count}/{self.capacity})"
        )
