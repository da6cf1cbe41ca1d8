"""Content digests of hwdb tables.

A digest fingerprints everything observable about a ring-buffer table:
its name, capacity, ``total_inserted`` and every retained row
(timestamp + values).  Two databases that digest equal hold the same
rows in the same order.  The fuzzer's crash op and ``repro.store``
recovery compare a rebuilt database against the live rings this way,
and the end-to-end bench folds the digests into its run fingerprint.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from .database import HomeworkDatabase
from .table import StreamTable

#: Tables left out of :func:`database_digests`: ``metrics`` rows carry
#: wall-clock latencies, which never replay bit-identically.
DIGEST_EXCLUDED_TABLES = frozenset({"metrics"})


def table_digest(table: StreamTable) -> str:
    """SHA-256 over the retained rows (timestamps + values) and counters.

    Formatting is explicit (``repr`` for floats) so the digest is stable
    across processes regardless of ``PYTHONHASHSEED``.
    """
    hasher = hashlib.sha256()
    hasher.update(
        f"{table.name}|{table.capacity}|{table.total_inserted}\n".encode()
    )
    for row in table.rows():
        hasher.update(repr(row.timestamp).encode())
        for value in row.values:
            hasher.update(b"|")
            hasher.update(repr(value).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def database_digests(db: HomeworkDatabase) -> Dict[str, str]:
    """Per-table digests of every table except :data:`DIGEST_EXCLUDED_TABLES`."""
    return {
        name: table_digest(db.table(name))
        for name in db.tables()
        if name not in DIGEST_EXCLUDED_TABLES
    }


__all__ = ["DIGEST_EXCLUDED_TABLES", "database_digests", "table_digest"]
