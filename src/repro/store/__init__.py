"""repro.store — the durable tier under hwdb's rings.

hwdb is "an active ephemeral stream database": fixed-size memory rings,
nothing on disk.  The paper's interfaces quietly want more — the network
artifact animates bandwidth against "the last day's peak", and the RPC
exists so applications can go "persisting output as desired".  This
package gives each :class:`~repro.hwdb.table.StreamTable` an optional
durable cold tier:

* appends are group-committed to a per-database write-ahead log
  (:mod:`.wal`: length-prefixed, CRC32-framed binary records);
* rows evicted from a ring spill into time-indexed segment files
  (:mod:`.segment`), summarised in a manifest for pruning;
* a compactor merges and expires segments under a retention policy
  (:mod:`.compact`);
* crash recovery (:mod:`.recover`) rebuilds ring + archive from the
  WAL tail and the segment index, tolerating torn writes;
* CQL windows that reach past ring retention transparently extend
  their scans over the archive (the duck-typed ``table.archive`` hook
  consumed by :func:`repro.hwdb.cql.executor.apply_window_ex`).

hwdb itself never imports this package: a store attaches to a database
via the duck-typed ``db.set_store(store)`` hook, and to tables via the
``table.spill`` / ``table.archive`` attributes.
"""

from .archive import ArchiveScanInfo, DurableStore, TableTier
from .compact import RetentionPolicy, compact_store
from .recover import RecoveredStore, recover_store
from .segment import SegmentInfo
from .wal import WriteAheadLog, read_wal

__all__ = [
    "ArchiveScanInfo",
    "DurableStore",
    "RecoveredStore",
    "RetentionPolicy",
    "SegmentInfo",
    "TableTier",
    "WriteAheadLog",
    "compact_store",
    "read_wal",
    "recover_store",
]
