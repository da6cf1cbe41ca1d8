"""The datapath's flow table: priority-ordered wildcard rules.

"Each OpenFlow datapath contains a set of physical ports, plus a flow
table and a set of actions associated with each flow entry."  Entries
carry priorities, idle/hard timeouts, cookies and packet/byte counters,
matching OpenFlow 1.0 semantics.

Lookup is indexed (DESIGN.md §14): exact-match rules live in one hash
table probed with the packet's key tuple, and wildcard rules are grouped
into buckets by wildcard mask — every rule in a bucket specifies the
same fields (with the same CIDR prefixes), so a single masked hash probe
finds all candidates at once.  Buckets are visited in descending
max-priority order with early exit, preserving the linear scan's exact
winner (priority, then insertion order).

The table takes the two flow-mods the router sends: an add, which
replaces a rule with the same pattern and priority, and a loose delete.
Deletes are indexed too: every entry also sits in a group for each MAC
address it pins, keyed by (field, value).  A delete whose match pins
``dl_src`` or ``dl_dst`` — as every delete the router sends does —
confirms just the smaller group instead of scanning the table.
:class:`LinearFlowTable` keeps the original O(n) scans as the
differential-testing reference.

Rules are indexed by their :attr:`Match.key`, the packet key tuple's
own layout, so a packet's key and a rule's values go through the same
masked compare (:func:`_masked`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Collection, Dict, List, Optional, Tuple

from ..core.errors import DatapathError
from .actions import ActionList
from .match import DL_DST_INDEX, DL_SRC_INDEX, NW_DST_INDEX, NW_SRC_INDEX, Match

DEFAULT_PRIORITY = 0x8000
NO_TIMEOUT = 0.0


class FlowEntry:
    """One rule: match + priority + actions + timeouts + counters."""

    __slots__ = (
        "match",
        "priority",
        "actions",
        "idle_timeout",
        "hard_timeout",
        "cookie",
        "created_at",
        "last_used_at",
        "packet_count",
        "byte_count",
        "send_flow_removed",
        "_order",
        "_index_key",
    )

    def __init__(
        self,
        match: Match,
        actions: ActionList,
        priority: int = DEFAULT_PRIORITY,
        idle_timeout: float = NO_TIMEOUT,
        hard_timeout: float = NO_TIMEOUT,
        cookie: int = 0,
        created_at: float = 0.0,
        send_flow_removed: bool = False,
    ):
        self.match = match
        self.priority = int(priority)
        self.actions = list(actions)
        self.idle_timeout = float(idle_timeout)
        self.hard_timeout = float(hard_timeout)
        self.cookie = int(cookie)
        self.created_at = float(created_at)
        self.last_used_at = float(created_at)
        self.packet_count = 0
        self.byte_count = 0
        self.send_flow_removed = bool(send_flow_removed)
        # Index bookkeeping, owned by the FlowTable holding this entry:
        # insertion order (the priority tie-breaker) and the (mask, key)
        # pair locating the entry's bucket slot.
        self._order = 0
        self._index_key: Optional[Tuple[Tuple, Tuple]] = None

    def touch(self, now: float, nbytes: int) -> None:
        """Record one matched packet."""
        self.packet_count += 1
        self.byte_count += nbytes
        self.last_used_at = now

    def expired(self, now: float) -> Optional[str]:
        """Return 'idle'/'hard' when timed out at ``now``, else None."""
        if self.hard_timeout > 0 and now - self.created_at >= self.hard_timeout:
            return "hard"
        if self.idle_timeout > 0 and now - self.last_used_at >= self.idle_timeout:
            return "idle"
        return None

    @property
    def duration(self) -> float:
        return self.last_used_at - self.created_at

    def __repr__(self) -> str:
        return (
            f"FlowEntry(priority={self.priority}, match={self.match}, "
            f"actions={self.actions}, packets={self.packet_count})"
        )


def _prefix_mask(prefixlen: int) -> int:
    """The 32-bit netmask for a prefix length (<= 0 masks everything off)."""
    if prefixlen <= 0:
        return 0
    return ((1 << prefixlen) - 1) << (32 - prefixlen)


def _mask_of(match: Match) -> Tuple:
    """The wildcard mask identifying a match's bucket.

    One element per concrete field: ``(field_index, netmask-or-None)``.
    Two matches share a bucket iff they specify the same fields with the
    same CIDR prefixes, so a bucket probe is a single masked hash lookup.
    """
    spec: List[Tuple[int, Optional[int]]] = []
    for index, value in enumerate(match.key):
        if value is None:
            continue
        if index == NW_SRC_INDEX:
            spec.append((index, _prefix_mask(match.nw_src_prefix)))
        elif index == NW_DST_INDEX:
            spec.append((index, _prefix_mask(match.nw_dst_prefix)))
        else:
            spec.append((index, None))
    return tuple(spec)


def _masked(key_tuple: Tuple, mask: Tuple) -> Optional[Tuple]:
    """A key tuple's values under a bucket mask.

    For a rule's own :attr:`Match.key` under its own mask this is the
    rule's slot in its bucket; for a packet's key it is the slot of
    every rule with that mask that matches the packet.  None when the
    key lacks a field the mask makes concrete (e.g. a transport port on
    an ARP frame): no rule with that mask matches.
    """
    parts: List[int] = []
    for index, netmask in mask:
        value = key_tuple[index]
        if value is None:
            return None
        parts.append(value if netmask is None else value & netmask)
    return tuple(parts)


def _group_keys(match: Match) -> List[Tuple[str, int]]:
    """The delete index groups of a match: ``(field, value)`` for each
    MAC address it pins."""
    keys = []
    dl_src, dl_dst = match.key[DL_SRC_INDEX], match.key[DL_DST_INDEX]
    if dl_src is not None:
        keys.append(("dl_src", dl_src))
    if dl_dst is not None:
        keys.append(("dl_dst", dl_dst))
    return keys


def _table_rank(entry: FlowEntry) -> Tuple[int, int]:
    """An entry's place in table order: descending priority, then
    insertion order."""
    return (-entry.priority, entry._order)


class _Bucket:
    """All wildcard entries sharing one mask, hashed by concrete fields.

    ``slots`` maps a masked value tuple to the entries carrying exactly
    those concrete values, kept sorted best-first (descending priority,
    ascending insertion order) so a probe's winner is ``slot[0]``.
    """

    __slots__ = ("mask", "slots", "size", "_prio_counts", "_max_priority")

    def __init__(self, mask: Tuple):
        self.mask = mask
        self.slots: Dict[Tuple, List[FlowEntry]] = {}
        self.size = 0
        self._prio_counts: Dict[int, int] = {}
        self._max_priority = 0

    @property
    def max_priority(self) -> int:
        return self._max_priority

    def insert(self, key: Tuple, entry: FlowEntry) -> None:
        slot = self.slots.get(key)
        if slot is None:
            self.slots[key] = [entry]
        else:
            rank = (-entry.priority, entry._order)
            position = 0
            while position < len(slot) and (
                (-slot[position].priority, slot[position]._order) < rank
            ):
                position += 1
            slot.insert(position, entry)
        self.size += 1
        count = self._prio_counts.get(entry.priority, 0) + 1
        self._prio_counts[entry.priority] = count
        if entry.priority > self._max_priority:
            self._max_priority = entry.priority

    def remove(self, key: Tuple, entry: FlowEntry) -> None:
        slot = self.slots.get(key)
        if slot is None:
            return
        for position, existing in enumerate(slot):
            if existing is entry:
                del slot[position]
                break
        else:
            return
        if not slot:
            del self.slots[key]
        self.size -= 1
        count = self._prio_counts[entry.priority] - 1
        if count:
            self._prio_counts[entry.priority] = count
        else:
            del self._prio_counts[entry.priority]
            if entry.priority == self._max_priority:
                self._max_priority = (
                    max(self._prio_counts) if self._prio_counts else 0
                )

    def probe(self, key_tuple: Tuple) -> Optional[FlowEntry]:
        """Best entry matching the packet's key tuple, or None.

        Every entry in a slot genuinely matches (masked equality is the
        match condition field-for-field), so the best-first slot order
        makes the head the bucket's answer.
        """
        masked = _masked(key_tuple, self.mask)
        if masked is None:
            return None
        slot = self.slots.get(masked)
        return slot[0] if slot else None


class FlowTable:
    """Priority-ordered rule set with OpenFlow add and loose-delete
    semantics.

    Lookup resolves exactly as a descending-priority scan would
    (insertion order breaks ties, matching NOX-era switch behaviour) but
    probes the hash index instead of scanning.  The datapath keeps its
    exact-match fast path separately; this table is the "userspace" tier.
    """

    def __init__(self, max_entries: int = 65536):
        self._entries: List[FlowEntry] = []
        #: Negated priorities aligned with ``_entries`` so bisect finds
        #: insertion points without a Python-level walk.
        self._neg_priorities: List[int] = []
        self.max_entries = max_entries
        # The index: exact-match rules in one dict keyed by the full key
        # tuple; wildcard rules in per-mask buckets.
        self._exact: Dict[Tuple, List[FlowEntry]] = {}
        self._exact_size = 0
        self._buckets: Dict[Tuple, _Bucket] = {}
        self._ordered_buckets: List[_Bucket] = []
        self._order_dirty = False
        self._next_order = 0
        # Delete index: (field, MAC) -> {_order: entry} for the dl_src
        # and dl_dst each entry pins.
        self._groups: Dict[Tuple[str, int], Dict[int, FlowEntry]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def entries(self) -> List[FlowEntry]:
        return list(self._entries)

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------

    def _index(self, entry: FlowEntry) -> None:
        groups = self._groups
        for group_key in _group_keys(entry.match):
            group = groups.get(group_key)
            if group is None:
                groups[group_key] = {entry._order: entry}
            else:
                group[entry._order] = entry
        if entry.match.is_exact:
            key = entry.match.key
            entry._index_key = (_EXACT_SENTINEL, key)
            slot = self._exact.get(key)
            if slot is None:
                self._exact[key] = [entry]
            else:
                rank = (-entry.priority, entry._order)
                position = 0
                while position < len(slot) and (
                    (-slot[position].priority, slot[position]._order) < rank
                ):
                    position += 1
                slot.insert(position, entry)
            self._exact_size += 1
            return
        mask = _mask_of(entry.match)
        key = _masked(entry.match.key, mask)
        entry._index_key = (mask, key)
        bucket = self._buckets.get(mask)
        if bucket is None:
            bucket = _Bucket(mask)
            self._buckets[mask] = bucket
            self._order_dirty = True
        bucket.insert(key, entry)
        self._order_dirty = True

    def _unindex(self, entry: FlowEntry) -> None:
        if entry._index_key is None:
            return
        groups = self._groups
        for group_key in _group_keys(entry.match):
            group = groups[group_key]
            del group[entry._order]
            if not group:
                del groups[group_key]
        mask, key = entry._index_key
        entry._index_key = None
        if mask is _EXACT_SENTINEL:
            slot = self._exact.get(key)
            if slot is None:
                return
            for position, existing in enumerate(slot):
                if existing is entry:
                    del slot[position]
                    self._exact_size -= 1
                    break
            if not slot:
                del self._exact[key]
            return
        bucket = self._buckets.get(mask)
        if bucket is None:
            return
        bucket.remove(key, entry)
        if bucket.size == 0:
            del self._buckets[mask]
        self._order_dirty = True

    def _candidates(self, match: Match) -> Optional[Collection[FlowEntry]]:
        """The entries a delete on ``match`` can remove, or None when
        ``match`` pins neither MAC address and the table must be scanned.

        Every entry that ``match`` covers pins each MAC address ``match``
        pins, to the same value.  So it sits in the group of each of
        them, and the smaller group holds all of them; a missing group
        means none exists.
        """
        smallest: Optional[Dict[int, FlowEntry]] = None
        for group_key in _group_keys(match):
            group = self._groups.get(group_key)
            if group is None:
                return ()
            if smallest is None or len(group) < len(smallest):
                smallest = group
        return None if smallest is None else smallest.values()

    def _bucket_order(self) -> List[_Bucket]:
        if self._order_dirty:
            self._ordered_buckets = sorted(
                self._buckets.values(), key=lambda b: -b.max_priority
            )
            self._order_dirty = False
        return self._ordered_buckets

    def _replace_candidate(self, entry: FlowEntry) -> Optional[FlowEntry]:
        """An installed rule with the same pattern and priority, if any."""
        match = entry.match
        if match.is_exact:
            slot = self._exact.get(match.key)
        else:
            mask = _mask_of(match)
            bucket = self._buckets.get(mask)
            slot = (
                bucket.slots.get(_masked(match.key, mask))
                if bucket is not None
                else None
            )
        if not slot:
            return None
        for existing in slot:
            if existing.priority == entry.priority and existing.match.same_pattern(
                match
            ):
                return existing
        return None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, entry: FlowEntry) -> None:
        """Insert ``entry``; replaces an identical (match, priority) rule.

        Keeps the list sorted by descending priority; stable within a
        priority so earlier rules win ties.
        """
        existing = self._replace_candidate(entry)
        if existing is not None:
            # Take over the old rule's list position and tie-break
            # order, exactly as the in-place replacement did.
            entry._order = existing._order
            position = self._entries.index(existing)
            self._entries[position] = entry
            self._unindex(existing)
            self._index(entry)
            return
        if len(self._entries) >= self.max_entries:
            raise DatapathError(f"flow table full ({self.max_entries} entries)")
        entry._order = self._next_order
        self._next_order += 1
        index = bisect_right(self._neg_priorities, -entry.priority)
        self._entries.insert(index, entry)
        self._neg_priorities.insert(index, -entry.priority)
        self._index(entry)

    def resolve(self, key_tuple: Tuple) -> Optional[FlowEntry]:
        """Highest-priority entry matching a packet's key tuple, as the
        datapath reads it off the frame (:func:`repro.net.rewrite.flow_key`),
        or None (table miss)."""
        best: Optional[FlowEntry] = None
        slot = self._exact.get(key_tuple)
        if slot:
            best = slot[0]
        for bucket in self._bucket_order():
            if best is not None and bucket.max_priority < best.priority:
                break
            candidate = bucket.probe(key_tuple)
            if candidate is not None and (
                best is None
                or (-candidate.priority, candidate._order)
                < (-best.priority, best._order)
            ):
                best = candidate
        return best

    def delete(self, match: Match) -> List[FlowEntry]:
        """Remove the entries ``match`` covers (a loose delete); returns
        them in table order (for flow-removed events)."""
        candidates = self._candidates(match)
        removed = [
            entry
            for entry in (self._entries if candidates is None else candidates)
            if _covers(match, entry.match)
        ]
        if removed:
            if candidates is not None:
                removed.sort(key=_table_rank)
            for entry in removed:
                self._unindex(entry)
            # One filtering pass: what _unindex just cleared is gone.
            self._entries = [e for e in self._entries if e._index_key is not None]
            self._neg_priorities = [-e.priority for e in self._entries]
        return removed

    def expire(self, now: float) -> List[tuple]:
        """Remove timed-out entries; returns [(entry, reason), ...]."""
        expired: List[tuple] = []
        kept: List[FlowEntry] = []
        for entry in self._entries:
            reason = entry.expired(now)
            if reason is None:
                kept.append(entry)
            else:
                expired.append((entry, reason))
        if expired:
            self._entries = kept
            self._neg_priorities = [-entry.priority for entry in kept]
            for entry, _reason in expired:
                self._unindex(entry)
        return expired

    def clear(self) -> int:
        count = len(self._entries)
        self._entries = []
        self._neg_priorities = []
        self._exact = {}
        self._exact_size = 0
        self._buckets = {}
        self._ordered_buckets = []
        self._order_dirty = False
        self._groups = {}
        return count

    def index_stats(self) -> Dict[str, int]:
        """Index shape, for diagnostics and the hot-path bench."""
        return {
            "entries": len(self._entries),
            "exact": self._exact_size,
            "wildcard_buckets": len(self._buckets),
        }


#: Sentinel mask marking entries indexed in the exact-match dict.
_EXACT_SENTINEL: Tuple = ("exact",)


def matching_keys(match: Match, key_tuples: Collection[Tuple]) -> List[Tuple]:
    """The packet key tuples among ``key_tuples`` that ``match`` matches.

    The masked comparison a bucket probe makes.  An exact match can only
    match its own key, so with a dict of keys it is one membership test.
    """
    if match.is_exact:
        return [match.key] if match.key in key_tuples else []
    mask = _mask_of(match)
    want = _masked(match.key, mask)
    return [key for key in key_tuples if _masked(key, mask) == want]


class LinearFlowTable(FlowTable):
    """The original O(n) scans, kept as the testing reference.

    Adds and expiry are inherited (the entry list is maintained
    identically); ``resolve`` and ``delete`` are literal walks of the
    priority-sorted list, and ``resolve`` asks each rule's
    :meth:`Match.matches`, not the index's masked compare.  The
    differential property tests assert that this and :class:`FlowTable`
    pick the identical winner, and remove the identical entries in the
    identical order.
    """

    def resolve(self, key_tuple: Tuple) -> Optional[FlowEntry]:
        for entry in self._entries:
            if entry.match.matches(key_tuple):
                return entry
        return None

    def delete(self, match: Match) -> List[FlowEntry]:
        removed: List[FlowEntry] = []
        kept: List[FlowEntry] = []
        for entry in self._entries:
            if _covers(match, entry.match):
                removed.append(entry)
            else:
                kept.append(entry)
        if removed:
            self._entries = kept
            self._neg_priorities = [-entry.priority for entry in kept]
            for entry in removed:
                self._unindex(entry)
        return removed


def _overlaps(a: Match, b: Match) -> bool:
    """True when some packet could match both ``a`` and ``b``.

    Field-wise: the matches are disjoint iff some field is specified by
    both with incompatible values; otherwise a witness packet exists.
    """
    for index, (value_a, value_b) in enumerate(zip(a.key, b.key)):
        if value_a is None or value_b is None:
            continue
        if index == NW_SRC_INDEX or index == NW_DST_INDEX:
            if index == NW_SRC_INDEX:
                prefixlen = min(a.nw_src_prefix, b.nw_src_prefix)
            else:
                prefixlen = min(a.nw_dst_prefix, b.nw_dst_prefix)
            mask = _prefix_mask(prefixlen)
            if (value_a & mask) != (value_b & mask):
                return False
        elif value_a != value_b:
            return False
    return True


def _covers(wide: Match, narrow: Match) -> bool:
    """True when every packet matched by ``narrow`` is matched by ``wide``.

    ``narrow``'s key stands in for a packet key in the bucket probe's
    masked compare against ``wide``: ``narrow`` must pin every field
    ``wide`` pins, to the same value under ``wide``'s mask.  A key has
    no prefix length, so one check is added: no CIDR prefix of
    ``narrow`` may be shorter than ``wide``'s.
    """
    if (wide.key[NW_SRC_INDEX] is not None and narrow.nw_src_prefix < wide.nw_src_prefix) or (
        wide.key[NW_DST_INDEX] is not None and narrow.nw_dst_prefix < wide.nw_dst_prefix
    ):
        return False
    mask = _mask_of(wide)
    return _masked(narrow.key, mask) == _masked(wide.key, mask)
