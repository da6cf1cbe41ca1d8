"""Differential property tests: indexed vs linear flow table.

Seeded random operation sequences (adds, which replace a rule with the
same pattern and priority; loose deletes, some pinning one MAC address
as the router's evictions do and some pinning none; idle/hard expiry;
counter touches) are applied to a :class:`FlowTable` (the indexed
implementation) and a :class:`LinearFlowTable` (the retained O(n)
reference) in lockstep.  Each delete must return the identical entries
in the identical order, and after every mutation both tables must
resolve a batch of random packet key tuples to the identical winner:
the index's masked probe against the reference's literal
:meth:`Match.matches` walk.  Entries are tagged with unique cookies so
"identical" is exact, not just same-pattern.
"""

import itertools
import random

import pytest

from repro.net import ETH_TYPE_IPV4, PROTO_TCP, PROTO_UDP
from repro.net.addresses import IPv4Address, MACAddress
import repro.openflow.flow_table as flow_table
from repro.openflow.actions import Output, output
from repro.openflow.flow_table import (
    FlowEntry,
    FlowTable,
    LinearFlowTable,
    _covers,
)
from repro.openflow.match import (
    DL_SRC_INDEX,
    MATCH_FIELDS,
    NW_DST_INDEX,
    NW_SRC_INDEX,
    Match,
)

MACS = tuple(MACAddress(f"02:aa:00:00:00:{i:02x}") for i in range(1, 5))
IPS = tuple(IPv4Address(f"10.1.{i}.{j}") for i in (0, 1) for j in (5, 6))
PREFIXES = (8, 16, 24, 32)
PROTOS = (PROTO_TCP, PROTO_UDP)
PORTS = (53, 80, 443)
PRIORITIES = (1, 10, 10, 100, 0x8000)
OUT_PORTS = (1, 2, 3)


def random_key(rng: random.Random) -> tuple:
    """A packet key tuple, as the datapath reads it off a frame."""
    has_ip = rng.random() < 0.85
    has_tp = has_ip and rng.random() < 0.8
    return (
        rng.choice((1, 2)),
        int(rng.choice(MACS)),
        int(rng.choice(MACS)),
        ETH_TYPE_IPV4 if has_ip else 0x0806,
        int(rng.choice(IPS)) if has_ip else None,
        int(rng.choice(IPS)) if has_ip else None,
        rng.choice(PROTOS) if has_ip else None,
        rng.choice(PORTS) if has_tp else None,
        rng.choice(PORTS) if has_tp else None,
    )


def random_match(rng: random.Random) -> Match:
    if rng.random() < 0.15:
        # Fully-concrete pattern: exercises the exact-match index.
        key = random_key(rng)
        if None not in key:
            return Match.from_key(key)
    kwargs = {}
    if rng.random() < 0.4:
        kwargs["in_port"] = rng.choice((1, 2))
    if rng.random() < 0.4:
        kwargs["dl_src"] = rng.choice(MACS)
    if rng.random() < 0.3:
        kwargs["dl_dst"] = rng.choice(MACS)
    if rng.random() < 0.3:
        kwargs["dl_type"] = ETH_TYPE_IPV4
    if rng.random() < 0.4:
        kwargs["nw_src"] = rng.choice(IPS)
        kwargs["nw_src_prefix"] = rng.choice(PREFIXES)
    if rng.random() < 0.4:
        kwargs["nw_dst"] = rng.choice(IPS)
        kwargs["nw_dst_prefix"] = rng.choice(PREFIXES)
    if rng.random() < 0.4:
        kwargs["nw_proto"] = rng.choice(PROTOS)
    if rng.random() < 0.4:
        kwargs["tp_src"] = rng.choice(PORTS)
    if rng.random() < 0.4:
        kwargs["tp_dst"] = rng.choice(PORTS)
    return Match(**kwargs)


def delete_match(rng: random.Random, table) -> Match:
    """A loose delete's match: one MAC address, as the router's
    evictions send; random; an installed entry's own pattern; or that
    pattern widened to a subset of its fields and shorter prefixes."""
    roll = rng.random()
    if roll < 0.3:
        field = rng.choice(("dl_src", "dl_dst"))
        return Match(**{field: rng.choice(MACS)})
    entries = table.entries()
    if not entries or roll < 0.5:
        return random_match(rng)
    base = rng.choice(entries)
    if rng.random() < 0.3:
        return base.match
    kwargs = {
        field: value
        for field, value in zip(MATCH_FIELDS, base.match.key)
        if value is not None and rng.random() < 0.5
    }
    for field in ("nw_src", "nw_dst"):
        if field in kwargs:
            prefix = getattr(base.match, field + "_prefix")
            kwargs[field + "_prefix"] = rng.choice([p for p in PREFIXES if p <= prefix])
    return Match(**kwargs)


def _cookie(entry) -> object:
    return None if entry is None else entry.cookie


def _outputs(table) -> list:
    """Each entry's cookie and output ports, in table order."""
    return [
        (e.cookie, [a.port for a in e.actions if isinstance(a, Output)])
        for e in table.entries()
    ]


def run_differential(seed: int, steps: int) -> None:
    rng = random.Random(seed)
    indexed, linear = FlowTable(), LinearFlowTable()
    cookies = itertools.count(1)
    now = 0.0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.55:
            match = random_match(rng)
            priority = rng.choice(PRIORITIES)
            idle = rng.choice((0.0, 0.0, 5.0))
            hard = rng.choice((0.0, 0.0, 12.0))
            cookie = next(cookies)
            port = rng.choice(OUT_PORTS)
            for table in (indexed, linear):
                table.add(
                    FlowEntry(
                        match,
                        output(port),
                        priority=priority,
                        idle_timeout=idle,
                        hard_timeout=hard,
                        cookie=cookie,
                        created_at=now,
                    )
                )
        elif roll < 0.72:
            match = delete_match(rng, indexed)
            removed_indexed = indexed.delete(match)
            removed_linear = linear.delete(match)
            # Same entries in the same (table) order: the datapath sends
            # flow-removed messages in this order.
            assert [e.cookie for e in removed_indexed] == [
                e.cookie for e in removed_linear
            ], f"seed={seed} delete {match}"
        elif roll < 0.85:
            now += rng.uniform(0.5, 6.0)
            expired_indexed = indexed.expire(now)
            expired_linear = linear.expire(now)
            assert sorted((e.cookie, r) for e, r in expired_indexed) == sorted(
                (e.cookie, r) for e, r in expired_linear
            )
        else:
            now += rng.uniform(0.0, 1.0)

        assert len(indexed) == len(linear)
        for _ in range(6):
            key = random_key(rng)
            winner_indexed = indexed.resolve(key)
            winner_linear = linear.resolve(key)
            assert _cookie(winner_indexed) == _cookie(winner_linear), (
                f"seed={seed} key={key}: indexed={winner_indexed} "
                f"linear={winner_linear}"
            )
            if winner_indexed is not None:
                # Touch both twins so idle expiry stays in lockstep.
                winner_indexed.touch(now, 100)
                winner_linear.touch(now, 100)

    # Final sweep: entry lists agree entry-for-entry.
    assert _outputs(indexed) == _outputs(linear)


@pytest.mark.tier1
@pytest.mark.parametrize("seed", range(8))
def test_differential_lookup_fast(seed):
    run_differential(seed, steps=120)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8, 48))
def test_differential_lookup_soak(seed):
    run_differential(seed, steps=400)


@pytest.mark.tier1
def test_flow_table_is_indexed_by_default():
    table = FlowTable()
    table.add(FlowEntry(Match(tp_dst=80), output(1), priority=10))
    key = (
        1, int(MACS[0]), int(MACS[1]), ETH_TYPE_IPV4, int(IPS[0]), int(IPS[1]), PROTO_TCP, 80, 80
    )
    table.add(FlowEntry(Match.from_key(key), output(2), priority=20))
    stats = table.index_stats()
    assert stats == {"entries": 2, "exact": 1, "wildcard_buckets": 1}


def _covers_fieldwise(wide: Match, narrow: Match) -> bool:
    """The field-by-field cover test the table used before it shared the
    bucket probe's masked compare: the reference for ``_covers``."""
    for index, (wide_value, narrow_value) in enumerate(zip(wide.key, narrow.key)):
        if wide_value is None:
            continue
        if index in (NW_SRC_INDEX, NW_DST_INDEX):
            field = MATCH_FIELDS[index]
            wide_prefix = getattr(wide, field + "_prefix")
            narrow_prefix = getattr(narrow, field + "_prefix")
            if narrow_value is None or narrow_prefix < wide_prefix:
                return False
            mask = ((1 << wide_prefix) - 1) << (32 - wide_prefix) if wide_prefix else 0
            if (wide_value & mask) != (narrow_value & mask):
                return False
        elif narrow_value != wide_value:
            return False
    return True


@pytest.mark.tier1
def test_covers_agrees_with_fieldwise_reference():
    rng = random.Random(21)
    verdicts = set()
    for _ in range(4000):
        wide, narrow = random_match(rng), random_match(rng)
        if rng.random() < 0.3:
            # A narrowed copy of ``wide``: the pairs a loose delete hits.
            fields = dict(zip(MATCH_FIELDS, wide.key))
            if fields["tp_dst"] is None:
                fields["tp_dst"] = rng.choice(PORTS)
            narrow = Match(
                **fields,
                nw_src_prefix=max(wide.nw_src_prefix, rng.choice(PREFIXES)),
                nw_dst_prefix=max(wide.nw_dst_prefix, rng.choice(PREFIXES)),
            )
        expected = _covers_fieldwise(wide, narrow)
        assert _covers(wide, narrow) == expected, (wide, narrow)
        verdicts.add(expected)
    assert verdicts == {True, False}


def _microflow(mac: MACAddress, sport: int) -> Match:
    return Match(
        in_port=1,
        dl_src=mac,
        dl_dst=MACS[0],
        dl_type=ETH_TYPE_IPV4,
        nw_src=IPS[0],
        nw_dst=IPS[1],
        nw_proto=PROTO_TCP,
        tp_src=sport,
        tp_dst=80,
    )


@pytest.mark.tier1
def test_replaced_entry_is_deleted_through_the_index():
    """A replacement inherits its predecessor's order, which keys the
    per-field groups: the predecessor's removal must not take the
    replacement's group slots with it."""
    table = FlowTable()
    wildcard = Match(dl_src=MACS[1], tp_dst=80)
    table.add(FlowEntry(_microflow(MACS[1], 1000), output(1), priority=10, cookie=1))
    table.add(FlowEntry(wildcard, output(1), priority=10, cookie=2))
    table.add(FlowEntry(_microflow(MACS[1], 1000), output(2), priority=10, cookie=3))
    table.add(FlowEntry(wildcard, output(2), priority=10, cookie=4))
    assert [e.cookie for e in table.entries()] == [3, 4]
    removed = table.delete(Match(dl_src=MACS[1]))
    assert [e.cookie for e in removed] == [3, 4]
    assert len(table) == 0
    assert table.index_stats() == {"entries": 0, "exact": 0, "wildcard_buckets": 0}
    assert table._groups == {}


@pytest.mark.tier1
def test_loose_delete_confirms_only_the_pinned_macs_entries(monkeypatch):
    macs = [MACAddress(0x02_BB_00_00_00_00 + n) for n in range(50)]
    table = FlowTable()
    for n in range(1000):
        table.add(FlowEntry(_microflow(macs[n % 50], 1024 + n), output(1), cookie=n))
    confirmed = []

    def counting_covers(wide, narrow):
        confirmed.append(narrow)
        return _covers(wide, narrow)

    monkeypatch.setattr(flow_table, "_covers", counting_covers)
    removed = table.delete(Match(dl_src=macs[7]))
    assert [e.cookie for e in removed] == list(range(7, 1000, 50))
    assert len(confirmed) <= 20
    assert all(m.key[DL_SRC_INDEX] == int(macs[7]) for m in confirmed)
    # A MAC with no entries is answered without confirming anything.
    confirmed.clear()
    assert table.delete(Match(dl_dst=macs[7])) == []
    assert confirmed == []
    assert len(table) == 980
