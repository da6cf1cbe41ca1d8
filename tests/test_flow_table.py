"""Flow table semantics: priorities, timeouts, add/modify/delete, actions."""

import pytest

from repro.core.errors import DatapathError
from repro.net import ETH_TYPE_IPV4, Ethernet, IPv4, PROTO_TCP, TCP
from repro.openflow.actions import (
    Output,
    SetDlDst,
    SetDlSrc,
    SetNwDst,
    SetNwSrc,
    SetTpDst,
    SetTpSrc,
    drop,
    output,
    route_rewrite,
)
from repro.openflow.flow_table import FlowEntry, FlowTable
from repro.openflow.match import FlowKey, Match


def key(sport=1000, dport=80, in_port=1):
    frame = Ethernet(
        "02:00:00:00:00:02",
        "02:00:00:00:00:01",
        ETH_TYPE_IPV4,
        IPv4("10.0.0.1", "10.0.0.2", proto=PROTO_TCP, payload=TCP(sport, dport)),
    )
    return FlowKey.extract(frame.pack(), in_port)


def tcp_frame(sport, dport, src="10.0.0.1", dst="10.0.0.2"):
    """A canonical TCP frame; the checksums are the codecs' own."""
    return Ethernet(
        "02:00:00:00:00:02",
        "02:00:00:00:00:01",
        ETH_TYPE_IPV4,
        IPv4(src, dst, proto=PROTO_TCP, payload=TCP(sport, dport)),
    ).pack()


class TestActions:
    def test_drop_is_empty(self):
        assert drop() == []

    def test_output_helper(self):
        actions = output(3)
        assert isinstance(actions[0], Output) and actions[0].port == 3

    def test_set_dl_actions_rewrite(self):
        buf = bytearray(
            Ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800, b"").pack()
        )
        SetDlSrc("02:aa:aa:aa:aa:aa").apply(buf)
        SetDlDst("02:bb:bb:bb:bb:bb").apply(buf)
        frame = Ethernet.unpack(bytes(buf))
        assert str(frame.src) == "02:aa:aa:aa:aa:aa"
        assert str(frame.dst) == "02:bb:bb:bb:bb:bb"

    def test_set_nw_actions_rewrite(self):
        buf = bytearray(tcp_frame(1, 2))
        SetNwSrc("1.1.1.1").apply(buf)
        SetNwDst("2.2.2.2").apply(buf)
        ip = Ethernet.unpack(bytes(buf)).find(IPv4)
        assert str(ip.src) == "1.1.1.1" and str(ip.dst) == "2.2.2.2"
        assert bytes(buf) == tcp_frame(1, 2, src="1.1.1.1", dst="2.2.2.2")

    def test_set_tp_actions_rewrite(self):
        buf = bytearray(tcp_frame(1, 2))
        SetTpSrc(100).apply(buf)
        SetTpDst(200).apply(buf)
        tcp = Ethernet.unpack(bytes(buf)).find(TCP)
        assert (tcp.sport, tcp.dport) == (100, 200)
        assert bytes(buf) == tcp_frame(100, 200)

    def test_nw_action_noop_on_non_ip(self):
        raw = Ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", 0x9999, bytes(40)).pack()
        buf = bytearray(raw)
        SetNwSrc("1.1.1.1").apply(buf)  # silently does nothing
        assert bytes(buf) == raw

    def test_route_rewrite_composition(self):
        actions = route_rewrite("02:aa:00:00:00:01", "02:bb:00:00:00:02", 7)
        assert isinstance(actions[0], SetDlSrc)
        assert isinstance(actions[1], SetDlDst)
        assert isinstance(actions[2], Output) and actions[2].port == 7

    def test_action_equality(self):
        assert Output(1) == Output(1)
        assert Output(1) != Output(2)
        assert SetDlSrc("02:00:00:00:00:01") == SetDlSrc("02:00:00:00:00:01")


class TestFlowEntry:
    def test_touch_updates_counters(self):
        entry = FlowEntry(Match.any(), output(1), created_at=0.0)
        entry.touch(1.0, 100)
        entry.touch(2.0, 50)
        assert entry.packet_count == 2
        assert entry.byte_count == 150
        assert entry.last_used_at == 2.0

    def test_idle_timeout(self):
        entry = FlowEntry(Match.any(), output(1), idle_timeout=5.0, created_at=0.0)
        entry.touch(10.0, 1)
        assert entry.expired(14.0) is None
        assert entry.expired(15.0) == "idle"

    def test_hard_timeout(self):
        entry = FlowEntry(Match.any(), output(1), hard_timeout=10.0, created_at=0.0)
        entry.touch(9.0, 1)
        assert entry.expired(9.5) is None
        assert entry.expired(10.0) == "hard"

    def test_hard_beats_idle(self):
        entry = FlowEntry(
            Match.any(), output(1), idle_timeout=1.0, hard_timeout=2.0, created_at=0.0
        )
        assert entry.expired(5.0) == "hard"

    def test_no_timeout_never_expires(self):
        entry = FlowEntry(Match.any(), output(1), created_at=0.0)
        assert entry.expired(1e9) is None


class TestFlowTable:
    def test_resolve_picks_like_lookup_without_counting(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1), priority=10))
        table.add(FlowEntry(Match.any(), output(2), priority=1))
        web = key(dport=80)
        assert table.resolve(web.as_tuple()) is table.lookup(web)
        assert (table.lookup_count, table.matched_count) == (1, 1)

    def test_lookup_miss(self):
        table = FlowTable()
        assert table.lookup(key()) is None
        assert table.lookup_count == 1
        assert table.matched_count == 0

    def test_priority_order(self):
        table = FlowTable()
        table.add(FlowEntry(Match.any(), output(1), priority=10))
        table.add(FlowEntry(Match(tp_dst=80), output(2), priority=100))
        hit = table.lookup(key(dport=80))
        assert hit.actions[0].port == 2
        hit2 = table.lookup(key(dport=443))
        assert hit2.actions[0].port == 1

    def test_equal_priority_insertion_order(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1), priority=50))
        table.add(FlowEntry(Match(nw_proto=PROTO_TCP), output(2), priority=50))
        assert table.lookup(key(dport=80)).actions[0].port == 1

    def test_replace_same_match_priority(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1), priority=50))
        table.add(FlowEntry(Match(tp_dst=80), output(9), priority=50))
        assert len(table) == 1
        assert table.lookup(key(dport=80)).actions[0].port == 9

    def test_no_replace_different_priority(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1), priority=50))
        table.add(FlowEntry(Match(tp_dst=80), output(2), priority=60))
        assert len(table) == 2

    def test_table_full(self):
        table = FlowTable(max_entries=2)
        table.add(FlowEntry(Match(tp_dst=1), output(1)))
        table.add(FlowEntry(Match(tp_dst=2), output(1)))
        with pytest.raises(DatapathError):
            table.add(FlowEntry(Match(tp_dst=3), output(1)))

    def test_modify_loose(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1)))
        table.add(FlowEntry(Match(tp_dst=443), output(1)))
        modified = table.modify(Match.any(), output(5))
        assert modified == 2
        assert all(e.actions[0].port == 5 for e in table)

    def test_modify_strict_needs_exact_pattern(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1), priority=50))
        assert table.modify(Match.any(), output(5), strict=True, priority=50) == 0
        assert table.modify(Match(tp_dst=80), output(5), strict=True, priority=50) == 1

    def test_delete_loose_covers(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80, nw_proto=PROTO_TCP), output(1)))
        table.add(FlowEntry(Match(tp_dst=443), output(1)))
        removed = table.delete(Match(nw_proto=PROTO_TCP))
        assert len(removed) == 1
        assert len(table) == 1

    def test_delete_all_with_wildcard(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1)))
        table.add(FlowEntry(Match(tp_dst=443), output(1)))
        removed = table.delete(Match.any())
        assert len(removed) == 2
        assert len(table) == 0

    def test_delete_strict(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1), priority=50))
        assert table.delete(Match(tp_dst=80), strict=True, priority=60) == []
        assert len(table.delete(Match(tp_dst=80), strict=True, priority=50)) == 1

    def test_delete_filtered_by_out_port(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1)))
        table.add(FlowEntry(Match(tp_dst=443), output(2)))
        removed = table.delete(Match.any(), out_port=2)
        assert len(removed) == 1
        assert removed[0].actions[0].port == 2

    def test_expire(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1), idle_timeout=5.0, created_at=0.0))
        table.add(FlowEntry(Match(tp_dst=443), output(1), created_at=0.0))
        expired = table.expire(6.0)
        assert len(expired) == 1
        assert expired[0][1] == "idle"
        assert len(table) == 1

    def test_clear(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1)))
        assert table.clear() == 1
        assert len(table) == 0

    def test_cidr_delete_covers_subnet(self):
        table = FlowTable()
        table.add(
            FlowEntry(Match(nw_src="10.0.1.5", dl_type=ETH_TYPE_IPV4), output(1))
        )
        removed = table.delete(
            Match(nw_src="10.0.0.0", nw_src_prefix=16, dl_type=ETH_TYPE_IPV4)
        )
        assert len(removed) == 1


class TestMutationEdges:
    """Edge cases around replacement, expiry-vs-lookup, and counters."""

    def test_readd_same_pattern_and_priority_replaces(self):
        table = FlowTable()
        first = FlowEntry(Match(tp_dst=80), output(1), priority=10)
        table.add(first)
        first.touch(1.0, 500)
        second = FlowEntry(Match(tp_dst=80), output(2), priority=10)
        table.add(second)
        # One entry, the new one: counters reset, actions swapped.
        assert len(table) == 1
        winner = table.lookup(key(dport=80))
        assert winner is second
        assert winner.packet_count == 0 and winner.byte_count == 0
        assert isinstance(winner.actions[0], Output) and winner.actions[0].port == 2
        assert table.index_stats()["entries"] == 1

    def test_readd_replacement_keeps_tie_break_position(self):
        table = FlowTable()
        older = FlowEntry(Match(tp_dst=80), output(1), priority=10)
        sibling = FlowEntry(Match(in_port=1), output(3), priority=10)
        table.add(older)
        table.add(sibling)
        # Replacing the older rule must not demote it behind its
        # same-priority sibling: insertion order is inherited.
        replacement = FlowEntry(Match(tp_dst=80), output(2), priority=10)
        table.add(replacement)
        assert table.lookup(key(dport=80)) is replacement

    def test_readd_different_priority_does_not_replace(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1), priority=10))
        table.add(FlowEntry(Match(tp_dst=80), output(2), priority=20))
        assert len(table) == 2

    def test_expired_but_unswept_entry_still_matches(self):
        # Expiry is a sweep (the datapath's periodic expire()), not a
        # lookup-side filter: a timed-out entry keeps matching until the
        # sweep removes it, exactly as the pre-index table behaved.
        table = FlowTable()
        entry = FlowEntry(Match(tp_dst=80), output(1), idle_timeout=2.0)
        table.add(entry)
        assert entry.expired(10.0) == "idle"
        assert table.lookup(key(dport=80)) is entry
        expired = table.expire(10.0)
        assert [(e, r) for e, r in expired] == [(entry, "idle")]
        assert table.lookup(key(dport=80)) is None

    def test_stats_counters_survive_eviction(self):
        table = FlowTable()
        entry = FlowEntry(Match(tp_dst=80), output(1), hard_timeout=5.0)
        table.add(entry)
        hit = table.lookup(key(dport=80))
        hit.touch(1.0, 1500)
        hit.touch(2.0, 1500)
        miss = table.lookup(key(dport=8080))
        assert miss is None
        [(evicted, reason)] = table.expire(100.0)
        assert reason == "hard"
        # The evicted entry carries its final counters (flow-removed
        # messages report them) and the table's own stats are untouched
        # by the eviction.
        assert evicted.packet_count == 2 and evicted.byte_count == 3000
        assert table.lookup_count == 2 and table.matched_count == 1
        assert len(table) == 0 and table.index_stats()["entries"] == 0
        # Post-eviction lookups keep counting on the same counters.
        assert table.lookup(key(dport=80)) is None
        assert table.lookup_count == 3 and table.matched_count == 1
