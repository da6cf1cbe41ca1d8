"""Datapath tests: two-tier lookup, punts, flow-mods, stats, packet-out."""

import pytest

from repro.core.errors import DatapathError
from repro.net import ETH_TYPE_IPV4, Ethernet, IPv4, PROTO_TCP, TCP
from repro.openflow.actions import (
    PORT_FLOOD,
    PORT_TABLE,
    SetDlDst,
    drop,
    output,
    to_controller,
)
from repro.openflow.channel import SecureChannel
from repro.openflow.datapath import Datapath
from repro.openflow.match import Match
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FC_ADD,
    FC_MODIFY,
    FC_MODIFY_STRICT,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    Hello,
    NO_BUFFER,
    PacketIn,
    PacketOut,
    RR_DELETE,
    RR_IDLE_TIMEOUT,
    StatsReply,
    StatsRequest,
    STATS_FLOW,
    STATS_PORT,
    STATS_TABLE,
)
from repro.sim.link import Link, Port
from repro.sim.simulator import Simulator


def frame_bytes(sport=1000, dport=80, src="10.0.0.1", dst="10.0.0.2"):
    return Ethernet(
        "02:00:00:00:00:02",
        "02:00:00:00:00:01",
        ETH_TYPE_IPV4,
        IPv4(src, dst, proto=PROTO_TCP, payload=TCP(sport, dport)),
    ).pack()


@pytest.fixture
def sim():
    return Simulator(seed=5)


@pytest.fixture
def dp(sim):
    """Datapath with two ports and a message-capturing channel."""
    datapath = Datapath(sim, datapath_id=42)
    datapath.add_port("eth1")
    datapath.add_port("eth2")
    messages = []
    channel = SecureChannel(sim, latency=0.0)
    channel.connect(datapath, messages.append)
    datapath.messages = messages  # type: ignore[attr-defined]
    return datapath


class TestPorts:
    def test_numbering(self, sim):
        datapath = Datapath(sim)
        p1 = datapath.add_port("a")
        p2 = datapath.add_port("b")
        assert (p1.number, p2.number) == (1, 2)

    def test_explicit_number(self, sim):
        datapath = Datapath(sim)
        port = datapath.add_port("x", number=10)
        assert port.number == 10
        assert datapath.add_port("y").number == 11

    def test_duplicate_number_rejected(self, sim):
        datapath = Datapath(sim)
        datapath.add_port("a", number=1)
        with pytest.raises(DatapathError):
            datapath.add_port("b", number=1)

    def test_unknown_port_lookup(self, sim):
        with pytest.raises(DatapathError):
            Datapath(sim).port(7)

    def test_port_descriptions(self, dp):
        descriptions = dp.port_descriptions()
        assert [d.number for d in descriptions] == [1, 2]


class TestPipeline:
    def test_miss_punts_to_controller(self, dp):
        dp.process_frame(frame_bytes(), in_port=1)
        punts = [m for m in dp.messages if isinstance(m, PacketIn)]
        assert len(punts) == 1
        assert punts[0].in_port == 1
        assert punts[0].buffer_id != NO_BUFFER
        assert dp.registry.value("openflow.miss_total") == 1

    def test_table_hit_then_cache_hit(self, dp):
        dp.handle_message(FlowMod.add(Match(tp_dst=80), output(2)))
        dp.process_frame(frame_bytes(), 1)
        assert dp.registry.value("openflow.table_hit_total") == 1
        assert dp.registry.value("openflow.cache_hit_total") == 0
        dp.process_frame(frame_bytes(), 1)
        assert dp.registry.value("openflow.cache_hit_total") == 1
        assert dp.cache_len() == 1

    def test_cache_disabled(self, sim):
        datapath = Datapath(sim, enable_cache=False)
        datapath.add_port("a")
        datapath.add_port("b")
        datapath.handle_message(FlowMod.add(Match(tp_dst=80), output(2)))
        datapath.process_frame(frame_bytes(), 1)
        datapath.process_frame(frame_bytes(), 1)
        assert datapath.registry.value("openflow.cache_hit_total") == 0
        assert datapath.registry.value("openflow.table_hit_total") == 2

    def test_forwarding_reaches_port(self, sim, dp):
        received = []
        peer = Port("host")
        peer.on_receive(lambda data, port: received.append(data))
        Link(sim, dp.port(2), peer)
        dp.handle_message(FlowMod.add(Match(tp_dst=80), output(2)))
        raw = frame_bytes()
        dp.process_frame(raw, 1)
        sim.run_for(1.0)
        assert received == [raw]

    def test_drop_rule(self, sim, dp):
        received = []
        peer = Port("host")
        peer.on_receive(lambda data, port: received.append(data))
        Link(sim, dp.port(2), peer)
        dp.handle_message(FlowMod.add(Match(tp_dst=80), drop()))
        dp.process_frame(frame_bytes(), 1)
        sim.run_for(1.0)
        assert received == []
        assert dp.misses == 0  # matched the drop rule

    def test_rewrite_applied(self, sim, dp):
        received = []
        peer = Port("host")
        peer.on_receive(lambda data, port: received.append(data))
        Link(sim, dp.port(2), peer)
        dp.handle_message(
            FlowMod.add(
                Match(tp_dst=80), [SetDlDst("02:dd:dd:dd:dd:dd")] + output(2)
            )
        )
        dp.process_frame(frame_bytes(), 1)
        sim.run_for(1.0)
        assert str(Ethernet.unpack(received[0]).dst) == "02:dd:dd:dd:dd:dd"

    def test_flood_excludes_in_port(self, sim, dp):
        received = {1: [], 2: []}
        for n in (1, 2):
            peer = Port(f"host{n}")
            peer.on_receive(lambda data, port, n=n: received[n].append(data))
            Link(sim, dp.port(n), peer)
        dp.handle_message(FlowMod.add(Match.any(), output(PORT_FLOOD)))
        dp.process_frame(frame_bytes(), 1)
        sim.run_for(1.0)
        assert received[1] == []
        assert len(received[2]) == 1

    def test_controller_action_not_cached(self, dp):
        dp.handle_message(FlowMod.add(Match(tp_dst=80), to_controller()))
        dp.process_frame(frame_bytes(), 1)
        dp.process_frame(frame_bytes(), 1)
        assert dp.cache_len() == 0
        punts = [m for m in dp.messages if isinstance(m, PacketIn)]
        assert len(punts) == 2

    def test_unparseable_frame_dropped(self, dp):
        dp.process_frame(b"\x01\x02", 1)
        assert dp.misses == 0
        assert not [m for m in dp.messages if isinstance(m, PacketIn)]

    def test_counters_updated_on_hit(self, dp):
        dp.handle_message(FlowMod.add(Match(tp_dst=80), output(2)))
        raw = frame_bytes()
        dp.process_frame(raw, 1)
        dp.process_frame(raw, 1)
        entry = dp.table.entries()[0]
        assert entry.packet_count == 2
        assert entry.byte_count == 2 * len(raw)


class TestFlowModHandling:
    def test_add_and_cache_invalidation(self, dp):
        dp.handle_message(FlowMod.add(Match(tp_dst=80), output(2)))
        dp.process_frame(frame_bytes(), 1)
        dp.process_frame(frame_bytes(), 1)
        assert dp.cache_len() == 1
        # Higher-priority rule covering the cached microflow must evict it.
        dp.handle_message(FlowMod.add(Match(tp_dst=80), drop(), priority=0x9000))
        assert dp.cache_len() == 0

    def test_delete_sends_flow_removed_when_requested(self, dp):
        dp.handle_message(
            FlowMod.add(Match(tp_dst=80), output(2), send_flow_removed=True)
        )
        dp.handle_message(FlowMod.delete(Match(tp_dst=80)))
        removed = [m for m in dp.messages if isinstance(m, FlowRemoved)]
        assert len(removed) == 1
        assert removed[0].reason == RR_DELETE

    def test_delete_silent_without_flag(self, dp):
        dp.handle_message(FlowMod.add(Match(tp_dst=80), output(2)))
        dp.handle_message(FlowMod.delete(Match(tp_dst=80)))
        assert not [m for m in dp.messages if isinstance(m, FlowRemoved)]

    def test_buffered_packet_released_on_add(self, sim, dp):
        received = []
        peer = Port("host")
        peer.on_receive(lambda data, port: received.append(data))
        Link(sim, dp.port(2), peer)
        dp.process_frame(frame_bytes(), 1)
        punt = [m for m in dp.messages if isinstance(m, PacketIn)][0]
        dp.handle_message(
            FlowMod.add(Match(tp_dst=80), output(2), buffer_id=punt.buffer_id)
        )
        sim.run_for(1.0)
        assert len(received) == 1

    def test_expiry_emits_flow_removed(self, sim, dp):
        dp.handle_message(
            FlowMod.add(
                Match(tp_dst=80), output(2), idle_timeout=1.0, send_flow_removed=True
            )
        )
        dp.start_expiry(interval=0.5)
        sim.run_for(3.0)
        removed = [m for m in dp.messages if isinstance(m, FlowRemoved)]
        assert len(removed) == 1
        assert removed[0].reason == RR_IDLE_TIMEOUT
        assert len(dp.table) == 0

    def test_modify_changes_actions(self, dp):
        dp.handle_message(FlowMod.add(Match(tp_dst=80), output(2)))
        dp.handle_message(FlowMod(1, Match(tp_dst=80), output(1)))  # FC_MODIFY
        assert dp.table.entries()[0].actions[0].port == 1


class TestProtocolMessages:
    def test_hello_ignored(self, dp):
        dp.handle_message(Hello())

    def test_echo(self, dp):
        dp.handle_message(EchoRequest(b"payload", xid=77))
        replies = [m for m in dp.messages if isinstance(m, EchoReply)]
        assert replies and replies[0].data == b"payload" and replies[0].xid == 77

    def test_features(self, dp):
        dp.handle_message(FeaturesRequest(xid=5))
        replies = [m for m in dp.messages if isinstance(m, FeaturesReply)]
        assert replies[0].datapath_id == 42
        assert len(replies[0].ports) == 2

    def test_barrier(self, dp):
        dp.handle_message(BarrierRequest(xid=9))
        assert any(isinstance(m, BarrierReply) and m.xid == 9 for m in dp.messages)

    def test_packet_out_data(self, sim, dp):
        received = []
        peer = Port("host")
        peer.on_receive(lambda data, port: received.append(data))
        Link(sim, dp.port(1), peer)
        dp.handle_message(PacketOut(output(1), data=frame_bytes()))
        sim.run_for(1.0)
        assert len(received) == 1

    def test_packet_out_buffered(self, sim, dp):
        received = []
        peer = Port("host")
        peer.on_receive(lambda data, port: received.append(data))
        Link(sim, dp.port(2), peer)
        dp.process_frame(frame_bytes(), 1)
        punt = [m for m in dp.messages if isinstance(m, PacketIn)][0]
        dp.handle_message(PacketOut(output(2), buffer_id=punt.buffer_id))
        sim.run_for(1.0)
        assert len(received) == 1

    def test_packet_out_unknown_buffer_error_echoes_xid(self, dp):
        dp.handle_message(PacketOut(output(2), buffer_id=12345, xid=31))
        errors = [m for m in dp.messages if isinstance(m, ErrorMessage)]
        assert [(e.error_type, e.xid) for e in errors] == [("bad_buffer", 31)]

    def test_unknown_flow_mod_command_error_echoes_xid(self, dp):
        dp.handle_message(FlowMod(99, Match(), xid=32))
        errors = [m for m in dp.messages if isinstance(m, ErrorMessage)]
        assert [(e.error_type, e.xid) for e in errors] == [("bad_flow_mod", 32)]

    def test_flow_stats(self, dp):
        dp.handle_message(FlowMod.add(Match(tp_dst=80), output(2)))
        dp.process_frame(frame_bytes(), 1)
        dp.handle_message(StatsRequest(STATS_FLOW, xid=3))
        replies = [m for m in dp.messages if isinstance(m, StatsReply)]
        assert replies[0].kind == STATS_FLOW
        assert replies[0].body[0].packet_count == 1

    def test_port_stats(self, sim, dp):
        peer = Port("host")
        Link(sim, dp.port(2), peer)
        dp.handle_message(FlowMod.add(Match(tp_dst=80), output(2)))
        dp.process_frame(frame_bytes(), 1)
        sim.run_for(0.1)
        dp.handle_message(StatsRequest(STATS_PORT))
        reply = [m for m in dp.messages if isinstance(m, StatsReply)][-1]
        stats = {s.port_no: s for s in reply.body}
        assert stats[2].tx_packets == 1

    def test_table_stats(self, dp):
        dp.handle_message(FlowMod.add(Match(tp_dst=80), output(2)))
        dp.process_frame(frame_bytes(), 1)
        dp.handle_message(StatsRequest(STATS_TABLE))
        reply = [m for m in dp.messages if isinstance(m, StatsReply)][-1]
        body = reply.body[0]
        assert body.active_count == 1
        assert body.lookup_count == 1
        assert body.matched_count == 1


class TestOutputToTable:
    """OpenFlow 1.0 allows OFPP_TABLE only as a packet-out destination.

    A flow whose actions output to the table would send every frame it
    matches back through the pipeline into itself, without end.
    """

    @pytest.mark.parametrize("command", [FC_ADD, FC_MODIFY, FC_MODIFY_STRICT])
    def test_flow_mod_outputting_to_table_is_refused(self, dp, command):
        dp.handle_message(FlowMod.add(Match(dl_type=ETH_TYPE_IPV4), output(2)))
        dp.process_frame(frame_bytes(), 1)
        dp.process_frame(frame_bytes(), 1)
        assert dp.cache_len() == 1
        before = [(e.match, e.actions, e.priority) for e in dp.table]
        dp.handle_message(
            FlowMod(command, Match(dl_type=ETH_TYPE_IPV4), output(PORT_TABLE), xid=41)
        )
        errors = [m for m in dp.messages if isinstance(m, ErrorMessage)]
        assert [(e.error_type, e.xid) for e in errors] == [("bad_action", 41)]
        assert [(e.match, e.actions, e.priority) for e in dp.table] == before
        assert dp.cache_len() == 1

    def test_next_frame_does_not_recurse(self, dp):
        dp.handle_message(FlowMod.add(Match(dl_type=ETH_TYPE_IPV4), output(PORT_TABLE)))
        dp.process_frame(frame_bytes(), 1)
        assert dp.registry.value("openflow.packet_total") == 1
        assert len(dp.table) == 0

    def test_packet_out_to_table_goes_through_the_table_once(self, sim, dp):
        received = []
        peer = Port("host")
        peer.on_receive(lambda data, port: received.append(data))
        Link(sim, dp.port(2), peer)
        dp.handle_message(FlowMod.add(Match(tp_dst=80), output(2)))
        dp.handle_message(PacketOut(output(PORT_TABLE), data=frame_bytes(), in_port=1))
        sim.run_for(1.0)
        assert dp.registry.value("openflow.packet_total") == 1
        assert dp.table.lookup_count == 1
        assert len(received) == 1
