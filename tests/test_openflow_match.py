"""FlowKey extraction and Match semantics."""

from hypothesis import given, strategies as st

from repro.net import (
    ARP,
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    Ethernet,
    ICMP,
    IPv4,
    IPv4Address,
    MACAddress,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP,
    UDP,
)
from repro.openflow.match import FlowKey, Match, extract_key


def tcp_frame(sport=50000, dport=443, src_ip="10.2.0.6", dst_ip="31.13.72.36"):
    return Ethernet(
        "02:00:00:00:00:01",
        "02:aa:00:00:00:01",
        ETH_TYPE_IPV4,
        IPv4(src_ip, dst_ip, proto=PROTO_TCP, payload=TCP(sport, dport)),
    )


class TestFlowKeyExtraction:
    def test_tcp_fields(self):
        key = FlowKey.extract(tcp_frame().pack(), in_port=3)
        assert key.in_port == 3
        assert key.dl_type == ETH_TYPE_IPV4
        assert key.nw_src == IPv4Address("10.2.0.6")
        assert key.nw_dst == IPv4Address("31.13.72.36")
        assert key.nw_proto == PROTO_TCP
        assert (key.tp_src, key.tp_dst) == (50000, 443)

    def test_udp_fields(self):
        frame = Ethernet(
            "02:00:00:00:00:01",
            "02:aa:00:00:00:01",
            ETH_TYPE_IPV4,
            IPv4("10.2.0.6", "10.2.0.1", proto=PROTO_UDP, payload=UDP(68, 67)),
        )
        key = FlowKey.extract(frame.pack(), 1)
        assert key.nw_proto == PROTO_UDP
        assert (key.tp_src, key.tp_dst) == (68, 67)

    def test_icmp_type_code_in_tp_fields(self):
        frame = Ethernet(
            "02:00:00:00:00:01",
            "02:aa:00:00:00:01",
            ETH_TYPE_IPV4,
            IPv4("10.0.0.1", "10.0.0.2", proto=PROTO_ICMP, payload=ICMP.echo_request(1, 1)),
        )
        key = FlowKey.extract(frame.pack(), 1)
        assert key.nw_proto == PROTO_ICMP
        assert key.tp_src == 8 and key.tp_dst == 0  # echo request, code 0

    def test_arp_fields(self):
        arp = ARP.request("02:aa:00:00:00:01", "10.2.0.6", "10.2.0.5")
        frame = Ethernet(MACAddress.broadcast(), "02:aa:00:00:00:01", ETH_TYPE_ARP, arp)
        key = FlowKey.extract(frame.pack(), 2)
        assert key.dl_type == ETH_TYPE_ARP
        assert key.nw_src == IPv4Address("10.2.0.6")
        assert key.nw_dst == IPv4Address("10.2.0.5")
        assert key.nw_proto == 1  # ARP opcode

    def test_non_ip_frame(self):
        frame = Ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", 0x9999, b"xx")
        key = FlowKey.extract(frame.pack(), 1)
        assert key.nw_src is None and key.tp_src is None

    def test_extract_key_helper_bad_bytes(self):
        assert extract_key(b"\x00" * 4, 1) is None

    def test_key_hash_equality(self):
        k1 = FlowKey.extract(tcp_frame().pack(), 1)
        k2 = FlowKey.extract(tcp_frame().pack(), 1)
        k3 = FlowKey.extract(tcp_frame(sport=50001).pack(), 1)
        assert k1 == k2 and hash(k1) == hash(k2)
        assert k1 != k3


class TestMatch:
    def test_wildcard_matches_everything(self):
        key = FlowKey.extract(tcp_frame().pack(), 1)
        assert Match.any().matches(key)
        assert Match.any().wildcard_count() == 9

    def test_exact_from_key(self):
        key = FlowKey.extract(tcp_frame().pack(), 1)
        match = Match.from_key(key)
        assert match.is_exact
        assert match.matches(key)
        assert match.wildcard_count() == 0

    def test_exact_mismatch_on_port(self):
        key1 = FlowKey.extract(tcp_frame().pack(), 1)
        key2 = FlowKey.extract(tcp_frame(sport=50001).pack(), 1)
        assert not Match.from_key(key1).matches(key2)

    def test_single_field_match(self):
        key = FlowKey.extract(tcp_frame().pack(), 1)
        assert Match(tp_dst=443).matches(key)
        assert not Match(tp_dst=80).matches(key)
        assert Match(dl_src="02:aa:00:00:00:01").matches(key)
        assert Match(in_port=1).matches(key)
        assert not Match(in_port=2).matches(key)

    def test_cidr_match(self):
        key = FlowKey.extract(tcp_frame(src_ip="10.2.3.4").pack(), 1)
        assert Match(nw_src="10.2.0.0", nw_src_prefix=16).matches(key)
        assert not Match(nw_src="10.3.0.0", nw_src_prefix=16).matches(key)
        assert Match(nw_dst="31.13.72.0", nw_dst_prefix=24).matches(key)

    def test_zero_prefix_matches_all(self):
        key = FlowKey.extract(tcp_frame().pack(), 1)
        assert Match(nw_src="0.0.0.0", nw_src_prefix=0).matches(key)

    def test_ip_field_never_matches_non_ip(self):
        frame = Ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", 0x9999, b"")
        key = FlowKey.extract(frame.pack(), 1)
        assert not Match(nw_src="10.0.0.0", nw_src_prefix=8).matches(key)

    def test_same_pattern(self):
        assert Match(tp_dst=53).same_pattern(Match(tp_dst=53))
        assert not Match(tp_dst=53).same_pattern(Match(tp_dst=53, nw_proto=17))
        assert Match(tp_dst=53) == Match(tp_dst=53)

    def test_hashable(self):
        assert len({Match(tp_dst=53), Match(tp_dst=53), Match(tp_dst=80)}) == 2

    def test_repr_wildcards(self):
        assert "Match(*)" in repr(Match.any())

    @given(st.integers(min_value=0, max_value=65535))
    def test_microflow_covers_only_itself(self, sport):
        key = FlowKey.extract(tcp_frame(sport=sport).pack(), 1)
        match = Match.from_key(key)
        other = FlowKey.extract(tcp_frame(sport=(sport + 1) % 65536).pack(), 1)
        assert match.matches(key)
        assert not match.matches(other)
