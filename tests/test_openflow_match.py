"""Flow-key extraction and Match semantics.

The datapath's key is the tuple :func:`repro.net.rewrite.flow_key`
reads off the frame, in ``MATCH_FIELDS`` order; a :class:`Match` holds
its pattern in the same layout.
"""

from hypothesis import given, strategies as st

from repro.net import (
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    IPv4Address,
    MACAddress,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
)
from repro.net.rewrite import flow_key
from repro.openflow.match import MATCH_FIELDS, Match

from tests.reference_codecs import ARP, Ethernet, ICMP, IPv4, TCP, UDP


def tcp_frame(sport=50000, dport=443, src_ip="10.2.0.6", dst_ip="31.13.72.36"):
    return Ethernet(
        "02:00:00:00:00:01",
        "02:aa:00:00:00:01",
        ETH_TYPE_IPV4,
        IPv4(src_ip, dst_ip, proto=PROTO_TCP, payload=TCP(sport, dport)),
    )


def fields(raw, in_port):
    """The flow key of ``raw`` by field name."""
    return dict(zip(MATCH_FIELDS, flow_key(raw, in_port)))


class TestFlowKeyExtraction:
    def test_tcp_fields(self):
        key = fields(tcp_frame().pack(), in_port=3)
        assert key["in_port"] == 3
        assert key["dl_type"] == ETH_TYPE_IPV4
        assert key["nw_src"] == int(IPv4Address("10.2.0.6"))
        assert key["nw_dst"] == int(IPv4Address("31.13.72.36"))
        assert key["nw_proto"] == PROTO_TCP
        assert (key["tp_src"], key["tp_dst"]) == (50000, 443)

    def test_udp_fields(self):
        frame = Ethernet(
            "02:00:00:00:00:01",
            "02:aa:00:00:00:01",
            ETH_TYPE_IPV4,
            IPv4("10.2.0.6", "10.2.0.1", proto=PROTO_UDP, payload=UDP(68, 67)),
        )
        key = fields(frame.pack(), 1)
        assert key["nw_proto"] == PROTO_UDP
        assert (key["tp_src"], key["tp_dst"]) == (68, 67)

    def test_icmp_type_code_in_tp_fields(self):
        frame = Ethernet(
            "02:00:00:00:00:01",
            "02:aa:00:00:00:01",
            ETH_TYPE_IPV4,
            IPv4("10.0.0.1", "10.0.0.2", proto=PROTO_ICMP, payload=ICMP.echo_request(1, 1)),
        )
        key = fields(frame.pack(), 1)
        assert key["nw_proto"] == PROTO_ICMP
        assert key["tp_src"] == 8 and key["tp_dst"] == 0  # echo request, code 0

    def test_arp_fields(self):
        arp = ARP.request("02:aa:00:00:00:01", "10.2.0.6", "10.2.0.5")
        frame = Ethernet(MACAddress.broadcast(), "02:aa:00:00:00:01", ETH_TYPE_ARP, arp)
        key = fields(frame.pack(), 2)
        assert key["dl_type"] == ETH_TYPE_ARP
        assert key["nw_src"] == int(IPv4Address("10.2.0.6"))
        assert key["nw_dst"] == int(IPv4Address("10.2.0.5"))
        assert key["nw_proto"] == 1  # ARP opcode

    def test_non_ip_frame(self):
        frame = Ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", 0x9999, b"xx")
        key = fields(frame.pack(), 1)
        assert key["nw_src"] is None and key["tp_src"] is None

    def test_bad_bytes_have_no_key(self):
        assert flow_key(b"\x00" * 4, 1) is None

    def test_key_hash_equality(self):
        k1 = flow_key(tcp_frame().pack(), 1)
        k2 = flow_key(tcp_frame().pack(), 1)
        k3 = flow_key(tcp_frame(sport=50001).pack(), 1)
        assert k1 == k2 and hash(k1) == hash(k2)
        assert k1 != k3


class TestMatch:
    def test_wildcard_matches_everything(self):
        key = flow_key(tcp_frame().pack(), 1)
        assert Match().matches(key)
        assert Match().key.count(None) == 9

    def test_exact_from_key(self):
        key = flow_key(tcp_frame().pack(), 1)
        match = Match.from_key(key)
        assert match.is_exact
        assert match.matches(key)
        assert match.key.count(None) == 0

    def test_exact_mismatch_on_port(self):
        key1 = flow_key(tcp_frame().pack(), 1)
        key2 = flow_key(tcp_frame(sport=50001).pack(), 1)
        assert not Match.from_key(key1).matches(key2)

    def test_single_field_match(self):
        key = flow_key(tcp_frame().pack(), 1)
        assert Match(tp_dst=443).matches(key)
        assert not Match(tp_dst=80).matches(key)
        assert Match(dl_src="02:aa:00:00:00:01").matches(key)
        assert Match(in_port=1).matches(key)
        assert not Match(in_port=2).matches(key)

    def test_cidr_match(self):
        key = flow_key(tcp_frame(src_ip="10.2.3.4").pack(), 1)
        assert Match(nw_src="10.2.0.0", nw_src_prefix=16).matches(key)
        assert not Match(nw_src="10.3.0.0", nw_src_prefix=16).matches(key)
        assert Match(nw_dst="31.13.72.0", nw_dst_prefix=24).matches(key)

    def test_zero_prefix_matches_all(self):
        key = flow_key(tcp_frame().pack(), 1)
        assert Match(nw_src="0.0.0.0", nw_src_prefix=0).matches(key)

    def test_ip_field_never_matches_non_ip(self):
        frame = Ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", 0x9999, b"")
        key = flow_key(frame.pack(), 1)
        assert not Match(nw_src="10.0.0.0", nw_src_prefix=8).matches(key)

    def test_same_pattern(self):
        assert Match(tp_dst=53).same_pattern(Match(tp_dst=53))
        assert not Match(tp_dst=53).same_pattern(Match(tp_dst=53, nw_proto=17))
        assert Match(tp_dst=53) == Match(tp_dst=53)

    def test_hashable(self):
        assert len({Match(tp_dst=53), Match(tp_dst=53), Match(tp_dst=80)}) == 2

    def test_repr_wildcards(self):
        assert "Match(*)" in repr(Match())

    def test_repr_prints_addresses_as_text(self):
        # Invariant messages and the datapath's error details print it.
        exact = Match.from_key(flow_key(tcp_frame().pack(), 1))
        assert repr(exact) == (
            "Match(in_port=1, dl_src=02:aa:00:00:00:01, dl_dst=02:00:00:00:00:01, "
            "dl_type=2048, nw_src=10.2.0.6, nw_dst=31.13.72.36, nw_proto=6, "
            "tp_src=50000, tp_dst=443)"
        )
        assert repr(Match(dl_src="02:aa:00:00:00:01")) == "Match(dl_src=02:aa:00:00:00:01)"
        cidr = Match(nw_src="10.2.0.0", nw_src_prefix=16, dl_type=ETH_TYPE_IPV4)
        assert repr(cidr) == "Match(dl_type=2048, nw_src=10.2.0.0)"

    def test_addresses_given_any_way_are_kept_as_ints(self):
        mac, ip = "02:aa:00:00:00:01", "10.2.0.6"
        by_text = Match(dl_src=mac, nw_dst=ip)
        assert by_text.key[1] == int(MACAddress(mac)) and by_text.key[5] == int(IPv4Address(ip))
        assert Match(dl_src=MACAddress(mac), nw_dst=IPv4Address(ip)) == by_text
        assert Match(dl_src=int(MACAddress(mac)), nw_dst=int(IPv4Address(ip))) == by_text
        assert hash(Match(dl_src=MACAddress(mac), nw_dst=IPv4Address(ip))) == hash(by_text)

    @given(st.integers(min_value=0, max_value=65535))
    def test_microflow_covers_only_itself(self, sport):
        key = flow_key(tcp_frame(sport=sport).pack(), 1)
        match = Match.from_key(key)
        other = flow_key(tcp_frame(sport=(sport + 1) % 65536).pack(), 1)
        assert match.matches(key)
        assert not match.matches(other)
