"""Wire-format tests: Ethernet, ARP, IPv4, UDP, TCP, ICMP, checksums."""

import pytest
from hypothesis import given, strategies as st

from repro.net import (
    ARP_REPLY,
    ARP_REQUEST,
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    IPv4Address,
    MACAddress,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    PacketError,
    internet_checksum,
    verify_checksum,
)
from repro.net.icmp import TYPE_ECHO_REPLY
from repro.net.tcp import ACK, SYN

from tests.reference_codecs import ARP, Ethernet, ICMP, IPv4, TCP, UDP


class TestChecksum:
    def test_known_value(self):
        # RFC 1071 example data.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_verify_roundtrip(self):
        data = bytearray(b"hello world!")
        csum = internet_checksum(bytes(data))
        data += csum.to_bytes(2, "big")
        assert verify_checksum(bytes(data))

    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF

    @given(st.binary(min_size=0, max_size=64))
    def test_checksum_in_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF


class TestEthernet:
    def test_roundtrip(self):
        frame = Ethernet("ff:ff:ff:ff:ff:ff", "02:00:00:00:00:01", 0x1234, b"payload")
        parsed = Ethernet.unpack(frame.pack())
        assert parsed.dst.is_broadcast
        assert parsed.src == MACAddress("02:00:00:00:00:01")
        assert parsed.ethertype == 0x1234
        assert parsed.pack_payload() == b"payload"

    def test_too_short(self):
        with pytest.raises(PacketError):
            Ethernet.unpack(b"\x00" * 13)

    def test_parses_nested_ipv4(self):
        inner = IPv4("10.0.0.1", "10.0.0.2", proto=PROTO_UDP, payload=UDP(1000, 2000, b"x"))
        frame = Ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", ETH_TYPE_IPV4, inner)
        parsed = Ethernet.unpack(frame.pack())
        udp = parsed.find(UDP)
        assert udp is not None and udp.sport == 1000

    def test_parses_nested_arp(self):
        arp = ARP.request("02:00:00:00:00:01", "10.0.0.1", "10.0.0.2")
        frame = Ethernet(MACAddress.broadcast(), "02:00:00:00:00:01", ETH_TYPE_ARP, arp)
        parsed = Ethernet.unpack(frame.pack())
        assert parsed.find(ARP).target_ip == IPv4Address("10.0.0.2")

    def test_find_missing_layer(self):
        frame = Ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", 0x9999, b"data")
        assert frame.find(UDP) is None

    def test_broadcast_flags(self):
        frame = Ethernet(MACAddress.broadcast(), "02:00:00:00:00:01")
        assert frame.is_broadcast and frame.is_multicast


class TestARP:
    def test_request_roundtrip(self):
        arp = ARP.request("02:00:00:00:00:01", "10.0.0.1", "10.0.0.2")
        parsed = ARP.unpack(arp.pack())
        assert parsed.opcode == ARP_REQUEST
        assert parsed.sender_mac == MACAddress("02:00:00:00:00:01")
        assert parsed.target_mac == MACAddress.zero()

    def test_reply_roundtrip(self):
        arp = ARP.reply("02:00:00:00:00:02", "10.0.0.2", "02:00:00:00:00:01", "10.0.0.1")
        parsed = ARP.unpack(arp.pack())
        assert parsed.opcode == ARP_REPLY
        assert parsed.sender_ip == IPv4Address("10.0.0.2")

    def test_bad_opcode(self):
        with pytest.raises(PacketError):
            ARP(7, "02:00:00:00:00:01", "10.0.0.1", "02:00:00:00:00:02", "10.0.0.2")

    def test_truncated(self):
        with pytest.raises(PacketError):
            ARP.unpack(b"\x00" * 20)


class TestIPv4:
    def test_roundtrip(self):
        packet = IPv4("10.0.0.1", "10.0.0.2", proto=99, ttl=17, payload=b"body")
        parsed = IPv4.unpack(packet.pack())
        assert parsed.src == IPv4Address("10.0.0.1")
        assert parsed.dst == IPv4Address("10.0.0.2")
        assert parsed.proto == 99
        assert parsed.ttl == 17
        assert parsed.pack_payload() == b"body"

    def test_header_checksum_valid(self):
        raw = IPv4("10.0.0.1", "10.0.0.2", payload=b"x").pack()
        assert verify_checksum(raw[:20])

    def test_rejects_non_ipv4(self):
        raw = bytearray(IPv4("10.0.0.1", "10.0.0.2").pack())
        raw[0] = (6 << 4) | 5
        with pytest.raises(PacketError):
            IPv4.unpack(bytes(raw))

    def test_too_short(self):
        with pytest.raises(PacketError):
            IPv4.unpack(b"\x45" + b"\x00" * 10)

    def test_nested_udp_checksum_has_pseudo_header(self):
        udp = UDP(1000, 2000, b"hello")
        raw = IPv4("10.0.0.1", "10.0.0.2", proto=PROTO_UDP, payload=udp).pack()
        parsed = IPv4.unpack(raw)
        assert parsed.find(UDP).pack_payload() == b"hello"
        # Non-zero checksum present in the wire form.
        assert raw[20 + 6 : 20 + 8] != b"\x00\x00"


class TestUDP:
    def test_roundtrip(self):
        parsed = UDP.unpack(UDP(53, 1234, b"query").pack())
        assert (parsed.sport, parsed.dport) == (53, 1234)
        assert parsed.pack_payload() == b"query"

    def test_port_range_validation(self):
        with pytest.raises(PacketError):
            UDP(-1, 53)
        with pytest.raises(PacketError):
            UDP(53, 70000)

    def test_length_field(self):
        raw = UDP(1, 2, b"abc").pack()
        assert int.from_bytes(raw[4:6], "big") == 8 + 3

    def test_truncated(self):
        with pytest.raises(PacketError):
            UDP.unpack(b"\x00" * 7)


class TestTCP:
    def test_roundtrip(self):
        segment = TCP(80, 5000, seq=100, ack=200, flags=SYN | ACK, window=1024, payload=b"hi")
        parsed = TCP.unpack(segment.pack())
        assert (parsed.sport, parsed.dport) == (80, 5000)
        assert parsed.seq == 100 and parsed.ack == 200
        assert parsed.flags == SYN | ACK
        assert parsed.window == 1024
        assert parsed.pack_payload() == b"hi"

    def test_flag_names(self):
        assert TCP(1, 2, flags=SYN | ACK).flag_names() == "SYN|ACK"
        assert TCP(1, 2, flags=0).flag_names() == "none"

    def test_seq_wraps(self):
        assert TCP(1, 2, seq=(1 << 32) + 5).seq == 5

    def test_truncated(self):
        with pytest.raises(PacketError):
            TCP.unpack(b"\x00" * 19)

    @given(
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.binary(max_size=100),
    )
    def test_roundtrip_property(self, sport, dport, seq, payload):
        parsed = TCP.unpack(TCP(sport, dport, seq=seq, payload=payload).pack())
        assert (parsed.sport, parsed.dport, parsed.seq) == (sport, dport, seq)
        assert parsed.pack_payload() == payload


class TestICMP:
    def test_echo_roundtrip(self):
        echo = ICMP.echo_request(ident=7, seq=3, data=b"ping")
        parsed = ICMP.unpack(echo.pack())
        assert parsed.is_echo_request
        assert parsed.ident == 7 and parsed.seq == 3
        assert parsed.pack_payload() == b"ping"

    def test_echo_reply(self):
        assert ICMP.echo_reply(1, 1).icmp_type == TYPE_ECHO_REPLY

    def test_checksum_valid(self):
        raw = ICMP.echo_request(1, 2, b"data").pack()
        assert verify_checksum(raw)

    def test_truncated(self):
        with pytest.raises(PacketError):
            ICMP.unpack(b"\x00" * 7)


class TestFullStackRoundtrip:
    @given(st.binary(max_size=200))
    def test_ethernet_ip_tcp(self, payload):
        frame = Ethernet(
            "02:00:00:00:00:02",
            "02:00:00:00:00:01",
            ETH_TYPE_IPV4,
            IPv4(
                "10.2.0.6",
                "31.13.72.36",
                proto=PROTO_TCP,
                payload=TCP(50000, 443, payload=payload),
            ),
        )
        parsed = Ethernet.unpack(frame.pack())
        tcp = parsed.find(TCP)
        assert tcp is not None
        assert tcp.pack_payload() == payload

    def test_icmp_in_ip(self):
        frame = Ethernet(
            "02:00:00:00:00:02",
            "02:00:00:00:00:01",
            ETH_TYPE_IPV4,
            IPv4("10.0.0.1", "10.0.0.2", proto=PROTO_ICMP, payload=ICMP.echo_request(1, 1)),
        )
        assert Ethernet.unpack(frame.pack()).find(ICMP).is_echo_request
