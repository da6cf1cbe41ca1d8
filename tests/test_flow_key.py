"""Differential tests: the flow key read from bytes vs the object path.

The datapath reads its match key straight off the frame's bytes
(:func:`repro.net.rewrite.flow_key`).  It used to unpack the whole frame
into Ethernet, IPv4, TCP/UDP/ICMP and ARP objects and read nine fields
off them; that path lives on here as the reference, :func:`object_key`,
over the layer objects of ``tests/reference_codecs.py``.
For every input the two must agree: canonical frames, frames cut at
every offset, frames with one header field broken, random bytes, and
frames carrying a trace context.  On every ARP frame, the key's ARP
fields are the ones :func:`~repro.net.rewrite.read_arp` hands a host or
proxy ARP.
"""

from hypothesis import given, settings, strategies as st

from repro.net import (
    DHCPMessage,
    DNSMessage,
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    IPv4Address,
    MACAddress,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    PacketError,
)
from repro.net.rewrite import flow_key, read_arp
from repro.net.trace import TraceContext, with_trace

from tests.reference_codecs import ARP, Ethernet, ICMP, IPv4, TCP, UDP

# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------


def object_key(raw, in_port):
    """The object path: the key read off the unpacked layer objects, as
    a tuple, or None for a frame shorter than an Ethernet header."""
    try:
        frame = Ethernet.unpack(raw)
    except PacketError:
        return None
    key = [in_port, int(frame.src), int(frame.dst), frame.ethertype, None, None, None, None, None]
    if frame.ethertype == ETH_TYPE_IPV4:
        ip = frame.find(IPv4)
        if ip is not None:
            key[4:7] = [int(ip.src), int(ip.dst), ip.proto]
            if ip.proto == PROTO_TCP:
                tcp = ip.find(TCP)
                if tcp is not None:
                    key[7:9] = [tcp.sport, tcp.dport]
            elif ip.proto == PROTO_UDP:
                udp = ip.find(UDP)
                if udp is not None:
                    key[7:9] = [udp.sport, udp.dport]
            elif ip.proto == PROTO_ICMP:
                icmp = ip.payload
                if hasattr(icmp, "icmp_type"):
                    key[7:9] = [icmp.icmp_type, icmp.code]
    elif frame.ethertype == ETH_TYPE_ARP:
        arp = frame.find(ARP)
        if arp is not None:
            key[4:7] = [int(arp.sender_ip), int(arp.target_ip), arp.opcode]
    return tuple(key)


def assert_same_key(raw, in_port=3):
    expected = object_key(raw, in_port)
    assert flow_key(raw, in_port) == expected


def assert_arp_fields_agree(raw):
    """An ARP frame's key holds ``read_arp``'s sender, target and opcode,
    or None in all three when ``read_arp`` refuses the packet."""
    key = flow_key(raw, 1)
    if key is None:
        return
    arp = read_arp(raw)
    if arp is None:
        assert key[4:7] == (None, None, None)
    else:
        opcode, _sender_mac, sender_ip, target_ip = arp
        assert key[4:7] == (sender_ip, target_ip, opcode)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

ports = st.integers(min_value=0, max_value=0xFFFF)
ips = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPv4Address)
macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MACAddress)
data_bytes = st.binary(max_size=48)


def _ipv4_frame(draw, proto, payload):
    packet = IPv4(draw(ips), draw(ips), proto=proto, ident=draw(ports), payload=payload)
    return Ethernet(draw(macs), draw(macs), ETH_TYPE_IPV4, packet).pack()


@st.composite
def tcp_frames(draw):
    segment = TCP(draw(ports), draw(ports), seq=draw(ports), payload=draw(data_bytes))
    return _ipv4_frame(draw, PROTO_TCP, segment)


@st.composite
def udp_frames(draw):
    kind = draw(st.sampled_from(["raw", "dns", "dhcp"]))
    if kind == "dns":
        query = DNSMessage.query(
            draw(st.sampled_from(["example.com", "a.b.c.home"])), ident=draw(ports)
        )
        sport, dport = draw(st.sampled_from([(draw(ports), 53), (53, draw(ports))]))
        segment = UDP(sport, dport, query)
    elif kind == "dhcp":
        message = DHCPMessage.discover(
            draw(macs), draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
        )
        sport, dport = draw(st.sampled_from([(68, 67), (67, 68)]))
        segment = UDP(sport, dport, message)
    else:
        segment = UDP(draw(ports), draw(ports), draw(data_bytes))
    return _ipv4_frame(draw, PROTO_UDP, segment)


@st.composite
def icmp_frames(draw):
    message = ICMP(
        draw(st.integers(0, 255)), draw(st.integers(0, 255)), draw(ports), draw(data_bytes)
    )
    return _ipv4_frame(draw, PROTO_ICMP, message)


@st.composite
def arp_frames(draw):
    if draw(st.booleans()):
        arp = ARP.request(draw(macs), draw(ips), draw(ips))
    else:
        arp = ARP.reply(draw(macs), draw(ips), draw(macs), draw(ips))
    return Ethernet(draw(macs), draw(macs), ETH_TYPE_ARP, arp).pack()


@st.composite
def other_frames(draw):
    ethertype = draw(st.integers(0, 0xFFFF))
    return Ethernet(draw(macs), draw(macs), ethertype, draw(data_bytes)).pack()


ipv4_frames = st.one_of(tcp_frames(), udp_frames(), icmp_frames())
frames = st.one_of(ipv4_frames, arp_frames(), other_frames())


def _patched(raw, at, value):
    buf = bytearray(raw)
    buf[at : at + len(value)] = value
    return bytes(buf)


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------


class TestCanonicalFrames:
    @settings(max_examples=300, deadline=None)
    @given(frames, st.integers(min_value=1, max_value=0xFF00))
    def test_same_key_as_object_path(self, raw, in_port):
        assert_same_key(raw, in_port)

    def test_every_field_read(self):
        raw = Ethernet(
            "02:00:00:00:00:01",
            "02:aa:00:00:00:01",
            ETH_TYPE_IPV4,
            IPv4("10.2.0.6", "31.13.72.36", proto=PROTO_TCP, payload=TCP(50000, 443)),
        ).pack()
        assert flow_key(raw, 3) == (
            3,
            int(MACAddress("02:aa:00:00:00:01")),
            int(MACAddress("02:00:00:00:00:01")),
            ETH_TYPE_IPV4,
            int(IPv4Address("10.2.0.6")),
            int(IPv4Address("31.13.72.36")),
            PROTO_TCP,
            50000,
            443,
        )

    def test_shorter_than_an_ethernet_header_has_no_key(self):
        for size in range(14):
            assert flow_key(bytes(size), 1) is None
        assert flow_key(bytes(14), 1) is not None


class TestMalformedFrames:
    @settings(max_examples=60, deadline=None)
    @given(frames)
    def test_truncated_at_every_offset(self, raw):
        for cut in range(len(raw) + 1):
            assert_same_key(raw[:cut])

    @settings(max_examples=25, deadline=None)
    @given(ipv4_frames)
    def test_every_version_and_ihl_at_every_length(self, raw):
        for nibble in range(16):
            for patched in (
                _patched(raw, 14, bytes([(nibble << 4) | (raw[14] & 0x0F)])),
                _patched(raw, 14, bytes([0x40 | nibble])),
            ):
                for cut in range(len(patched) + 1):
                    assert_same_key(patched[:cut])

    @settings(max_examples=200, deadline=None)
    @given(ipv4_frames, st.integers(0, 80))
    def test_broken_total_len(self, raw, total_len):
        assert_same_key(_patched(raw, 16, total_len.to_bytes(2, "big")))

    @settings(max_examples=150, deadline=None)
    @given(tcp_frames(), st.integers(0, 15))
    def test_broken_tcp_data_offset(self, raw, offset):
        assert_same_key(_patched(raw, 46, bytes([(offset << 4) | (raw[46] & 0x0F)])))

    @settings(max_examples=150, deadline=None)
    @given(udp_frames(), st.integers(0, 80))
    def test_broken_udp_length(self, raw, length):
        assert_same_key(_patched(raw, 38, length.to_bytes(2, "big")))

    @settings(max_examples=200, deadline=None)
    @given(arp_frames(), st.data())
    def test_broken_arp_header(self, raw, data):
        field = data.draw(st.sampled_from(["hw", "proto", "hlen", "plen", "opcode"]))
        at, size = {"hw": (14, 2), "proto": (16, 2), "hlen": (18, 1), "plen": (19, 1),
                    "opcode": (20, 2)}[field]
        value = data.draw(st.integers(0, (1 << (8 * size)) - 1))
        broken = _patched(raw, at, value.to_bytes(size, "big"))
        assert_same_key(broken)
        assert_arp_fields_agree(broken)

    @settings(max_examples=60, deadline=None)
    @given(arp_frames())
    def test_arp_fields_are_read_arps_at_every_cut(self, raw):
        assert read_arp(raw) is not None
        for cut in range(len(raw) + 1):
            assert_arp_fields_agree(raw[:cut])

    @settings(max_examples=150, deadline=None)
    @given(frames, st.sampled_from([ETH_TYPE_IPV4, ETH_TYPE_ARP, 0x86DD, 0x0000]))
    def test_ethertype_swapped(self, raw, ethertype):
        assert_same_key(_patched(raw, 12, ethertype.to_bytes(2, "big")))

    @settings(max_examples=150, deadline=None)
    @given(ipv4_frames, st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP, 0, 47]))
    def test_protocol_swapped(self, raw, proto):
        assert_same_key(_patched(raw, 23, bytes([proto])))

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=96))
    def test_random_bytes(self, raw):
        assert_same_key(raw)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([ETH_TYPE_IPV4, ETH_TYPE_ARP]),
        st.binary(min_size=20, max_size=60),
    )
    def test_random_bytes_behind_a_known_ethertype(self, ethertype, body):
        assert_same_key(bytes(12) + ethertype.to_bytes(2, "big") + body)


class TestTracedFrames:
    @settings(max_examples=100, deadline=None)
    @given(frames)
    def test_traced_bytes_read_like_plain_bytes(self, raw):
        traced = with_trace(raw, TraceContext(mint=1, sampled=True, clock=lambda: 0.0))
        assert type(traced) is not bytes
        assert flow_key(traced, 2) == flow_key(raw, 2) == object_key(raw, 2)

