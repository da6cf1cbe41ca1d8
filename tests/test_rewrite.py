"""Differential tests: the datapath's byte rewriter vs the object path.

Set* actions edit frame bytes at fixed offsets (:mod:`repro.net.rewrite`)
and patch checksums incrementally.  The datapath used to unpack the
frame into layer objects, assign the fields and pack it again at every
Output; that path lives on here as the reference, :func:`object_path`,
over the layer objects of ``tests/reference_codecs.py``.

* A canonical frame (one the codecs build; every simulated frame is one)
  must come out byte-identical to the reference.
* A malformed frame must never raise, and may differ from the input only
  in the rewritten fields and the checksums that cover them.  The
  object path normalised such frames; the byte path, like Open vSwitch,
  edits fields only.

``internet_checksum`` is checked against the byte-pair loop it replaced,
and the ARP builder and reader (``arp_packet``, ``read_arp``) against
the reference ``ARP`` codec.
"""

import pytest
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
    internet_checksum,
)
from repro.net.arp import ARP_REPLY, ARP_REQUEST, arp_packet
from repro.net.checksum import checksum_update
from repro.net.rewrite import read_arp
from repro.openflow.actions import (
    Output,
    PORT_LOCAL,
    SetDlDst,
    SetDlSrc,
    SetNwDst,
    SetNwSrc,
    SetTpDst,
    SetTpSrc,
)
from repro.openflow.datapath import Datapath
from repro.sim.simulator import Simulator

from tests.reference_codecs import ARP, Ethernet, ICMP, IPv4, TCP, UDP

# ----------------------------------------------------------------------
# The two paths
# ----------------------------------------------------------------------


def object_path(raw, actions):
    """The deleted object path: unpack once, assign fields on the layer
    objects, pack at every Output."""
    frame = Ethernet.unpack(raw)
    sent = []
    for action in actions:
        if isinstance(action, Output):
            sent.append(frame.pack())
        elif isinstance(action, SetDlSrc):
            frame.src = action.mac
        elif isinstance(action, SetDlDst):
            frame.dst = action.mac
        elif isinstance(action, (SetNwSrc, SetNwDst)):
            packet = frame.find(IPv4)
            if packet is not None:
                field = "src" if isinstance(action, SetNwSrc) else "dst"
                setattr(packet, field, action.ip)
        else:
            field = "sport" if isinstance(action, SetTpSrc) else "dport"
            for layer in (TCP, UDP):
                segment = frame.find(layer)
                if segment is not None:
                    setattr(segment, field, action.port)
                    break
    return sent


def byte_path(raw, actions):
    """What the datapath sends for ``raw`` under ``actions``."""
    datapath = Datapath(Simulator(seed=1))
    sent = []
    datapath.local_handler = lambda data, _in_port: sent.append(bytes(data))
    datapath.apply_actions(raw, actions, in_port=1)
    return sent


def loop_checksum(data):
    """The byte-pair loop ``internet_checksum`` replaced."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

ports = st.integers(min_value=0, max_value=0xFFFF)
ips = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPv4Address)
macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MACAddress)
data_bytes = st.binary(max_size=64)


@st.composite
def tcp_frames(draw):
    segment = TCP(
        draw(ports),
        draw(ports),
        seq=draw(st.integers(min_value=0, max_value=(1 << 32) - 1)),
        ack=draw(st.integers(min_value=0, max_value=(1 << 32) - 1)),
        flags=draw(st.integers(min_value=0, max_value=0x3F)),
        window=draw(ports),
        payload=draw(data_bytes),
    )
    return _ipv4_frame(draw, PROTO_TCP, segment)


@st.composite
def udp_frames(draw):
    kind = draw(st.sampled_from(["raw", "dns", "dhcp"]))
    if kind == "dns":
        query = DNSMessage.query(
            draw(st.sampled_from(["example.com", "a.b.c.home", "x.org"])),
            ident=draw(ports),
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
    factory = draw(st.sampled_from([ICMP.echo_request, ICMP.echo_reply]))
    message = factory(draw(ports), draw(ports), draw(data_bytes))
    return _ipv4_frame(draw, PROTO_ICMP, message)


@st.composite
def arp_frames(draw):
    factory = draw(st.sampled_from([ARP.request, ARP.reply]))
    if factory is ARP.request:
        arp = ARP.request(draw(macs), draw(ips), draw(ips))
    else:
        arp = ARP.reply(draw(macs), draw(ips), draw(macs), draw(ips))
    return Ethernet(draw(macs), draw(macs), ETH_TYPE_ARP, arp).pack()


def _ipv4_frame(draw, proto, payload):
    packet = IPv4(
        draw(ips),
        draw(ips),
        proto=proto,
        ttl=draw(st.integers(min_value=0, max_value=255)),
        tos=draw(st.integers(min_value=0, max_value=255)),
        ident=draw(ports),
        payload=payload,
    )
    return Ethernet(draw(macs), draw(macs), ETH_TYPE_IPV4, packet).pack()


frames = st.one_of(tcp_frames(), udp_frames(), icmp_frames(), arp_frames())

set_actions = st.one_of(
    macs.map(SetDlSrc),
    macs.map(SetDlDst),
    ips.map(SetNwSrc),
    ips.map(SetNwDst),
    ports.map(SetTpSrc),
    ports.map(SetTpDst),
)


@st.composite
def action_chains(draw):
    """Set* actions with an Output in the middle and one at the end."""
    before = draw(st.lists(set_actions, min_size=1, max_size=4))
    after = draw(st.lists(set_actions, max_size=4))
    return before + [Output(PORT_LOCAL)] + after + [Output(PORT_LOCAL)]


# ----------------------------------------------------------------------
# Canonical frames: byte-identical to the reference
# ----------------------------------------------------------------------


class TestCanonicalFrames:
    @settings(max_examples=400, deadline=None)
    @given(frames, action_chains())
    def test_byte_identical_to_object_path(self, raw, actions):
        assert Ethernet.unpack(raw).pack() == raw  # canonical by construction
        assert byte_path(raw, actions) == object_path(raw, actions)

    def test_nat_rewrite_of_a_web_segment(self):
        raw = Ethernet(
            "02:00:00:00:00:01",
            "02:aa:00:00:00:01",
            ETH_TYPE_IPV4,
            IPv4("10.0.0.6", "93.184.216.34", proto=PROTO_TCP,
                 payload=TCP(49152, 80, payload=b"GET / HTTP/1.1\r\n\r\n")),
        ).pack()
        actions = [
            SetNwSrc("198.51.100.7"),
            SetTpSrc(61000),
            SetDlSrc("02:00:00:00:00:01"),
            SetDlDst("02:ff:00:00:00:01"),
            Output(PORT_LOCAL),
        ]
        assert byte_path(raw, actions) == object_path(raw, actions)

    def test_udp_checksum_computed_zero_is_sent_as_ffff(self):
        """Pick a source port that makes the patched checksum 0: RFC 768
        sends it as 0xFFFF, exactly as a full recompute does."""
        raw = Ethernet(
            "02:00:00:00:00:01", "02:aa:00:00:00:01", ETH_TYPE_IPV4,
            IPv4("10.0.0.6", "10.0.0.1", proto=PROTO_UDP, payload=UDP(0, 53, b"q")),
        ).pack()
        # Raising a zero source port to the checksum's value lowers the
        # checksum by as much, to 0 (one's complement).
        actions = [SetTpSrc(int.from_bytes(raw[40:42], "big")), Output(PORT_LOCAL)]
        (sent,) = byte_path(raw, actions)
        assert sent == object_path(raw, actions)[0]
        assert sent[40:42] == b"\xff\xff"


# ----------------------------------------------------------------------
# Malformed frames: never raise, edit fields only
# ----------------------------------------------------------------------


def _assert_edits_fields_only(raw, actions):
    """Each copy sent differs from ``raw`` in exactly the fields whose
    header the codecs parse, holding the last value the chain wrote, and
    otherwise only in the checksums covering them."""
    try:
        frame = Ethernet.unpack(raw)
    except PacketError:
        frame = None
    packet = segment = None
    if frame is not None:
        packet = frame.find(IPv4)
        segment = frame.find(TCP)
        if segment is None:
            segment = frame.find(UDP)
    l4 = 14 + (raw[14] & 0x0F) * 4 if packet is not None else 0
    csum_at = l4 + (16 if isinstance(segment, TCP) else 6)
    l4_csum = (csum_at, csum_at + 1)

    written = {}
    checksums = set()
    expected = []
    for action in actions:
        if isinstance(action, Output):
            expected.append((dict(written), set(checksums)))
        elif frame is None:
            continue
        elif isinstance(action, (SetDlSrc, SetDlDst)):
            at = 6 if isinstance(action, SetDlSrc) else 0
            written.update(zip(range(at, at + 6), action.mac.packed))
        elif isinstance(action, (SetNwSrc, SetNwDst)) and packet is not None:
            at = 26 if isinstance(action, SetNwSrc) else 30
            written.update(zip(range(at, at + 4), action.ip.packed))
            checksums.update((24, 25))
            if segment is not None:
                checksums.update(l4_csum)
        elif isinstance(action, (SetTpSrc, SetTpDst)) and segment is not None:
            at = l4 if isinstance(action, SetTpSrc) else l4 + 2
            written.update(zip(range(at, at + 2), action.port.to_bytes(2, "big")))
            checksums.update(l4_csum)

    sent = byte_path(raw, actions)
    assert len(sent) == len(expected)
    for out, (fields, covering) in zip(sent, expected):
        assert len(out) == len(raw)
        assert {i: out[i] for i in fields} == fields
        changed = {i for i in range(len(raw)) if out[i] != raw[i]}
        assert changed <= set(fields) | covering, sorted(changed - set(fields) - covering)


def _patched(raw, at, value):
    buf = bytearray(raw)
    buf[at : at + len(value)] = value
    return bytes(buf)


class TestMalformedFrames:
    @settings(max_examples=60, deadline=None)
    @given(frames, action_chains())
    def test_truncated_at_every_offset(self, raw, actions):
        for cut in range(len(raw)):
            _assert_edits_fields_only(raw[:cut], actions)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(tcp_frames(), udp_frames(), icmp_frames()), action_chains(), st.data())
    def test_broken_ipv4_header(self, raw, actions, data):
        defect = data.draw(st.sampled_from(["version", "ihl_short", "ihl_long", "total_len"]))
        if defect == "version":
            version = data.draw(st.integers(min_value=0, max_value=15).filter(lambda v: v != 4))
            raw = _patched(raw, 14, bytes([(version << 4) | (raw[14] & 0x0F)]))
        elif defect == "ihl_short":
            raw = _patched(raw, 14, bytes([0x40 | data.draw(st.integers(0, 4))]))
        elif defect == "ihl_long":
            raw = _patched(raw, 14, bytes([0x40 | data.draw(st.integers(6, 15))]))
        else:
            raw = _patched(raw, 16, data.draw(st.integers(0, 19)).to_bytes(2, "big"))
        _assert_edits_fields_only(raw, actions)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(tcp_frames(), udp_frames()), action_chains(), st.data())
    def test_ipv4_total_len_short_of_the_frame(self, raw, actions, data):
        """Bytes past ``total_len`` are padding; when it cuts into the
        transport header, that header is not there to edit."""
        total_len = data.draw(st.integers(20, len(raw) - 14))
        raw = _patched(raw, 16, total_len.to_bytes(2, "big"))
        _assert_edits_fields_only(raw, actions)

    @settings(max_examples=150, deadline=None)
    @given(tcp_frames(), action_chains(), st.integers(0, 15).filter(lambda n: n != 5))
    def test_bad_tcp_data_offset(self, raw, actions, offset):
        """Below 5, or (when the payload is short) past the segment's end."""
        raw = _patched(raw, 46, bytes([(offset << 4) | (raw[46] & 0x0F)]))
        _assert_edits_fields_only(raw, actions)

    @settings(max_examples=100, deadline=None)
    @given(udp_frames(), action_chains(), st.integers(0, 7))
    def test_udp_length_below_eight(self, raw, actions, length):
        raw = _patched(raw, 38, length.to_bytes(2, "big"))
        _assert_edits_fields_only(raw, actions)

    @settings(max_examples=60, deadline=None)
    @given(arp_frames(), action_chains(), st.integers(3, 0xFFFF))
    def test_arp_unknown_opcode(self, raw, actions, opcode):
        raw = _patched(raw, 20, opcode.to_bytes(2, "big"))
        _assert_edits_fields_only(raw, actions)

    @settings(max_examples=100, deadline=None)
    @given(udp_frames(), action_chains())
    def test_udp_without_checksum_stays_without(self, raw, actions):
        raw = _patched(raw, 40, b"\x00\x00")
        for out in byte_path(raw, actions):
            assert out[40:42] == b"\x00\x00"


# ----------------------------------------------------------------------
# ARP: the builder and the reader
# ----------------------------------------------------------------------


def assert_reads_like_arp_unpack(raw):
    """``read_arp(raw)`` against ``ARP.unpack`` of the body behind the
    Ethernet header: the reference's fields exactly when it accepts the
    body, else None."""
    fields = read_arp(raw)
    try:
        arp = ARP.unpack(raw[14:])
    except PacketError:
        assert fields is None
        return
    assert fields == (arp.opcode, arp.sender_mac.packed, int(arp.sender_ip), int(arp.target_ip))
    assert type(fields[1]) is bytes


class TestArp:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([ARP_REQUEST, ARP_REPLY]), macs, ips, macs, ips)
    def test_builder_matches_the_reference(self, opcode, smac, sip, tmac, tip):
        built = arp_packet(opcode, smac.packed, int(sip), tmac.packed, int(tip))
        assert built == ARP(opcode, smac, sip, tmac, tip).pack()

    @settings(max_examples=200, deadline=None)
    @given(arp_frames())
    def test_reader_on_codec_built_frames(self, raw):
        assert read_arp(raw) is not None
        assert_reads_like_arp_unpack(raw)

    @settings(max_examples=100, deadline=None)
    @given(arp_frames(), st.binary(min_size=1, max_size=32))
    def test_trailing_padding_is_accepted(self, raw, padding):
        assert read_arp(raw + padding) == read_arp(raw)
        assert_reads_like_arp_unpack(raw + padding)

    @settings(max_examples=40, deadline=None)
    @given(arp_frames())
    def test_short_bodies(self, raw):
        for cut in range(len(raw)):
            assert_reads_like_arp_unpack(raw[:cut])
        assert read_arp(raw[:41]) is None

    @settings(max_examples=300, deadline=None)
    @given(arp_frames(), st.data())
    def test_broken_header_fields(self, raw, data):
        field = data.draw(st.sampled_from(["hw", "proto", "hlen", "plen", "opcode"]))
        at, size = {"hw": (14, 2), "proto": (16, 2), "hlen": (18, 1), "plen": (19, 1),
                    "opcode": (20, 2)}[field]
        value = data.draw(st.integers(0, (1 << (8 * size)) - 1))
        assert_reads_like_arp_unpack(_patched(raw, at, value.to_bytes(size, "big")))

    @pytest.mark.parametrize("opcode", [0, 3, 0x0101, 0xFFFF])
    def test_opcodes_other_than_request_and_reply_are_rejected(self, opcode):
        raw = Ethernet("ff:ff:ff:ff:ff:ff", "02:aa:00:00:00:05", ETH_TYPE_ARP,
                       ARP.request("02:aa:00:00:00:05", "10.2.0.6", "10.2.0.5")).pack()
        raw = _patched(raw, 20, opcode.to_bytes(2, "big"))
        assert read_arp(raw) is None
        assert_reads_like_arp_unpack(raw)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=28, max_size=40))
    def test_random_bodies(self, body):
        assert_reads_like_arp_unpack(bytes(12) + ETH_TYPE_ARP.to_bytes(2, "big") + body)


# ----------------------------------------------------------------------
# The checksum
# ----------------------------------------------------------------------


class TestChecksum:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\x00",
            b"\x00" * 20,
            b"\x00" * 21,
            b"\xff",
            b"\xff" * 20,
            b"\xff" * 21,
            b"\x01",
            b"\x12\x34\x56",
            b"\xff\xff\x00\x00",  # nonzero sum divisible by 0xFFFF
        ],
    )
    def test_edge_cases_match_the_loop(self, data):
        assert internet_checksum(data) == loop_checksum(data)

    @settings(max_examples=500)
    @given(st.binary(max_size=200))
    def test_matches_the_loop(self, data):
        assert internet_checksum(data) == loop_checksum(data)

    @settings(max_examples=300)
    @given(st.binary(min_size=2, max_size=64), st.data())
    def test_update_equals_recompute(self, data, draw):
        """RFC 1624 eqn 3 agrees bit for bit with a full recompute
        whenever the data stays nonzero."""
        words = len(data) // 2
        at = 2 * draw.draw(st.integers(min_value=0, max_value=words - 1))
        width = 2 * draw.draw(st.integers(min_value=1, max_value=words - at // 2))
        new = draw.draw(st.binary(min_size=width, max_size=width))
        edited = data[:at] + new + data[at + width :]
        if not any(data) or not any(edited):
            return
        patched = checksum_update(internet_checksum(data), data[at : at + width], new)
        assert patched == internet_checksum(edited)
