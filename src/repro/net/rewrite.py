"""Set-field edits, the flow key and the header reader, on raw Ethernet
frames, at fixed offsets.

The datapath rewrites a forwarded frame the way Open vSwitch's set-field
actions do (DESIGN.md §14, "Rewrite in place"): it never parses the
frame into layer objects.  A MAC is a 6-byte store outside every
checksum.  An IPv4 address or a TCP/UDP port is a store plus an
incremental patch (RFC 1624) of each checksum that covers it: the IPv4
header checksum for an address, the TCP/UDP checksum (whose pseudo
header holds both addresses) for an address or a port.  A UDP checksum
of 0 means "none" and stays 0; a patched one that comes out 0 is sent
as 0xFFFF (RFC 768).

Each function edits a ``bytearray`` holding one whole frame and never
raises.  A field is edited only when the frame holds the header it
lives in, by this module's acceptance tests: an IPv4 header of version
4 whose length is at least 20 bytes, fits the frame and is no longer
than the total length (:func:`_ipv4_header_len`); then a TCP header
whose data offset is at least 20 bytes and fits the segment, or a UDP
header whose length field is at least 8 (:func:`_transport`).  Nothing
else in the frame changes.  Any other frame is edited, not normalised:
Ethernet padding, IPv4 options and wrong checksums pass through as they
came.

:func:`flow_key` reads the datapath's match key the same way (DESIGN.md
§14, "Key from bytes"), as Open vSwitch's flow extractor does before its
microflow hash lookup.  It applies the same acceptance tests, plus an
8-byte ICMP header and a 28-byte Ethernet/IPv4 ARP request or reply: a
header that fails its test leaves its fields ``None``.

:func:`read_frame` is the receiving half (DESIGN.md §14, "Hosts speak
bytes"): the fields a host dispatches on and the payload it hands up,
and the payload a packet-in handler consumes, under the same acceptance
tests, cut at the IPv4 total length and the UDP length.
:func:`read_arp` reads an ARP packet's fields under the ARP test, for
hosts and proxy ARP, and :func:`flow_key` takes its ARP fields from it.

The tests check all four against the layer-object codecs kept in
``tests/reference_codecs.py``: on every frame those build or would
parse, the key and the fields are the ones read off the unpacked
objects, and an edit is byte-identical to unpacking the frame, assigning
the field and packing it again.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from .arp import ARP_REPLY, ARP_REQUEST
from .checksum import checksum_update
from .ethernet import ETH_TYPE_ARP, ETH_TYPE_IPV4
from .ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP

#: Offsets into the frame.
_DL_DST = 0
_DL_SRC = 6
_ETHERTYPE = 12
_L3 = 14  # first byte of the IPv4 header
_IP_TOTAL_LEN = _L3 + 2
_IP_PROTO = _L3 + 9
_IP_CSUM = _L3 + 10
_NW_SRC = _L3 + 12
_NW_DST = _L3 + 16

_IP_MIN_HEADER = 20
_TCP_MIN_HEADER = 20
_UDP_HEADER = 8
_ICMP_HEADER = 8
#: Checksum offsets within the transport header.
_L4_CSUM = {PROTO_TCP: 16, PROTO_UDP: 6}

_IPV4_TAG = ETH_TYPE_IPV4.to_bytes(2, "big")

#: An ARP packet this module reads: 28 bytes starting with hardware
#: type Ethernet, protocol type IPv4 and address lengths 6 and 4, and
#: opcode request or reply.
_ARP_LEN = 28
_ARP_ETH_IPV4 = bytes([0, 1, 8, 0, 6, 4])
_ARP_OPCODES = (ARP_REQUEST, ARP_REPLY)
_ARP_OPCODE = _L3 + 6
_ARP_SENDER_MAC = _L3 + 8

#: Ethernet header: dl_dst and dl_src as (high 16, low 32) bit halves.
_ETH_FIELDS = struct.Struct("!HIHIH")
_ADDR_PAIR = struct.Struct("!II")
_PORT_PAIR = struct.Struct("!HH")
#: TCP ports, seq, ack, data-offset byte and flags byte.
_TCP_FIELDS = struct.Struct("!HHIIBB")
#: UDP ports and length.
_UDP_FIELDS = struct.Struct("!HHH")
#: ICMP type and code, then (past the checksum) an echo's ident and seq.
_ICMP_FIELDS = struct.Struct("!BB2xHH")
#: An ARP packet's sender MAC and address, then (past the target MAC)
#: its target address.
_ARP_FIELDS = struct.Struct("!6sI6xI")

#: A flow key in ``repro.openflow.match.MATCH_FIELDS`` order: in_port,
#: dl_src, dl_dst, dl_type, nw_src, nw_dst, nw_proto, tp_src, tp_dst,
#: with addresses as ints and absent fields as None.
FlowKeyTuple = Tuple[
    int, int, int, int,
    Optional[int], Optional[int], Optional[int], Optional[int], Optional[int],
]

#: What a host reads off a frame (:func:`read_frame`): dl_dst, dl_type,
#: nw_src, nw_dst, nw_proto, the transport fields and the payload.
HostFrame = Tuple[
    int, int, Optional[int], Optional[int], Optional[int], Optional[Tuple[int, ...]], bytes
]

#: What :func:`read_arp` reads: the opcode, the 6-byte sender MAC, and
#: the sender and target addresses as ints.
ArpFields = Tuple[int, bytes, int, int]


def set_dl_dst(buf: bytearray, mac: bytes) -> None:
    """Store the 6-byte Ethernet destination."""
    if len(buf) >= _L3:
        buf[_DL_DST : _DL_DST + 6] = mac


def set_dl_src(buf: bytearray, mac: bytes) -> None:
    """Store the 6-byte Ethernet source."""
    if len(buf) >= _L3:
        buf[_DL_SRC : _DL_SRC + 6] = mac


def set_nw_src(buf: bytearray, ip: bytes) -> None:
    """Store the 4-byte IPv4 source, patching the checksums over it."""
    _set_nw(buf, _NW_SRC, ip)


def set_nw_dst(buf: bytearray, ip: bytes) -> None:
    """Store the 4-byte IPv4 destination, patching the checksums over it."""
    _set_nw(buf, _NW_DST, ip)


def set_tp_src(buf: bytearray, port: int) -> None:
    """Store the TCP/UDP source port, patching the transport checksum."""
    _set_tp(buf, 0, port)


def set_tp_dst(buf: bytearray, port: int) -> None:
    """Store the TCP/UDP destination port, patching the transport checksum."""
    _set_tp(buf, 2, port)


def flow_key(frame: bytes, in_port: int) -> Optional[FlowKeyTuple]:
    """The flow key of ``frame`` received on ``in_port``, or None when
    the frame is shorter than an Ethernet header.

    IPv4 yields the addresses and protocol, plus the ports of a TCP or
    UDP header and the type and code of an ICMP header.  ARP yields the
    sender and target addresses and the opcode.  Any other ethertype,
    and any header that fails its acceptance test, leaves its fields None.
    """
    if len(frame) < _L3:
        return None
    dst_hi, dst_lo, src_hi, src_lo, dl_type = _ETH_FIELDS.unpack_from(frame)
    dl_src = src_hi << 32 | src_lo
    dl_dst = dst_hi << 32 | dst_lo
    if dl_type == ETH_TYPE_IPV4:
        ihl = _ipv4_header_len(frame)
        if ihl:
            nw_src, nw_dst = _ADDR_PAIR.unpack_from(frame, _NW_SRC)
            nw_proto = frame[_IP_PROTO]
            if nw_proto == PROTO_ICMP:
                if _segment_len(frame, ihl) >= _ICMP_HEADER:
                    start = _L3 + ihl
                    return (
                        in_port, dl_src, dl_dst, dl_type, nw_src, nw_dst, nw_proto,
                        frame[start], frame[start + 1],
                    )
            else:
                start, _proto, _size = _transport(frame, ihl)
                if start:
                    tp_src, tp_dst = _PORT_PAIR.unpack_from(frame, start)
                    return (
                        in_port, dl_src, dl_dst, dl_type, nw_src, nw_dst, nw_proto,
                        tp_src, tp_dst,
                    )
            return (in_port, dl_src, dl_dst, dl_type, nw_src, nw_dst, nw_proto, None, None)
    elif dl_type == ETH_TYPE_ARP:
        arp = read_arp(frame)
        if arp is not None:
            opcode, _sender_mac, sender, target = arp
            return (in_port, dl_src, dl_dst, dl_type, sender, target, opcode, None, None)
    return (in_port, dl_src, dl_dst, dl_type, None, None, None, None, None)


def read_frame(frame: bytes) -> Optional[HostFrame]:
    """The fields a receiver dispatches on, or None when the frame is
    shorter than an Ethernet header.

    For an IPv4 packet that passes its acceptance test, nw_src, nw_dst
    and nw_proto are set, and the transport fields are ``(sport, dport,
    seq, ack, flags)`` for TCP, ``(sport, dport)`` for UDP and ``(type,
    code, ident, seq)`` for ICMP.  The payload is what the deepest
    accepted header carries, cut at the IPv4 total length and the UDP
    length.  A transport header that fails its test, or another
    protocol, leaves the transport fields None and the payload the IPv4
    body.  Any other frame leaves all of these None and the payload
    everything behind the Ethernet header.
    """
    if len(frame) < _L3:
        return None
    dst_hi, dst_lo, _src_hi, _src_lo, dl_type = _ETH_FIELDS.unpack_from(frame)
    dl_dst = dst_hi << 32 | dst_lo
    ihl = _ipv4_header_len(frame) if dl_type == ETH_TYPE_IPV4 else 0
    if not ihl:
        return dl_dst, dl_type, None, None, None, None, frame[_L3:]
    nw_src, nw_dst = _ADDR_PAIR.unpack_from(frame, _NW_SRC)
    nw_proto = frame[_IP_PROTO]
    start = _L3 + ihl
    transport: Optional[Tuple[int, ...]] = None
    if nw_proto == PROTO_ICMP:
        size = _segment_len(frame, ihl)
        if size >= _ICMP_HEADER:
            transport = _ICMP_FIELDS.unpack_from(frame, start)
            end = start + size
            start += _ICMP_HEADER
    else:
        at, _proto, size = _transport(frame, ihl)
        if at and nw_proto == PROTO_TCP:
            sport, dport, seq, ack, offset, flags = _TCP_FIELDS.unpack_from(frame, at)
            transport = (sport, dport, seq, ack, flags & 0x3F)
            end = start + size
            start += (offset >> 4) * 4
        elif at:
            sport, dport, length = _UDP_FIELDS.unpack_from(frame, at)
            transport = (sport, dport)
            end = start + max(_UDP_HEADER, min(length, size))
            start += _UDP_HEADER
    if transport is None:
        end = start + _segment_len(frame, ihl)  # the IPv4 body
    return dl_dst, dl_type, nw_src, nw_dst, nw_proto, transport, frame[start:end]


def read_arp(frame: bytes) -> Optional[ArpFields]:
    """``(opcode, sender_mac, sender_ip, target_ip)`` of the ARP packet
    behind the Ethernet header of ``frame``, or None when that packet
    fails the ARP test (:func:`_arp_opcode`).  The caller has read the
    ethertype; padding behind the 28 bytes is ignored."""
    opcode = _arp_opcode(frame)
    if not opcode:
        return None
    sender_mac, sender_ip, target_ip = _ARP_FIELDS.unpack_from(frame, _ARP_SENDER_MAC)
    return opcode, sender_mac, sender_ip, target_ip


def _ipv4_header_len(buf: bytes) -> int:
    """The length of the IPv4 header ``buf`` holds, else 0."""
    if len(buf) < _L3 + _IP_MIN_HEADER or buf[_ETHERTYPE:_L3] != _IPV4_TAG:
        return 0
    ver_ihl = buf[_L3]
    ihl = (ver_ihl & 0x0F) * 4
    if ver_ihl >> 4 != 4 or ihl < _IP_MIN_HEADER or len(buf) < _L3 + ihl:
        return 0
    if (buf[_IP_TOTAL_LEN] << 8 | buf[_IP_TOTAL_LEN + 1]) < ihl:
        return 0
    return ihl


def _segment_len(buf: bytes, ihl: int) -> int:
    """Bytes behind an IPv4 header of ``ihl`` bytes that belong to the
    layer above."""
    # The segment ends at total_len or the frame's end, whichever is first.
    l3_len = len(buf) - _L3
    total_len = buf[_IP_TOTAL_LEN] << 8 | buf[_IP_TOTAL_LEN + 1]
    return (total_len if total_len < l3_len else l3_len) - ihl


def _transport(buf: bytes, ihl: int) -> Tuple[int, int, int]:
    """``(offset, proto, size)`` of the TCP/UDP header that passes its
    acceptance test behind an IPv4 header of ``ihl`` bytes, ``size`` being the
    segment's length (:func:`_segment_len`), else ``(0, 0, 0)``.  ICMP
    is not a transport here: it has no ports to edit."""
    start = _L3 + ihl
    if len(buf) < start + _UDP_HEADER:
        return 0, 0, 0  # no room for the smaller of the two headers
    size = _segment_len(buf, ihl)
    proto = buf[_IP_PROTO]
    if proto == PROTO_TCP and size >= _TCP_MIN_HEADER:
        offset = (buf[start + 12] >> 4) * 4
        if _TCP_MIN_HEADER <= offset <= size:
            return start, proto, size
    elif proto == PROTO_UDP and size >= _UDP_HEADER:
        if (buf[start + 4] << 8 | buf[start + 5]) >= _UDP_HEADER:
            return start, proto, size
    return 0, 0, 0


def _arp_opcode(buf: bytes) -> int:
    """The opcode of the ARP packet behind the Ethernet header of
    ``buf``, else 0: the one ARP test, which ``flow_key`` and
    :func:`read_arp` share."""
    if len(buf) < _L3 + _ARP_LEN or buf[_L3 : _L3 + 6] != _ARP_ETH_IPV4:
        return 0
    opcode = buf[_ARP_OPCODE] << 8 | buf[_ARP_OPCODE + 1]
    return opcode if opcode in _ARP_OPCODES else 0


def _set_nw(buf: bytearray, at: int, ip: bytes) -> None:
    ihl = _ipv4_header_len(buf)
    if not ihl:
        return
    old = bytes(buf[at : at + 4])
    buf[at : at + 4] = ip
    _patch_checksum(buf, _IP_CSUM, old, ip)
    start, proto, _size = _transport(buf, ihl)
    if start:
        _patch_checksum(buf, start + _L4_CSUM[proto], old, ip, udp=proto == PROTO_UDP)


def _set_tp(buf: bytearray, field: int, port: int) -> None:
    ihl = _ipv4_header_len(buf)
    start, proto, _size = _transport(buf, ihl) if ihl else (0, 0, 0)
    if not start:
        return
    at = start + field
    old = bytes(buf[at : at + 2])
    new = port.to_bytes(2, "big")
    buf[at : at + 2] = new
    _patch_checksum(buf, start + _L4_CSUM[proto], old, new, udp=proto == PROTO_UDP)


def _patch_checksum(
    buf: bytearray, at: int, old: bytes, new: bytes, udp: bool = False
) -> None:
    """Patch the checksum at ``at`` for a covered field going old -> new."""
    if len(buf) < at + 2:
        return
    csum = int.from_bytes(buf[at : at + 2], "big")
    if udp and not csum:
        return  # sent without a checksum; nothing covers the field
    csum = checksum_update(csum, old, new)
    if udp and not csum:
        csum = 0xFFFF
    buf[at : at + 2] = csum.to_bytes(2, "big")
