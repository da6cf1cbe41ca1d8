"""Set-field edits on raw Ethernet frames, at fixed offsets.

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
lives in, by the same tests ``IPv4.unpack``, ``TCP.unpack`` and
``UDP.unpack`` apply before they parse that header; nothing else in the
frame changes.  On a frame the codecs build, the result is therefore
byte-identical to unpacking the frame, assigning the field and packing
it again.  Any other frame is edited, not normalised: Ethernet padding,
IPv4 options and wrong checksums pass through as they came.
"""

from __future__ import annotations

from typing import Tuple

from .checksum import checksum_update
from .ethernet import ETH_TYPE_IPV4
from .ipv4 import PROTO_TCP, PROTO_UDP

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
#: Checksum offsets within the transport header.
_L4_CSUM = {PROTO_TCP: 16, PROTO_UDP: 6}

_IPV4_TAG = ETH_TYPE_IPV4.to_bytes(2, "big")


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


def _ipv4_header_len(buf: bytearray) -> int:
    """The IPv4 header length ``IPv4.unpack`` would accept, else 0."""
    if len(buf) < _L3 + _IP_MIN_HEADER or buf[_ETHERTYPE:_L3] != _IPV4_TAG:
        return 0
    ver_ihl = buf[_L3]
    ihl = (ver_ihl & 0x0F) * 4
    if ver_ihl >> 4 != 4 or ihl < _IP_MIN_HEADER or len(buf) < _L3 + ihl:
        return 0
    if int.from_bytes(buf[_IP_TOTAL_LEN : _IP_TOTAL_LEN + 2], "big") < ihl:
        return 0
    return ihl


def _transport(buf: bytearray, ihl: int) -> Tuple[int, int]:
    """``(offset, proto)`` of the TCP/UDP header the codecs would parse
    behind an IPv4 header of ``ihl`` bytes, else ``(0, 0)``."""
    start = _L3 + ihl
    # The segment ends at total_len or the frame's end, whichever is first.
    l3_len = len(buf) - _L3
    total_len = int.from_bytes(buf[_IP_TOTAL_LEN : _IP_TOTAL_LEN + 2], "big")
    size = min(total_len, l3_len) - ihl
    proto = buf[_IP_PROTO]
    if proto == PROTO_TCP and size >= _TCP_MIN_HEADER:
        offset = (buf[start + 12] >> 4) * 4
        if _TCP_MIN_HEADER <= offset <= size:
            return start, proto
    elif proto == PROTO_UDP and size >= _UDP_HEADER:
        if int.from_bytes(buf[start + 4 : start + 6], "big") >= _UDP_HEADER:
            return start, proto
    return 0, 0


def _set_nw(buf: bytearray, at: int, ip: bytes) -> None:
    ihl = _ipv4_header_len(buf)
    if not ihl:
        return
    old = bytes(buf[at : at + 4])
    buf[at : at + 4] = ip
    _patch_checksum(buf, _IP_CSUM, old, ip)
    start, proto = _transport(buf, ihl)
    if start:
        _patch_checksum(buf, start + _L4_CSUM[proto], old, ip, udp=proto == PROTO_UDP)


def _set_tp(buf: bytearray, field: int, port: int) -> None:
    ihl = _ipv4_header_len(buf)
    start, proto = _transport(buf, ihl) if ihl else (0, 0)
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
