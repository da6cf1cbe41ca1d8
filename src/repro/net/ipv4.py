"""IPv4 (RFC 791): the protocol numbers and the packet builder.

:func:`ipv4_packet` writes a 20-byte header with its checksum; receivers
read the header at fixed offsets (:mod:`repro.net.rewrite`).
"""

from __future__ import annotations

import struct

from .checksum import internet_checksum
from .packet import PacketError

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_MIN_HEADER_LEN = 20
DEFAULT_TTL = 64

#: Version/IHL through destination; the checksum is at bytes 10-11.
_HEADER = struct.Struct("!BBHHHBBHII")
_VER_IHL = (4 << 4) | 5


def ipv4_packet(
    src: int,
    dst: int,
    proto: int,
    payload: bytes,
    ttl: int = DEFAULT_TTL,
    tos: int = 0,
    ident: int = 0,
    flags: int = 0,
    frag_offset: int = 0,
) -> bytes:
    """An IPv4 packet from ``src`` to ``dst`` (addresses as ints) with a
    20-byte header, its checksum filled in, carrying ``payload``."""
    total_len = _MIN_HEADER_LEN + len(payload)
    if total_len > 0xFFFF:
        raise PacketError(f"IPv4 packet too long: {total_len} bytes")
    flags_frag = ((flags & 0x7) << 13) | (frag_offset & 0x1FFF)
    header = _HEADER.pack(_VER_IHL, tos, total_len, ident, flags_frag, ttl, proto, 0, src, dst)
    return header[:10] + internet_checksum(header).to_bytes(2, "big") + header[12:] + payload
