"""UDP (RFC 768). Carries DNS, DHCP and the hwdb RPC protocol."""

from __future__ import annotations

import struct

from .checksum import internet_checksum, pseudo_header
from .ipv4 import PROTO_UDP
from .packet import PacketError

_HEADER_LEN = 8
_HEADER = struct.Struct("!HHHH")
#: The largest payload one IPv4 packet carries: 65,535 - 20 - 8 bytes.
MAX_PAYLOAD = 0xFFFF - 20 - _HEADER_LEN

# Well-known ports the router's services listen on.
PORT_DNS = 53
PORT_DHCP_SERVER = 67
PORT_DHCP_CLIENT = 68
PORT_HWDB_RPC = 987  # the Homework database RPC endpoint


def udp_header(sport: int, dport: int, size: int) -> bytes:
    """The 8-byte UDP header, checksum zero, of a datagram carrying
    ``size`` payload bytes; raises :class:`PacketError` above
    :data:`MAX_PAYLOAD`."""
    if size > MAX_PAYLOAD:
        raise PacketError(f"UDP payload too large: {size} bytes (max {MAX_PAYLOAD})")
    return _HEADER.pack(sport, dport, _HEADER_LEN + size, 0)


def udp_datagram(src: int, dst: int, sport: int, dport: int, payload: bytes) -> bytes:
    """A UDP datagram carrying ``payload``, its checksum taken over the
    pseudo header of ``src`` -> ``dst`` (addresses as ints).  A checksum
    that folds to 0 is sent as 0xFFFF, since 0 means "none" (RFC 768)."""
    header = udp_header(sport, dport, len(payload))
    pseudo = pseudo_header(src, dst, PROTO_UDP, _HEADER_LEN + len(payload))
    csum = internet_checksum(pseudo + header + payload) or 0xFFFF
    return header[:6] + csum.to_bytes(2, "big") + payload
