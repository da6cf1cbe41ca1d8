"""TCP (RFC 793) segments.

The simulator models application traffic (web, streaming, mail, ...) as
TCP flows; the measurement plane observes their five-tuples and byte
counts to populate the hwdb ``Flows`` table.
"""

from __future__ import annotations

import struct

from .checksum import internet_checksum, pseudo_header
from .ipv4 import PROTO_TCP

_MIN_HEADER_LEN = 20
#: Ports, seq, ack, data offset and flags, window, checksum, urgent.
_HEADER = struct.Struct("!HHIIHHHH")
_OFFSET_5 = 5 << 12  # a 20-byte header: no options

# Flag bits.
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20

# Well-known service ports used by the traffic generators and the
# application-protocol mapping (paper §1: "imperfect application-protocol
# mapping").
PORT_HTTP = 80
PORT_HTTPS = 443
PORT_SSH = 22
PORT_SMTP = 25
PORT_IMAP = 143
PORT_IMAPS = 993
PORT_RTMP = 1935
PORT_BITTORRENT = 6881


def tcp_header(
    sport: int,
    dport: int,
    seq: int,
    ack: int,
    flags: int,
    window: int = 65535,
    urgent: int = 0,
) -> bytes:
    """A 20-byte TCP header with a zero checksum; ``seq`` and ``ack``
    are taken modulo 2**32."""
    return _HEADER.pack(
        sport,
        dport,
        seq & 0xFFFFFFFF,
        ack & 0xFFFFFFFF,
        _OFFSET_5 | (flags & 0x3F),
        window,
        0,
        urgent,
    )


def tcp_segment(
    src: int,
    dst: int,
    sport: int,
    dport: int,
    seq: int,
    ack: int,
    flags: int,
    payload: bytes = b"",
    window: int = 65535,
    urgent: int = 0,
) -> bytes:
    """A TCP segment carrying ``payload``, its checksum taken over the
    pseudo header of ``src`` -> ``dst`` (addresses as ints)."""
    header = tcp_header(sport, dport, seq, ack, flags, window, urgent)
    pseudo = pseudo_header(src, dst, PROTO_TCP, _MIN_HEADER_LEN + len(payload))
    csum = internet_checksum(pseudo + header + payload)
    return header[:16] + csum.to_bytes(2, "big") + header[18:] + payload
