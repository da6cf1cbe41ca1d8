"""TCP (RFC 793) segments.

The simulator models application traffic (web, streaming, mail, ...) as
TCP flows; the measurement plane observes their five-tuples and byte
counts to populate the hwdb ``Flows`` table.
"""

from __future__ import annotations

import struct
from typing import Union

from .addresses import IPv4Address
from .checksum import internet_checksum, pseudo_header
from .ipv4 import PROTO_TCP
from .packet import Packet, PacketError, Payload

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


class TCP(Packet):
    """A TCP segment (no options — the simulator does not need them)."""

    def __init__(
        self,
        sport: int,
        dport: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = ACK,
        window: int = 65535,
        urgent: int = 0,
        payload: Payload = b"",
    ):
        for name, port in (("sport", sport), ("dport", dport)):
            if not 0 <= int(port) <= 0xFFFF:
                raise PacketError(f"TCP {name} out of range: {port}")
        self.sport = int(sport)
        self.dport = int(dport)
        self.seq = int(seq) & 0xFFFFFFFF
        self.ack = int(ack) & 0xFFFFFFFF
        self.flags = int(flags)
        self.window = int(window)
        self.urgent = int(urgent)
        self.payload = payload

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & SYN) and not (self.flags & ACK)

    @property
    def is_synack(self) -> bool:
        return bool(self.flags & SYN) and bool(self.flags & ACK)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & RST)

    def flag_names(self) -> str:
        """Human-readable flag string, e.g. ``"SYN|ACK"``."""
        names = []
        for bit, name in (
            (SYN, "SYN"),
            (ACK, "ACK"),
            (FIN, "FIN"),
            (RST, "RST"),
            (PSH, "PSH"),
            (URG, "URG"),
        ):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) if names else "none"

    def pack(self) -> bytes:
        """Pack with a zero checksum (it needs the IPv4 addresses)."""
        header = tcp_header(
            self.sport, self.dport, self.seq, self.ack, self.flags, self.window, self.urgent
        )
        return header + self.pack_payload()

    def pack_with_pseudo(
        self, src: Union[str, IPv4Address], dst: Union[str, IPv4Address]
    ) -> bytes:
        return tcp_segment(
            int(IPv4Address(src)),
            int(IPv4Address(dst)),
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            self.flags,
            self.pack_payload(),
            self.window,
            self.urgent,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "TCP":
        if len(data) < _MIN_HEADER_LEN:
            raise PacketError(f"TCP segment too short: {len(data)} bytes")
        offset = (data[12] >> 4) * 4
        if offset < _MIN_HEADER_LEN or len(data) < offset:
            raise PacketError(f"bad TCP data offset: {offset}")
        return cls(
            sport=int.from_bytes(data[0:2], "big"),
            dport=int.from_bytes(data[2:4], "big"),
            seq=int.from_bytes(data[4:8], "big"),
            ack=int.from_bytes(data[8:12], "big"),
            flags=data[13] & 0x3F,
            window=int.from_bytes(data[14:16], "big"),
            urgent=int.from_bytes(data[18:20], "big"),
            payload=data[offset:],
        )

    def __repr__(self) -> str:
        return (
            f"TCP(sport={self.sport}, dport={self.dport}, "
            f"flags={self.flag_names()}, len={len(self.pack_payload())})"
        )
