"""IPv4 (RFC 791) header with checksum computation and upper-layer parsing."""

from __future__ import annotations

import struct
from typing import Union

from .addresses import IPv4Address
from .checksum import internet_checksum
from .packet import Packet, PacketError, Payload

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


class IPv4(Packet):
    """An IPv4 datagram (no options support — the home stack never sets any)."""

    def __init__(
        self,
        src: Union[str, IPv4Address],
        dst: Union[str, IPv4Address],
        proto: int = PROTO_UDP,
        ttl: int = DEFAULT_TTL,
        tos: int = 0,
        ident: int = 0,
        flags: int = 0,
        frag_offset: int = 0,
        payload: Payload = b"",
    ):
        self.src = IPv4Address(src)
        self.dst = IPv4Address(dst)
        self.proto = int(proto)
        self.ttl = int(ttl)
        self.tos = int(tos)
        self.ident = int(ident)
        self.flags = int(flags)
        self.frag_offset = int(frag_offset)
        self.payload = payload

    def pack(self) -> bytes:
        # UDP/TCP checksums need the pseudo header, so compute them here
        # where src/dst are known, if the payload layer requests it.
        if isinstance(self.payload, Packet) and hasattr(self.payload, "pack_with_pseudo"):
            body = self.payload.pack_with_pseudo(self.src, self.dst)
        else:
            body = self.pack_payload()
        return ipv4_packet(
            int(self.src),
            int(self.dst),
            self.proto,
            body,
            self.ttl,
            self.tos,
            self.ident,
            self.flags,
            self.frag_offset,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4":
        if len(data) < _MIN_HEADER_LEN:
            raise PacketError(f"IPv4 header too short: {len(data)} bytes")
        version = data[0] >> 4
        ihl = (data[0] & 0x0F) * 4
        if version != 4:
            raise PacketError(f"not IPv4: version={version}")
        if ihl < _MIN_HEADER_LEN or len(data) < ihl:
            raise PacketError(f"bad IHL: {ihl}")
        total_len = int.from_bytes(data[2:4], "big")
        if total_len < ihl:
            raise PacketError(f"bad total length: {total_len}")
        flags_frag = int.from_bytes(data[6:8], "big")
        pkt = cls(
            src=IPv4Address(data[12:16]),
            dst=IPv4Address(data[16:20]),
            proto=data[9],
            ttl=data[8],
            tos=data[1],
            ident=int.from_bytes(data[4:6], "big"),
            flags=flags_frag >> 13,
            frag_offset=flags_frag & 0x1FFF,
        )
        body = data[ihl : max(ihl, min(total_len, len(data)))]
        payload: Payload = body
        if pkt.proto == PROTO_UDP and body:
            from .udp import UDP

            try:
                payload = UDP.unpack(bytes(body))
            except PacketError:
                pass
        elif pkt.proto == PROTO_TCP and body:
            from .tcp import TCP

            try:
                payload = TCP.unpack(bytes(body))
            except PacketError:
                pass
        elif pkt.proto == PROTO_ICMP and body:
            from .icmp import ICMP

            try:
                payload = ICMP.unpack(bytes(body))
            except PacketError:
                pass
        pkt.payload = payload
        return pkt

    def decrement_ttl(self) -> bool:
        """Forwarders call this per hop; returns False when TTL expires."""
        if self.ttl <= 1:
            self.ttl = 0
            return False
        self.ttl -= 1
        return True

    def __repr__(self) -> str:
        return f"IPv4(src={self.src}, dst={self.dst}, proto={self.proto}, ttl={self.ttl})"
