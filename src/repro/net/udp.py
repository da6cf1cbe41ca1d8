"""UDP (RFC 768). Carries DNS, DHCP and the hwdb RPC protocol."""

from __future__ import annotations

import struct
from typing import Union

from .addresses import IPv4Address
from .checksum import internet_checksum, pseudo_header
from .ipv4 import PROTO_UDP
from .packet import Packet, PacketError, Payload

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


class UDP(Packet):
    """A UDP datagram."""

    def __init__(self, sport: int, dport: int, payload: Payload = b""):
        for name, port in (("sport", sport), ("dport", dport)):
            if not 0 <= int(port) <= 0xFFFF:
                raise PacketError(f"UDP {name} out of range: {port}")
        self.sport = int(sport)
        self.dport = int(dport)
        self.payload = payload

    def pack(self) -> bytes:
        """Pack without a checksum (legal for UDP over IPv4)."""
        body = self.pack_payload()
        return udp_header(self.sport, self.dport, len(body)) + body

    def pack_with_pseudo(
        self, src: Union[str, IPv4Address], dst: Union[str, IPv4Address]
    ) -> bytes:
        """Pack with the checksum over the IPv4 pseudo header."""
        return udp_datagram(
            int(IPv4Address(src)), int(IPv4Address(dst)), self.sport, self.dport,
            self.pack_payload(),
        )

    @classmethod
    def unpack(cls, data: bytes) -> "UDP":
        if len(data) < _HEADER_LEN:
            raise PacketError(f"UDP datagram too short: {len(data)} bytes")
        sport = int.from_bytes(data[0:2], "big")
        dport = int.from_bytes(data[2:4], "big")
        length = int.from_bytes(data[4:6], "big")
        if length < _HEADER_LEN:
            raise PacketError(f"bad UDP length: {length}")
        body = data[_HEADER_LEN : max(_HEADER_LEN, min(length, len(data)))]
        payload: Payload = body
        if body and (dport == PORT_DNS or sport == PORT_DNS):
            from .dns_msg import DNSMessage

            try:
                payload = DNSMessage.unpack(bytes(body))
            except PacketError:
                pass
        elif body and {sport, dport} & {PORT_DHCP_SERVER, PORT_DHCP_CLIENT}:
            from .dhcp_msg import DHCPMessage

            try:
                payload = DHCPMessage.unpack(bytes(body))
            except PacketError:
                pass
        return cls(sport=sport, dport=dport, payload=payload)

    def __repr__(self) -> str:
        return f"UDP(sport={self.sport}, dport={self.dport})"
