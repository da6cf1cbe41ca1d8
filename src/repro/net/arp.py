"""ARP (RFC 826) for IPv4 over Ethernet.

The DHCP server's isolating allocation relies on the router answering ARP
for every address (proxy ARP), so devices never learn each other's real
MAC addresses and all traffic crosses the router.
"""

from __future__ import annotations

from typing import Union

from .addresses import IPv4Address, MACAddress
from .packet import Packet, PacketError

ARP_REQUEST = 1
ARP_REPLY = 2

_HW_ETHERNET = 1
_PROTO_IPV4 = 0x0800
_WIRE_LEN = 28


class ARP(Packet):
    """An Ethernet/IPv4 ARP packet."""

    def __init__(
        self,
        opcode: int,
        sender_mac: Union[str, MACAddress],
        sender_ip: Union[str, IPv4Address],
        target_mac: Union[str, MACAddress],
        target_ip: Union[str, IPv4Address],
    ):
        if opcode not in (ARP_REQUEST, ARP_REPLY):
            raise PacketError(f"unsupported ARP opcode: {opcode}")
        self.opcode = opcode
        self.sender_mac = MACAddress(sender_mac)
        self.sender_ip = IPv4Address(sender_ip)
        self.target_mac = MACAddress(target_mac)
        self.target_ip = IPv4Address(target_ip)

    @classmethod
    def request(
        cls,
        sender_mac: Union[str, MACAddress],
        sender_ip: Union[str, IPv4Address],
        target_ip: Union[str, IPv4Address],
    ) -> "ARP":
        """A who-has request for ``target_ip``."""
        return cls(ARP_REQUEST, sender_mac, sender_ip, MACAddress.zero(), target_ip)

    @classmethod
    def reply(
        cls,
        sender_mac: Union[str, MACAddress],
        sender_ip: Union[str, IPv4Address],
        target_mac: Union[str, MACAddress],
        target_ip: Union[str, IPv4Address],
    ) -> "ARP":
        """An is-at reply answering a request."""
        return cls(ARP_REPLY, sender_mac, sender_ip, target_mac, target_ip)

    def pack(self) -> bytes:
        return (
            _HW_ETHERNET.to_bytes(2, "big")
            + _PROTO_IPV4.to_bytes(2, "big")
            + bytes([6, 4])
            + self.opcode.to_bytes(2, "big")
            + self.sender_mac.packed
            + self.sender_ip.packed
            + self.target_mac.packed
            + self.target_ip.packed
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ARP":
        if len(data) < _WIRE_LEN:
            raise PacketError(f"ARP packet too short: {len(data)} bytes")
        hw = int.from_bytes(data[0:2], "big")
        proto = int.from_bytes(data[2:4], "big")
        if hw != _HW_ETHERNET or proto != _PROTO_IPV4:
            raise PacketError(f"unsupported ARP hw/proto: {hw}/{proto:#x}")
        if data[4] != 6 or data[5] != 4:
            raise PacketError("unexpected ARP address lengths")
        opcode = int.from_bytes(data[6:8], "big")
        return cls(
            opcode=opcode,
            sender_mac=MACAddress(data[8:14]),
            sender_ip=IPv4Address(data[14:18]),
            target_mac=MACAddress(data[18:24]),
            target_ip=IPv4Address(data[24:28]),
        )

    def __repr__(self) -> str:
        kind = "request" if self.opcode == ARP_REQUEST else "reply"
        return (
            f"ARP({kind}, sender={self.sender_mac}/{self.sender_ip}, "
            f"target={self.target_mac}/{self.target_ip})"
        )
