"""Ethernet II framing.

The Homework router's bridge ``dp0`` switches Ethernet frames between the
wired and wireless segments and the upstream port; the OpenFlow datapath
matches on the fields defined here.
"""

from __future__ import annotations

import struct
from typing import Union

from .addresses import MACAddress
from .packet import Packet, PacketError, Payload

# EtherType registry (the subset the home router cares about).
ETH_TYPE_IPV4 = 0x0800
ETH_TYPE_ARP = 0x0806
ETH_TYPE_VLAN = 0x8100
ETH_TYPE_IPV6 = 0x86DD
ETH_TYPE_LLDP = 0x88CC

_HEADER_LEN = 14
MIN_FRAME_LEN = 60  # without FCS
MAX_FRAME_LEN = 1514

_HEADER = struct.Struct("!6s6sH")


def ethernet_frame(dst: bytes, src: bytes, ethertype: int, payload: bytes) -> bytes:
    """An Ethernet II frame: the 6-byte destination and source MACs, the
    ethertype, then ``payload``."""
    return _HEADER.pack(dst, src, ethertype) + payload


class Ethernet(Packet):
    """An Ethernet II frame: dst(6) src(6) ethertype(2) payload."""

    def __init__(
        self,
        dst: Union[str, MACAddress],
        src: Union[str, MACAddress],
        ethertype: int = ETH_TYPE_IPV4,
        payload: Payload = b"",
    ):
        self.dst = MACAddress(dst)
        self.src = MACAddress(src)
        self.ethertype = int(ethertype)
        self.payload = payload

    @property
    def is_broadcast(self) -> bool:
        return self.dst.is_broadcast

    @property
    def is_multicast(self) -> bool:
        return self.dst.is_multicast

    def pack(self) -> bytes:
        return ethernet_frame(
            self.dst.packed, self.src.packed, self.ethertype, self.pack_payload()
        )

    @classmethod
    def unpack(cls, data: bytes) -> "Ethernet":
        if len(data) < _HEADER_LEN:
            raise PacketError(f"Ethernet frame too short: {len(data)} bytes")
        dst = MACAddress(data[0:6])
        src = MACAddress(data[6:12])
        ethertype = int.from_bytes(data[12:14], "big")
        payload: Payload = data[_HEADER_LEN:]
        # Parse known upper layers eagerly so .find() works on received
        # frames; unknown ethertypes keep raw bytes.
        if ethertype == ETH_TYPE_IPV4 and payload:
            from .ipv4 import IPv4

            try:
                payload = IPv4.unpack(bytes(payload))
            except PacketError:
                pass
        elif ethertype == ETH_TYPE_ARP and payload:
            from .arp import ARP

            try:
                payload = ARP.unpack(bytes(payload))
            except PacketError:
                pass
        return cls(dst=dst, src=src, ethertype=ethertype, payload=payload)

    def __repr__(self) -> str:
        return (
            f"Ethernet(dst={self.dst}, src={self.src}, "
            f"ethertype=0x{self.ethertype:04x})"
        )
