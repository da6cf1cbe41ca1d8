"""The base of the message codecs.

DNS and DHCP messages are :class:`Packet` subclasses with symmetric
``pack()`` / ``unpack()`` methods producing real wire bytes.  The
Ethernet, ARP, IPv4, TCP, UDP and ICMP headers around them have no
objects: each is written by one builder beside its constants
(``ethernet_frame``, ``arp_packet``, ``ipv4_packet``, ``tcp_segment``,
``udp_datagram``, ``icmp_echo``) and read at fixed offsets
(:mod:`repro.net.rewrite`), the way Open vSwitch's flow extractor reads
a frame.
"""

from __future__ import annotations

from typing import Type, TypeVar

P = TypeVar("P", bound="Packet")


class PacketError(ValueError):
    """Raised when wire bytes cannot be parsed as the expected protocol."""


class Packet:
    """Abstract protocol message.

    Subclasses must implement :meth:`pack` and :meth:`unpack`.
    """

    def pack(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def unpack(cls: Type[P], data: bytes) -> P:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.pack())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return type(self) is type(other) and self.pack() == other.pack()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.pack()))
