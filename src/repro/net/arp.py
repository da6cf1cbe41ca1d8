"""ARP (RFC 826) for IPv4 over Ethernet: the opcodes and the packet builder.

The DHCP server's isolating allocation relies on the router answering ARP
for every address (proxy ARP), so devices never learn each other's real
MAC addresses and all traffic crosses the router.  :func:`arp_packet`
writes a packet; receivers read one at fixed offsets
(:func:`repro.net.rewrite.read_arp`).
"""

from __future__ import annotations

import struct

ARP_REQUEST = 1
ARP_REPLY = 2

#: Hardware type Ethernet, protocol type IPv4, address lengths 6 and 4,
#: then the opcode, the sender's MAC and address and the target's.
_PACKET = struct.Struct("!HHBBH6sI6sI")


def arp_packet(
    opcode: int, sender_mac: bytes, sender_ip: int, target_mac: bytes, target_ip: int
) -> bytes:
    """A 28-byte Ethernet/IPv4 ARP packet: MACs as 6 bytes, addresses as
    ints.  A request carries a zero target MAC."""
    return _PACKET.pack(1, 0x0800, 6, 4, opcode, sender_mac, sender_ip, target_mac, target_ip)
