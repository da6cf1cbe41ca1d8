"""Ethernet II framing.

The Homework router's bridge ``dp0`` switches Ethernet frames between the
wired and wireless segments and the upstream port.  The datapath and
every receiver read the header at fixed offsets (:mod:`repro.net.rewrite`);
:func:`ethernet_frame` writes it.
"""

from __future__ import annotations

import struct

# EtherType registry (the subset the home router cares about).
ETH_TYPE_IPV4 = 0x0800
ETH_TYPE_ARP = 0x0806
ETH_TYPE_VLAN = 0x8100
ETH_TYPE_IPV6 = 0x86DD
ETH_TYPE_LLDP = 0x88CC

_HEADER = struct.Struct("!6s6sH")


def ethernet_frame(dst: bytes, src: bytes, ethertype: int, payload: bytes) -> bytes:
    """An Ethernet II frame: the 6-byte destination and source MACs, the
    ethertype, then ``payload``."""
    return _HEADER.pack(dst, src, ethertype) + payload
