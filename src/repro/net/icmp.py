"""ICMP (RFC 792) echo: the reachability probe hosts send and the router
answers for its gateway addresses."""

from __future__ import annotations

import struct

from .checksum import internet_checksum

TYPE_ECHO_REPLY = 0
TYPE_ECHO_REQUEST = 8

#: Type, code, checksum and the 4-byte "rest of header".
_HEADER = struct.Struct("!BBHI")


def icmp_message(icmp_type: int, code: int, rest: int, payload: bytes = b"") -> bytes:
    """An ICMP message carrying ``payload``, checksummed over the whole
    message; ``rest`` is taken modulo 2**32."""
    header = _HEADER.pack(icmp_type, code, 0, rest & 0xFFFFFFFF)
    csum = internet_checksum(header + payload)
    return header[:2] + csum.to_bytes(2, "big") + header[4:] + payload


def icmp_echo(icmp_type: int, ident: int, seq: int, data: bytes = b"") -> bytes:
    """An echo request or reply (by ``icmp_type``): ``ident`` and ``seq``
    are taken modulo 2**16 into the rest of the header."""
    return icmp_message(icmp_type, 0, ((ident & 0xFFFF) << 16) | (seq & 0xFFFF), data)
