"""ICMP (RFC 792): echo for reachability probes, unreachable for policy denials.

When the policy engine denies a device's traffic it can answer with an
ICMP administratively-prohibited message rather than silently dropping,
which makes the control UI's feedback immediate.
"""

from __future__ import annotations

import struct

from .checksum import internet_checksum
from .packet import Packet, PacketError, Payload

TYPE_ECHO_REPLY = 0
TYPE_DEST_UNREACHABLE = 3
TYPE_ECHO_REQUEST = 8
TYPE_TIME_EXCEEDED = 11

CODE_NET_UNREACHABLE = 0
CODE_HOST_UNREACHABLE = 1
CODE_ADMIN_PROHIBITED = 13

_HEADER_LEN = 8
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


class ICMP(Packet):
    """An ICMP message with the 4-byte "rest of header" field."""

    def __init__(self, icmp_type: int, code: int = 0, rest: int = 0, payload: Payload = b""):
        self.icmp_type = int(icmp_type)
        self.code = int(code)
        self.rest = int(rest) & 0xFFFFFFFF
        self.payload = payload

    @classmethod
    def echo_request(cls, ident: int, seq: int, data: bytes = b"") -> "ICMP":
        return cls(TYPE_ECHO_REQUEST, 0, ((ident & 0xFFFF) << 16) | (seq & 0xFFFF), data)

    @classmethod
    def echo_reply(cls, ident: int, seq: int, data: bytes = b"") -> "ICMP":
        return cls(TYPE_ECHO_REPLY, 0, ((ident & 0xFFFF) << 16) | (seq & 0xFFFF), data)

    @classmethod
    def admin_prohibited(cls, original: bytes) -> "ICMP":
        """Destination-unreachable/communication-administratively-prohibited,
        quoting the first 28 bytes of the offending datagram per RFC 792."""
        return cls(TYPE_DEST_UNREACHABLE, CODE_ADMIN_PROHIBITED, 0, original[:28])

    @property
    def ident(self) -> int:
        return (self.rest >> 16) & 0xFFFF

    @property
    def seq(self) -> int:
        return self.rest & 0xFFFF

    @property
    def is_echo_request(self) -> bool:
        return self.icmp_type == TYPE_ECHO_REQUEST

    @property
    def is_echo_reply(self) -> bool:
        return self.icmp_type == TYPE_ECHO_REPLY

    def pack(self) -> bytes:
        return icmp_message(self.icmp_type, self.code, self.rest, self.pack_payload())

    @classmethod
    def unpack(cls, data: bytes) -> "ICMP":
        if len(data) < _HEADER_LEN:
            raise PacketError(f"ICMP message too short: {len(data)} bytes")
        return cls(
            icmp_type=data[0],
            code=data[1],
            rest=int.from_bytes(data[4:8], "big"),
            payload=data[_HEADER_LEN:],
        )

    def __repr__(self) -> str:
        return f"ICMP(type={self.icmp_type}, code={self.code})"
