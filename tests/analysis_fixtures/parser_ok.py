"""Fixture: guarded reads and intrinsically safe slices."""

import struct


def parse(data: bytes):
    if len(data) < 8:
        raise ValueError("short packet")
    version = data[0]
    sport = int.from_bytes(data[0:2], "big")
    fields = struct.unpack("!HHHH", data)
    return version, sport, fields


def truncate(data: bytes) -> bytes:
    # A standalone slice never raises; no guard required.
    return data[:28]


def patch(buf: bytearray) -> None:
    if len(buf) >= 14:
        buf[12] = 0x08
