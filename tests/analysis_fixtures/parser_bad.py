"""Fixture: unguarded reads from a wire buffer."""

import struct


def parse(data: bytes):
    version = data[0]
    sport = int.from_bytes(data[0:2], "big")
    fields = struct.unpack("!HH", data)
    return version, sport, fields


def patch(buf: bytearray):
    buf[12] = 0x08
