"""Internet checksum (RFC 1071) used by IPv4, ICMP, UDP and TCP."""

from __future__ import annotations

import struct

_PSEUDO = struct.Struct("!IIHH")


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement checksum of ``data``.

    Odd-length input is padded with a zero byte, per RFC 1071.  Since
    2**16 ≡ 1 (mod 0xFFFF), the one's-complement sum of the 16-bit
    words is the whole buffer read as one big-endian integer, modulo
    0xFFFF — except that a nonzero sum divisible by 0xFFFF folds to
    0xFFFF (checksum 0) while all-zero input sums to 0 (checksum
    0xFFFF).
    """
    pad = 8 if len(data) % 2 else 0
    value = int.from_bytes(data, "big") << pad
    if not value:
        return 0xFFFF
    # ~fold(sum) & 0xFFFF == 0xFFFF - (sum mod 0xFFFF), and 0 when the
    # sum is a multiple of 0xFFFF.
    return -value % 0xFFFF


def checksum_update(checksum: int, old: bytes, new: bytes) -> int:
    """Patch ``checksum`` for a covered field changing ``old`` -> ``new``.

    RFC 1624 eqn 3, ``HC' = ~(~HC + ~m + m')``, summed over the field's
    16-bit words.  On a checksum :func:`internet_checksum` computed over
    nonzero data, the result equals a full recomputation bit for bit.
    """
    if len(old) != len(new) or len(old) % 2:
        raise ValueError(f"field must be whole 16-bit words: {len(old)}/{len(new)} bytes")
    total = ~checksum & 0xFFFF
    for i in range(0, len(old), 2):
        total += (~int.from_bytes(old[i : i + 2], "big") & 0xFFFF) + int.from_bytes(
            new[i : i + 2], "big"
        )
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def pseudo_header(src: int, dst: int, proto: int, length: int) -> bytes:
    """The IPv4 pseudo header prepended for UDP/TCP checksums: the
    addresses, a zero byte, the protocol and the segment length."""
    return _PSEUDO.pack(src, dst, proto, length)


def verify_checksum(data: bytes) -> bool:
    """True when ``data`` (checksum field included) sums to zero."""
    return internet_checksum(data) == 0
