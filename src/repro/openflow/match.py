"""OpenFlow 1.0-style flow matching.

The datapath reads a packet's flow key off the frame's bytes
(:func:`repro.net.rewrite.flow_key`): the nine :data:`MATCH_FIELDS` as
a tuple, addresses as ints.  A :class:`Match` is a possibly-wildcarded
pattern over the same fields (what flow-mod rules carry), held in the
same layout: its :attr:`Match.key` is that tuple with None for each
wildcarded field, so the flow table indexes it as it stands.
"""

from __future__ import annotations

from typing import Optional, Union

from ..net.addresses import IPv4Address, MACAddress
from ..net.rewrite import FlowKeyTuple

MATCH_FIELDS = (
    "in_port",
    "dl_src",
    "dl_dst",
    "dl_type",
    "nw_src",
    "nw_dst",
    "nw_proto",
    "tp_src",
    "tp_dst",
)

#: Key positions of the address fields; the two ``nw`` fields take CIDR
#: prefixes.
DL_SRC_INDEX = MATCH_FIELDS.index("dl_src")
DL_DST_INDEX = MATCH_FIELDS.index("dl_dst")
NW_SRC_INDEX = MATCH_FIELDS.index("nw_src")
NW_DST_INDEX = MATCH_FIELDS.index("nw_dst")

MACValue = Optional[Union[str, int, MACAddress]]
IPv4Value = Optional[Union[str, int, IPv4Address]]


class Match:
    """A wildcard-capable pattern over :data:`MATCH_FIELDS`.

    ``None`` fields are wildcarded.  ``nw_src``/``nw_dst`` accept an
    optional prefix length for CIDR matching, per OpenFlow 1.0.
    Addresses may be given as strings, address objects or ints; the
    match keeps them as ints in :attr:`key`.
    """

    __slots__ = ("key", "nw_src_prefix", "nw_dst_prefix")

    def __init__(
        self,
        in_port: Optional[int] = None,
        dl_src: MACValue = None,
        dl_dst: MACValue = None,
        dl_type: Optional[int] = None,
        nw_src: IPv4Value = None,
        nw_dst: IPv4Value = None,
        nw_proto: Optional[int] = None,
        tp_src: Optional[int] = None,
        tp_dst: Optional[int] = None,
        nw_src_prefix: int = 32,
        nw_dst_prefix: int = 32,
    ):
        self.key: tuple = (
            in_port,
            None if dl_src is None else int(MACAddress(dl_src)),
            None if dl_dst is None else int(MACAddress(dl_dst)),
            dl_type,
            None if nw_src is None else int(IPv4Address(nw_src)),
            None if nw_dst is None else int(IPv4Address(nw_dst)),
            nw_proto,
            tp_src,
            tp_dst,
        )
        self.nw_src_prefix = nw_src_prefix
        self.nw_dst_prefix = nw_dst_prefix

    @classmethod
    def from_key(cls, key: FlowKeyTuple) -> "Match":
        """The fully-specified match for one flow key tuple, in
        :data:`MATCH_FIELDS` order (microflow rule); the tuple is kept
        as it is."""
        match = cls.__new__(cls)
        match.key = key
        match.nw_src_prefix = 32
        match.nw_dst_prefix = 32
        return match

    @property
    def is_exact(self) -> bool:
        """True when no field is wildcarded (kernel-cacheable)."""
        return (
            None not in self.key
            and self.nw_src_prefix == 32
            and self.nw_dst_prefix == 32
        )

    @staticmethod
    def _prefix_match(pattern: int, prefixlen: int, value: Optional[int]) -> bool:
        if value is None:
            return False
        if prefixlen <= 0:
            return True
        shift = 32 - prefixlen
        return pattern >> shift == value >> shift

    def matches(self, key: FlowKeyTuple) -> bool:
        """True when this pattern covers the packet key tuple ``key``.

        A literal walk over the fields, kept apart from the flow table's
        masked compare so the two can check each other.
        """
        in_port, dl_src, dl_dst, dl_type, nw_src, nw_dst, nw_proto, tp_src, tp_dst = self.key
        if in_port is not None and in_port != key[0]:
            return False
        if dl_src is not None and dl_src != key[1]:
            return False
        if dl_dst is not None and dl_dst != key[2]:
            return False
        if dl_type is not None and dl_type != key[3]:
            return False
        if nw_src is not None and not self._prefix_match(nw_src, self.nw_src_prefix, key[4]):
            return False
        if nw_dst is not None and not self._prefix_match(nw_dst, self.nw_dst_prefix, key[5]):
            return False
        if nw_proto is not None and nw_proto != key[6]:
            return False
        if tp_src is not None and tp_src != key[7]:
            return False
        if tp_dst is not None and tp_dst != key[8]:
            return False
        return True

    def same_pattern(self, other: "Match") -> bool:
        """Field-for-field equality, prefix lengths included."""
        return (
            self.key == other.key
            and self.nw_src_prefix == other.nw_src_prefix
            and self.nw_dst_prefix == other.nw_dst_prefix
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self.same_pattern(other)

    def __hash__(self) -> int:
        return hash(self.key + (self.nw_src_prefix, self.nw_dst_prefix))

    def __repr__(self) -> str:
        parts = []
        for index, value in enumerate(self.key):
            if value is None:
                continue
            if index == DL_SRC_INDEX or index == DL_DST_INDEX:
                value = MACAddress(value)
            elif index == NW_SRC_INDEX or index == NW_DST_INDEX:
                value = IPv4Address(value)
            parts.append(f"{MATCH_FIELDS[index]}={value}")
        return f"Match({', '.join(parts) if parts else '*'})"
