"""OpenFlow 1.0-style flow matching.

A :class:`FlowKey` is the exact header tuple the datapath extracts from a
packet (what Open vSwitch's kernel flow extractor produces); a
:class:`Match` is a possibly-wildcarded pattern over those fields (what
flow-mod rules carry).  The extraction itself reads the frame's bytes
(:func:`repro.net.rewrite.flow_key`); the datapath probes its cache and
table with that tuple and hands it to the controller with each
packet-in, and a :class:`FlowKey` is the same tuple with address
objects, for code that reads fields by name.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ..net.addresses import IPv4Address, MACAddress
from ..net.packet import PacketError
from ..net.rewrite import FlowKeyTuple, flow_key

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


class FlowKey:
    """The exact header tuple of one packet as seen at a datapath port."""

    __slots__ = MATCH_FIELDS

    def __init__(
        self,
        in_port: int,
        dl_src: MACAddress,
        dl_dst: MACAddress,
        dl_type: int,
        nw_src: Optional[IPv4Address] = None,
        nw_dst: Optional[IPv4Address] = None,
        nw_proto: Optional[int] = None,
        tp_src: Optional[int] = None,
        tp_dst: Optional[int] = None,
    ):
        self.in_port = in_port
        self.dl_src = dl_src
        self.dl_dst = dl_dst
        self.dl_type = dl_type
        self.nw_src = nw_src
        self.nw_dst = nw_dst
        self.nw_proto = nw_proto
        self.tp_src = tp_src
        self.tp_dst = tp_dst

    @classmethod
    def extract(cls, frame: bytes, in_port: int) -> "FlowKey":
        """Parse wire bytes into the canonical key (the "flow extract")."""
        key = flow_key(frame, in_port)
        if key is None:
            raise PacketError(f"Ethernet frame too short: {len(frame)} bytes")
        return cls.from_tuple(key)

    @classmethod
    def from_tuple(cls, key: Tuple) -> "FlowKey":
        """The key whose :meth:`as_tuple` is ``key``."""
        in_port, dl_src, dl_dst, dl_type, nw_src, nw_dst, nw_proto, tp_src, tp_dst = key
        return cls(
            in_port,
            MACAddress(dl_src),
            MACAddress(dl_dst),
            dl_type,
            None if nw_src is None else IPv4Address(nw_src),
            None if nw_dst is None else IPv4Address(nw_dst),
            nw_proto,
            tp_src,
            tp_dst,
        )

    def as_tuple(self) -> Tuple:
        """Hashable form used by the kernel-style exact-match cache."""
        return (
            self.in_port,
            int(self.dl_src),
            int(self.dl_dst),
            self.dl_type,
            int(self.nw_src) if self.nw_src is not None else None,
            int(self.nw_dst) if self.nw_dst is not None else None,
            self.nw_proto,
            self.tp_src,
            self.tp_dst,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        parts = [f"in_port={self.in_port}", f"dl_src={self.dl_src}", f"dl_dst={self.dl_dst}"]
        if self.nw_src is not None:
            parts.append(f"{self.nw_src}->{self.nw_dst} proto={self.nw_proto}")
        if self.tp_src is not None:
            parts.append(f"tp {self.tp_src}->{self.tp_dst}")
        return f"FlowKey({', '.join(parts)})"


class Match:
    """A wildcard-capable pattern over :data:`MATCH_FIELDS`.

    ``None`` fields are wildcarded.  ``nw_src``/``nw_dst`` accept an
    optional prefix length for CIDR matching, per OpenFlow 1.0.
    """

    __slots__ = MATCH_FIELDS + ("nw_src_prefix", "nw_dst_prefix")

    def __init__(
        self,
        in_port: Optional[int] = None,
        dl_src: Optional[Union[str, MACAddress]] = None,
        dl_dst: Optional[Union[str, MACAddress]] = None,
        dl_type: Optional[int] = None,
        nw_src: Optional[Union[str, IPv4Address]] = None,
        nw_dst: Optional[Union[str, IPv4Address]] = None,
        nw_proto: Optional[int] = None,
        tp_src: Optional[int] = None,
        tp_dst: Optional[int] = None,
        nw_src_prefix: int = 32,
        nw_dst_prefix: int = 32,
    ):
        self.in_port = in_port
        self.dl_src = MACAddress(dl_src) if dl_src is not None else None
        self.dl_dst = MACAddress(dl_dst) if dl_dst is not None else None
        self.dl_type = dl_type
        self.nw_src = IPv4Address(nw_src) if nw_src is not None else None
        self.nw_dst = IPv4Address(nw_dst) if nw_dst is not None else None
        self.nw_proto = nw_proto
        self.tp_src = tp_src
        self.tp_dst = tp_dst
        self.nw_src_prefix = nw_src_prefix
        self.nw_dst_prefix = nw_dst_prefix

    @classmethod
    def from_key(cls, key: FlowKeyTuple) -> "Match":
        """The fully-specified match for one flow key tuple, in
        :data:`MATCH_FIELDS` order (microflow rule)."""
        return cls(*key)

    @classmethod
    def any(cls) -> "Match":
        """Match everything (the table-miss pattern)."""
        return cls()

    @property
    def is_exact(self) -> bool:
        """True when no field is wildcarded (kernel-cacheable)."""
        return (
            self.in_port is not None
            and self.dl_src is not None
            and self.dl_dst is not None
            and self.dl_type is not None
            and self.nw_src is not None
            and self.nw_dst is not None
            and self.nw_proto is not None
            and self.tp_src is not None
            and self.tp_dst is not None
            and self.nw_src_prefix == 32
            and self.nw_dst_prefix == 32
        )

    def wildcard_count(self) -> int:
        """Number of wildcarded fields (0 for exact matches)."""
        count = 0
        for field in MATCH_FIELDS:
            if getattr(self, field) is None:
                count += 1
        return count

    @staticmethod
    def _prefix_match(pattern: IPv4Address, prefixlen: int, value: Optional[IPv4Address]) -> bool:
        if value is None:
            return False
        if prefixlen <= 0:
            return True
        mask = ((1 << prefixlen) - 1) << (32 - prefixlen)
        return (int(pattern) & mask) == (int(value) & mask)

    def matches(self, key: FlowKey) -> bool:
        """True when this pattern covers ``key``."""
        if self.in_port is not None and self.in_port != key.in_port:
            return False
        if self.dl_src is not None and self.dl_src != key.dl_src:
            return False
        if self.dl_dst is not None and self.dl_dst != key.dl_dst:
            return False
        if self.dl_type is not None and self.dl_type != key.dl_type:
            return False
        if self.nw_src is not None and not self._prefix_match(
            self.nw_src, self.nw_src_prefix, key.nw_src
        ):
            return False
        if self.nw_dst is not None and not self._prefix_match(
            self.nw_dst, self.nw_dst_prefix, key.nw_dst
        ):
            return False
        if self.nw_proto is not None and self.nw_proto != key.nw_proto:
            return False
        if self.tp_src is not None and self.tp_src != key.tp_src:
            return False
        if self.tp_dst is not None and self.tp_dst != key.tp_dst:
            return False
        return True

    def same_pattern(self, other: "Match") -> bool:
        """Field-for-field equality (strict flow-mod matching)."""
        for field in MATCH_FIELDS:
            if getattr(self, field) != getattr(other, field):
                return False
        return (
            self.nw_src_prefix == other.nw_src_prefix
            and self.nw_dst_prefix == other.nw_dst_prefix
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self.same_pattern(other)

    def __hash__(self) -> int:
        return hash(
            tuple(
                int(v) if isinstance(v, (MACAddress, IPv4Address)) else v
                for v in (getattr(self, f) for f in MATCH_FIELDS)
            )
            + (self.nw_src_prefix, self.nw_dst_prefix)
        )

    def __repr__(self) -> str:
        parts = []
        for field in MATCH_FIELDS:
            value = getattr(self, field)
            if value is not None:
                parts.append(f"{field}={value}")
        return f"Match({', '.join(parts) if parts else '*'})"
