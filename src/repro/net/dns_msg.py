"""DNS wire format (RFC 1035), as needed by the DNS proxy NOX module.

The proxy intercepts outgoing queries, records the name→address bindings
from responses, and answers blocked names itself with NXDOMAIN — so we
implement query/response messages with A, PTR and CNAME records, plus
name decompression on parse.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from .addresses import IPv4Address
from .packet import Packet, PacketError

# Record types.
TYPE_A = 1
TYPE_NS = 2
TYPE_CNAME = 5
TYPE_PTR = 12
TYPE_TXT = 16
TYPE_AAAA = 28

CLASS_IN = 1

# Response codes.
RCODE_NOERROR = 0
RCODE_FORMERR = 1
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3
RCODE_REFUSED = 5

_MAX_NAME_LEN = 255
_MAX_LABEL_LEN = 63


def encode_name(name: str) -> bytes:
    """Encode a dotted name into length-prefixed labels."""
    name = name.rstrip(".")
    if len(name) > _MAX_NAME_LEN:
        raise PacketError(f"DNS name too long: {name!r}")
    out = bytearray()
    if name:
        for label in name.split("."):
            raw = label.encode("ascii", "strict")
            if not raw or len(raw) > _MAX_LABEL_LEN:
                raise PacketError(f"bad DNS label in {name!r}")
            out.append(len(raw))
            out.extend(raw)
    out.append(0)
    return bytes(out)


def decode_name(data: bytes, offset: int) -> Tuple[str, int]:
    """Decode a (possibly compressed) name; returns (name, next offset)."""
    labels: List[str] = []
    jumped = False
    next_offset = offset
    seen = set()
    while True:
        if offset >= len(data):
            raise PacketError("truncated DNS name")
        length = data[offset]
        if length & 0xC0 == 0xC0:  # compression pointer
            if offset + 1 >= len(data):
                raise PacketError("truncated DNS compression pointer")
            pointer = ((length & 0x3F) << 8) | data[offset + 1]
            if pointer in seen:
                raise PacketError("DNS compression loop")
            seen.add(pointer)
            if not jumped:
                next_offset = offset + 2
                jumped = True
            offset = pointer
            continue
        if length > _MAX_LABEL_LEN:
            raise PacketError(f"bad DNS label length: {length}")
        offset += 1
        if length == 0:
            break
        if offset + length > len(data):
            raise PacketError("truncated DNS label")
        labels.append(data[offset : offset + length].decode("ascii", "replace"))
        offset += length
    if not jumped:
        next_offset = offset
    return ".".join(labels), next_offset


def reverse_pointer_name(addr: Union[str, IPv4Address]) -> str:
    """The in-addr.arpa name for a reverse (PTR) lookup of ``addr``."""
    octets = str(IPv4Address(addr)).split(".")
    return ".".join(reversed(octets)) + ".in-addr.arpa"


class DNSQuestion:
    """A single question: (qname, qtype, qclass)."""

    __slots__ = ("qname", "qtype", "qclass")

    def __init__(self, qname: str, qtype: int = TYPE_A, qclass: int = CLASS_IN):
        self.qname = qname.rstrip(".").lower()
        self.qtype = int(qtype)
        self.qclass = int(qclass)

    def pack(self) -> bytes:
        return (
            encode_name(self.qname)
            + self.qtype.to_bytes(2, "big")
            + self.qclass.to_bytes(2, "big")
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DNSQuestion):
            return NotImplemented
        return (self.qname, self.qtype, self.qclass) == (
            other.qname,
            other.qtype,
            other.qclass,
        )

    def __hash__(self) -> int:
        return hash((self.qname, self.qtype, self.qclass))

    def __repr__(self) -> str:
        return f"DNSQuestion({self.qname!r}, type={self.qtype})"


class DNSRecord:
    """A resource record. ``rdata`` semantics depend on ``rtype``."""

    __slots__ = ("name", "rtype", "rclass", "ttl", "rdata")

    def __init__(
        self,
        name: str,
        rtype: int,
        rdata: Union[str, bytes, IPv4Address],
        ttl: int = 300,
        rclass: int = CLASS_IN,
    ):
        self.name = name.rstrip(".").lower()
        self.rtype = int(rtype)
        self.rclass = int(rclass)
        self.ttl = int(ttl)
        self.rdata = rdata

    @classmethod
    def a(cls, name: str, addr: Union[str, IPv4Address], ttl: int = 300) -> "DNSRecord":
        return cls(name, TYPE_A, IPv4Address(addr), ttl)

    @classmethod
    def ptr(cls, addr: Union[str, IPv4Address], name: str, ttl: int = 300) -> "DNSRecord":
        return cls(reverse_pointer_name(addr), TYPE_PTR, name.rstrip(".").lower(), ttl)

    @classmethod
    def cname(cls, name: str, target: str, ttl: int = 300) -> "DNSRecord":
        return cls(name, TYPE_CNAME, target.rstrip(".").lower(), ttl)

    @property
    def address(self) -> Optional[IPv4Address]:
        """The IPv4 address for A records, else None."""
        if self.rtype == TYPE_A:
            return IPv4Address(self.rdata)
        return None

    def _pack_rdata(self) -> bytes:
        if self.rtype == TYPE_A:
            return IPv4Address(self.rdata).packed
        if self.rtype in (TYPE_PTR, TYPE_CNAME, TYPE_NS):
            return encode_name(str(self.rdata))
        if isinstance(self.rdata, bytes):
            return self.rdata
        return str(self.rdata).encode("utf-8")

    def pack(self) -> bytes:
        rdata = self._pack_rdata()
        return (
            encode_name(self.name)
            + self.rtype.to_bytes(2, "big")
            + self.rclass.to_bytes(2, "big")
            + self.ttl.to_bytes(4, "big")
            + len(rdata).to_bytes(2, "big")
            + rdata
        )

    def __repr__(self) -> str:
        return f"DNSRecord({self.name!r}, type={self.rtype}, rdata={self.rdata!r})"


class DNSMessage(Packet):
    """A DNS query or response message."""

    def __init__(
        self,
        ident: int = 0,
        is_response: bool = False,
        rcode: int = RCODE_NOERROR,
        recursion_desired: bool = True,
        recursion_available: bool = False,
        authoritative: bool = False,
        questions: Optional[List[DNSQuestion]] = None,
        answers: Optional[List[DNSRecord]] = None,
        authorities: Optional[List[DNSRecord]] = None,
        additionals: Optional[List[DNSRecord]] = None,
    ):
        self.ident = int(ident) & 0xFFFF
        self.is_response = bool(is_response)
        self.rcode = int(rcode)
        self.recursion_desired = bool(recursion_desired)
        self.recursion_available = bool(recursion_available)
        self.authoritative = bool(authoritative)
        self.questions = list(questions or [])
        self.answers = list(answers or [])
        self.authorities = list(authorities or [])
        self.additionals = list(additionals or [])

    @classmethod
    def query(cls, name: str, qtype: int = TYPE_A, ident: int = 0) -> "DNSMessage":
        """A standard recursive query for ``name``."""
        return cls(ident=ident, questions=[DNSQuestion(name, qtype)])

    def respond(
        self,
        answers: Optional[List[DNSRecord]] = None,
        rcode: int = RCODE_NOERROR,
    ) -> "DNSMessage":
        """Build the response message for this query."""
        return DNSMessage(
            ident=self.ident,
            is_response=True,
            rcode=rcode,
            recursion_desired=self.recursion_desired,
            recursion_available=True,
            questions=list(self.questions),
            answers=list(answers or []),
        )

    @property
    def qname(self) -> Optional[str]:
        """The first question's name, the common case for the proxy."""
        return self.questions[0].qname if self.questions else None

    def a_records(self) -> List[DNSRecord]:
        """All A records in the answer section."""
        return [r for r in self.answers if r.rtype == TYPE_A]

    def pack(self) -> bytes:
        flags = 0
        if self.is_response:
            flags |= 0x8000
        if self.authoritative:
            flags |= 0x0400
        if self.recursion_desired:
            flags |= 0x0100
        if self.recursion_available:
            flags |= 0x0080
        flags |= self.rcode & 0xF
        header = (
            self.ident.to_bytes(2, "big")
            + flags.to_bytes(2, "big")
            + len(self.questions).to_bytes(2, "big")
            + len(self.answers).to_bytes(2, "big")
            + len(self.authorities).to_bytes(2, "big")
            + len(self.additionals).to_bytes(2, "big")
        )
        body = b"".join(q.pack() for q in self.questions)
        for section in (self.answers, self.authorities, self.additionals):
            body += b"".join(r.pack() for r in section)
        return header + body

    @classmethod
    def unpack(cls, data: bytes) -> "DNSMessage":
        if len(data) < 12:
            raise PacketError(f"DNS message too short: {len(data)} bytes")
        ident = int.from_bytes(data[0:2], "big")
        flags = int.from_bytes(data[2:4], "big")
        counts = [int.from_bytes(data[i : i + 2], "big") for i in (4, 6, 8, 10)]
        msg = cls(
            ident=ident,
            is_response=bool(flags & 0x8000),
            rcode=flags & 0xF,
            recursion_desired=bool(flags & 0x0100),
            recursion_available=bool(flags & 0x0080),
            authoritative=bool(flags & 0x0400),
        )
        offset = 12
        for _ in range(counts[0]):
            qname, offset = decode_name(data, offset)
            if offset + 4 > len(data):
                raise PacketError("truncated DNS question")
            qtype = int.from_bytes(data[offset : offset + 2], "big")
            qclass = int.from_bytes(data[offset + 2 : offset + 4], "big")
            offset += 4
            msg.questions.append(DNSQuestion(qname, qtype, qclass))
        for count, section in zip(
            counts[1:], (msg.answers, msg.authorities, msg.additionals)
        ):
            for _ in range(count):
                record, offset = cls._unpack_record(data, offset)
                section.append(record)
        return msg

    @staticmethod
    def _unpack_record(data: bytes, offset: int) -> Tuple[DNSRecord, int]:
        name, offset = decode_name(data, offset)
        if offset + 10 > len(data):
            raise PacketError("truncated DNS record header")
        rtype = int.from_bytes(data[offset : offset + 2], "big")
        rclass = int.from_bytes(data[offset + 2 : offset + 4], "big")
        ttl = int.from_bytes(data[offset + 4 : offset + 8], "big")
        rdlen = int.from_bytes(data[offset + 8 : offset + 10], "big")
        offset += 10
        if offset + rdlen > len(data):
            raise PacketError("truncated DNS rdata")
        raw = data[offset : offset + rdlen]
        rdata: Union[str, bytes, IPv4Address]
        if rtype == TYPE_A and rdlen == 4:
            rdata = IPv4Address(raw)
        elif rtype in (TYPE_PTR, TYPE_CNAME, TYPE_NS):
            rdata, _ = decode_name(data, offset)
        else:
            rdata = bytes(raw)
        offset += rdlen
        return DNSRecord(name, rtype, rdata, ttl, rclass), offset

    def __repr__(self) -> str:
        kind = "response" if self.is_response else "query"
        return (
            f"DNSMessage({kind}, id={self.ident}, q={self.qname!r}, "
            f"answers={len(self.answers)}, rcode={self.rcode})"
        )
