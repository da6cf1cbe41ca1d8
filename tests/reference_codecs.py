"""The Ethernet, ARP, IPv4, TCP, UDP and ICMP layer objects, as a test reference.

The router reads these headers at fixed offsets
(:func:`repro.net.rewrite.flow_key`, :func:`~repro.net.rewrite.read_frame`
and :func:`~repro.net.rewrite.read_arp`), edits them in place (the
``set_*`` rewrites beside them) and writes them with one builder per
header (``ethernet_frame``, ``arp_packet``, ``ipv4_packet``,
``tcp_segment``, ``udp_datagram``, ``icmp_echo``).  Nothing in ``src/``
builds or walks a layer object.  These classes are the object codecs the
router used before that: each layer parses its payload into the next one
on ``unpack``, and ``UDP.unpack`` decodes DNS and DHCP by port.  The
differential tests check the byte readers, builders and rewrites against
them, on every frame the strategies draw and on frames broken at every
field the readers test.

A layer nests through ``payload``, so a full frame is e.g.::

    Ethernet(src=..., dst=..., payload=IPv4(..., payload=UDP(..., payload=b"...")))
"""

from __future__ import annotations

from typing import Optional, Type, TypeVar, Union

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.arp import ARP_REPLY, ARP_REQUEST
from repro.net.dhcp_msg import DHCPMessage
from repro.net.dns_msg import DNSMessage
from repro.net.ethernet import ETH_TYPE_ARP, ETH_TYPE_IPV4, ethernet_frame
from repro.net.icmp import TYPE_ECHO_REPLY, TYPE_ECHO_REQUEST, icmp_message
from repro.net.ipv4 import DEFAULT_TTL, PROTO_ICMP, PROTO_TCP, PROTO_UDP, ipv4_packet
from repro.net.packet import Packet, PacketError
from repro.net.tcp import ACK, FIN, PSH, RST, SYN, URG, tcp_header, tcp_segment
from repro.net.udp import (
    PORT_DHCP_CLIENT,
    PORT_DHCP_SERVER,
    PORT_DNS,
    udp_datagram,
    udp_header,
)

__all__ = ["ARP", "Ethernet", "ICMP", "IPv4", "Layer", "TCP", "UDP"]

L = TypeVar("L", bound="Layer")

Payload = Union["Packet", bytes]

_ETH_HEADER_LEN = 14
_IP_MIN_HEADER_LEN = 20
_UDP_HEADER_LEN = 8
_TCP_MIN_HEADER_LEN = 20
_ICMP_HEADER_LEN = 8
_ARP_WIRE_LEN = 28
_ARP_HW_ETHERNET = 1
_ARP_PROTO_IPV4 = 0x0800


class Layer(Packet):
    """A header whose payload is the next layer or raw bytes."""

    payload: Payload

    def pack_payload(self) -> bytes:
        """Serialise ``self.payload`` whether it is a layer or raw bytes."""
        payload = getattr(self, "payload", b"")
        if isinstance(payload, Packet):
            return payload.pack()
        if payload is None:
            return b""
        return bytes(payload)

    def find(self, layer: Type[L]) -> Optional[L]:
        """Return the first nested layer of type ``layer``, if any.

        Walks the payload chain, so ``frame.find(UDP)`` works on a full
        Ethernet frame.
        """
        node: Payload = self
        while isinstance(node, Packet):
            if isinstance(node, layer):
                return node
            node = getattr(node, "payload", b"")
        return None


class Ethernet(Layer):
    """An Ethernet II frame: dst(6) src(6) ethertype(2) payload."""

    def __init__(
        self,
        dst: Union[str, MACAddress],
        src: Union[str, MACAddress],
        ethertype: int = ETH_TYPE_IPV4,
        payload: Payload = b"",
    ):
        self.dst = MACAddress(dst)
        self.src = MACAddress(src)
        self.ethertype = int(ethertype)
        self.payload = payload

    @property
    def is_broadcast(self) -> bool:
        return self.dst.is_broadcast

    @property
    def is_multicast(self) -> bool:
        return self.dst.is_multicast

    def pack(self) -> bytes:
        return ethernet_frame(
            self.dst.packed, self.src.packed, self.ethertype, self.pack_payload()
        )

    @classmethod
    def unpack(cls, data: bytes) -> "Ethernet":
        if len(data) < _ETH_HEADER_LEN:
            raise PacketError(f"Ethernet frame too short: {len(data)} bytes")
        dst = MACAddress(data[0:6])
        src = MACAddress(data[6:12])
        ethertype = int.from_bytes(data[12:14], "big")
        payload: Payload = data[_ETH_HEADER_LEN:]
        # Parse known upper layers eagerly so .find() works on received
        # frames; unknown ethertypes keep raw bytes.
        if ethertype == ETH_TYPE_IPV4 and payload:
            try:
                payload = IPv4.unpack(bytes(payload))
            except PacketError:
                pass
        elif ethertype == ETH_TYPE_ARP and payload:
            try:
                payload = ARP.unpack(bytes(payload))
            except PacketError:
                pass
        return cls(dst=dst, src=src, ethertype=ethertype, payload=payload)

    def __repr__(self) -> str:
        return (
            f"Ethernet(dst={self.dst}, src={self.src}, "
            f"ethertype=0x{self.ethertype:04x})"
        )


class ARP(Packet):
    """An Ethernet/IPv4 ARP packet."""

    def __init__(
        self,
        opcode: int,
        sender_mac: Union[str, MACAddress],
        sender_ip: Union[str, IPv4Address],
        target_mac: Union[str, MACAddress],
        target_ip: Union[str, IPv4Address],
    ):
        if opcode not in (ARP_REQUEST, ARP_REPLY):
            raise PacketError(f"unsupported ARP opcode: {opcode}")
        self.opcode = opcode
        self.sender_mac = MACAddress(sender_mac)
        self.sender_ip = IPv4Address(sender_ip)
        self.target_mac = MACAddress(target_mac)
        self.target_ip = IPv4Address(target_ip)

    @classmethod
    def request(
        cls,
        sender_mac: Union[str, MACAddress],
        sender_ip: Union[str, IPv4Address],
        target_ip: Union[str, IPv4Address],
    ) -> "ARP":
        """A who-has request for ``target_ip``."""
        return cls(ARP_REQUEST, sender_mac, sender_ip, MACAddress.zero(), target_ip)

    @classmethod
    def reply(
        cls,
        sender_mac: Union[str, MACAddress],
        sender_ip: Union[str, IPv4Address],
        target_mac: Union[str, MACAddress],
        target_ip: Union[str, IPv4Address],
    ) -> "ARP":
        """An is-at reply answering a request."""
        return cls(ARP_REPLY, sender_mac, sender_ip, target_mac, target_ip)

    def pack(self) -> bytes:
        return (
            _ARP_HW_ETHERNET.to_bytes(2, "big")
            + _ARP_PROTO_IPV4.to_bytes(2, "big")
            + bytes([6, 4])
            + self.opcode.to_bytes(2, "big")
            + self.sender_mac.packed
            + self.sender_ip.packed
            + self.target_mac.packed
            + self.target_ip.packed
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ARP":
        if len(data) < _ARP_WIRE_LEN:
            raise PacketError(f"ARP packet too short: {len(data)} bytes")
        hw = int.from_bytes(data[0:2], "big")
        proto = int.from_bytes(data[2:4], "big")
        if hw != _ARP_HW_ETHERNET or proto != _ARP_PROTO_IPV4:
            raise PacketError(f"unsupported ARP hw/proto: {hw}/{proto:#x}")
        if data[4] != 6 or data[5] != 4:
            raise PacketError("unexpected ARP address lengths")
        opcode = int.from_bytes(data[6:8], "big")
        return cls(
            opcode=opcode,
            sender_mac=MACAddress(data[8:14]),
            sender_ip=IPv4Address(data[14:18]),
            target_mac=MACAddress(data[18:24]),
            target_ip=IPv4Address(data[24:28]),
        )

    def __repr__(self) -> str:
        kind = "request" if self.opcode == ARP_REQUEST else "reply"
        return (
            f"ARP({kind}, sender={self.sender_mac}/{self.sender_ip}, "
            f"target={self.target_mac}/{self.target_ip})"
        )


class IPv4(Layer):
    """An IPv4 datagram (no options support — the home stack never sets any)."""

    def __init__(
        self,
        src: Union[str, IPv4Address],
        dst: Union[str, IPv4Address],
        proto: int = PROTO_UDP,
        ttl: int = DEFAULT_TTL,
        tos: int = 0,
        ident: int = 0,
        flags: int = 0,
        frag_offset: int = 0,
        payload: Payload = b"",
    ):
        self.src = IPv4Address(src)
        self.dst = IPv4Address(dst)
        self.proto = int(proto)
        self.ttl = int(ttl)
        self.tos = int(tos)
        self.ident = int(ident)
        self.flags = int(flags)
        self.frag_offset = int(frag_offset)
        self.payload = payload

    def pack(self) -> bytes:
        # UDP/TCP checksums need the pseudo header, so compute them here
        # where src/dst are known, if the payload layer requests it.
        if isinstance(self.payload, Packet) and hasattr(self.payload, "pack_with_pseudo"):
            body = self.payload.pack_with_pseudo(self.src, self.dst)
        else:
            body = self.pack_payload()
        return ipv4_packet(
            int(self.src),
            int(self.dst),
            self.proto,
            body,
            self.ttl,
            self.tos,
            self.ident,
            self.flags,
            self.frag_offset,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4":
        if len(data) < _IP_MIN_HEADER_LEN:
            raise PacketError(f"IPv4 header too short: {len(data)} bytes")
        version = data[0] >> 4
        ihl = (data[0] & 0x0F) * 4
        if version != 4:
            raise PacketError(f"not IPv4: version={version}")
        if ihl < _IP_MIN_HEADER_LEN or len(data) < ihl:
            raise PacketError(f"bad IHL: {ihl}")
        total_len = int.from_bytes(data[2:4], "big")
        if total_len < ihl:
            raise PacketError(f"bad total length: {total_len}")
        flags_frag = int.from_bytes(data[6:8], "big")
        pkt = cls(
            src=IPv4Address(data[12:16]),
            dst=IPv4Address(data[16:20]),
            proto=data[9],
            ttl=data[8],
            tos=data[1],
            ident=int.from_bytes(data[4:6], "big"),
            flags=flags_frag >> 13,
            frag_offset=flags_frag & 0x1FFF,
        )
        body = data[ihl : max(ihl, min(total_len, len(data)))]
        payload: Payload = body
        if pkt.proto == PROTO_UDP and body:
            try:
                payload = UDP.unpack(bytes(body))
            except PacketError:
                pass
        elif pkt.proto == PROTO_TCP and body:
            try:
                payload = TCP.unpack(bytes(body))
            except PacketError:
                pass
        elif pkt.proto == PROTO_ICMP and body:
            try:
                payload = ICMP.unpack(bytes(body))
            except PacketError:
                pass
        pkt.payload = payload
        return pkt

    def __repr__(self) -> str:
        return f"IPv4(src={self.src}, dst={self.dst}, proto={self.proto}, ttl={self.ttl})"


class UDP(Layer):
    """A UDP datagram."""

    def __init__(self, sport: int, dport: int, payload: Payload = b""):
        for name, port in (("sport", sport), ("dport", dport)):
            if not 0 <= int(port) <= 0xFFFF:
                raise PacketError(f"UDP {name} out of range: {port}")
        self.sport = int(sport)
        self.dport = int(dport)
        self.payload = payload

    def pack(self) -> bytes:
        """Pack without a checksum (legal for UDP over IPv4)."""
        body = self.pack_payload()
        return udp_header(self.sport, self.dport, len(body)) + body

    def pack_with_pseudo(
        self, src: Union[str, IPv4Address], dst: Union[str, IPv4Address]
    ) -> bytes:
        """Pack with the checksum over the IPv4 pseudo header."""
        return udp_datagram(
            int(IPv4Address(src)), int(IPv4Address(dst)), self.sport, self.dport,
            self.pack_payload(),
        )

    @classmethod
    def unpack(cls, data: bytes) -> "UDP":
        if len(data) < _UDP_HEADER_LEN:
            raise PacketError(f"UDP datagram too short: {len(data)} bytes")
        sport = int.from_bytes(data[0:2], "big")
        dport = int.from_bytes(data[2:4], "big")
        length = int.from_bytes(data[4:6], "big")
        if length < _UDP_HEADER_LEN:
            raise PacketError(f"bad UDP length: {length}")
        body = data[_UDP_HEADER_LEN : max(_UDP_HEADER_LEN, min(length, len(data)))]
        payload: Payload = body
        if body and (dport == PORT_DNS or sport == PORT_DNS):
            try:
                payload = DNSMessage.unpack(bytes(body))
            except PacketError:
                pass
        elif body and {sport, dport} & {PORT_DHCP_SERVER, PORT_DHCP_CLIENT}:
            try:
                payload = DHCPMessage.unpack(bytes(body))
            except PacketError:
                pass
        return cls(sport=sport, dport=dport, payload=payload)

    def __repr__(self) -> str:
        return f"UDP(sport={self.sport}, dport={self.dport})"


class TCP(Layer):
    """A TCP segment (no options — the simulator does not need them)."""

    def __init__(
        self,
        sport: int,
        dport: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = ACK,
        window: int = 65535,
        urgent: int = 0,
        payload: Payload = b"",
    ):
        for name, port in (("sport", sport), ("dport", dport)):
            if not 0 <= int(port) <= 0xFFFF:
                raise PacketError(f"TCP {name} out of range: {port}")
        self.sport = int(sport)
        self.dport = int(dport)
        self.seq = int(seq) & 0xFFFFFFFF
        self.ack = int(ack) & 0xFFFFFFFF
        self.flags = int(flags)
        self.window = int(window)
        self.urgent = int(urgent)
        self.payload = payload

    def flag_names(self) -> str:
        """Human-readable flag string, e.g. ``"SYN|ACK"``."""
        names = []
        for bit, name in (
            (SYN, "SYN"),
            (ACK, "ACK"),
            (FIN, "FIN"),
            (RST, "RST"),
            (PSH, "PSH"),
            (URG, "URG"),
        ):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) if names else "none"

    def pack(self) -> bytes:
        """Pack with a zero checksum (it needs the IPv4 addresses)."""
        header = tcp_header(
            self.sport, self.dport, self.seq, self.ack, self.flags, self.window, self.urgent
        )
        return header + self.pack_payload()

    def pack_with_pseudo(
        self, src: Union[str, IPv4Address], dst: Union[str, IPv4Address]
    ) -> bytes:
        return tcp_segment(
            int(IPv4Address(src)),
            int(IPv4Address(dst)),
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            self.flags,
            self.pack_payload(),
            self.window,
            self.urgent,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "TCP":
        if len(data) < _TCP_MIN_HEADER_LEN:
            raise PacketError(f"TCP segment too short: {len(data)} bytes")
        offset = (data[12] >> 4) * 4
        if offset < _TCP_MIN_HEADER_LEN or len(data) < offset:
            raise PacketError(f"bad TCP data offset: {offset}")
        return cls(
            sport=int.from_bytes(data[0:2], "big"),
            dport=int.from_bytes(data[2:4], "big"),
            seq=int.from_bytes(data[4:8], "big"),
            ack=int.from_bytes(data[8:12], "big"),
            flags=data[13] & 0x3F,
            window=int.from_bytes(data[14:16], "big"),
            urgent=int.from_bytes(data[18:20], "big"),
            payload=data[offset:],
        )

    def __repr__(self) -> str:
        return (
            f"TCP(sport={self.sport}, dport={self.dport}, "
            f"flags={self.flag_names()}, len={len(self.pack_payload())})"
        )


class ICMP(Layer):
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

    @property
    def ident(self) -> int:
        return (self.rest >> 16) & 0xFFFF

    @property
    def seq(self) -> int:
        return self.rest & 0xFFFF

    @property
    def is_echo_request(self) -> bool:
        return self.icmp_type == TYPE_ECHO_REQUEST

    def pack(self) -> bytes:
        return icmp_message(self.icmp_type, self.code, self.rest, self.pack_payload())

    @classmethod
    def unpack(cls, data: bytes) -> "ICMP":
        if len(data) < _ICMP_HEADER_LEN:
            raise PacketError(f"ICMP message too short: {len(data)} bytes")
        return cls(
            icmp_type=data[0],
            code=data[1],
            rest=int.from_bytes(data[4:8], "big"),
            payload=data[_ICMP_HEADER_LEN:],
        )

    def __repr__(self) -> str:
        return f"ICMP(type={self.icmp_type}, code={self.code})"
