"""The simulated Internet beyond the home router's upstream port.

The paper's router uplinks to a real ISP; here a single
:class:`InternetCloud` node terminates every outbound connection.  It
answers TCP on the well-known service ports for any destination address,
runs an authoritative DNS zone of "web-hosted services" (facebook.com,
youtube.com, ...), and echoes ICMP — enough to exercise the DNS proxy's
permitted-sites enforcement and the measurement plane end to end.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

from ..net.addresses import IPv4Address, MACAddress
from ..net.dns_msg import (
    DNSMessage,
    DNSRecord,
    RCODE_NXDOMAIN,
    TYPE_A,
)
from ..net.ipv4 import PROTO_UDP
from ..net.packet import PacketError
from ..net.tcp import ACK, SYN
from ..net.udp import PORT_DNS, udp_datagram
from .host import Host, TCPConnection

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator

logger = logging.getLogger(__name__)

# Default "web-hosted services" zone for the home deployment's examples.
DEFAULT_ZONE: Dict[str, str] = {
    "facebook.com": "31.13.72.36",
    "www.facebook.com": "31.13.72.36",
    "youtube.com": "142.250.180.14",
    "www.youtube.com": "142.250.180.14",
    "bbc.co.uk": "151.101.0.81",
    "www.bbc.co.uk": "151.101.0.81",
    "mail.example.org": "93.184.216.40",
    "www.example.org": "93.184.216.34",
    "homework.example.net": "93.184.216.50",
    "updates.example.io": "93.184.216.60",
    "cdn.example.io": "93.184.216.61",
    "iot.example.io": "93.184.216.70",
}


class InternetCloud(Host):
    """A host that impersonates every upstream server.

    Accepts IP packets for *any* destination, serves a configurable byte
    payload on well-known TCP ports, and answers DNS from its zone.
    """

    def __init__(
        self,
        sim: "Simulator",
        ip: Union[str, IPv4Address] = "82.10.0.1",
        mac: Union[str, MACAddress] = "02:00:00:00:ff:01",
        zone: Optional[Dict[str, str]] = None,
        response_size: int = 8192,
    ):
        super().__init__(sim, "internet", mac, device_class="infrastructure")
        # Everything is "on-link" for the cloud by default; the router
        # narrows this to the upstream /30 with itself as gateway.
        self.configure_static(ip, netmask="0.0.0.0")
        self.zone: Dict[str, IPv4Address] = {
            name: IPv4Address(addr) for name, addr in (zone or DEFAULT_ZONE).items()
        }
        self.response_size = response_size
        self.connections_served = 0
        self.dns_queries_served = 0
        self.on_serve: Optional[Callable[[TCPConnection], None]] = None

    def add_site(self, name: str, addr: Union[str, IPv4Address]) -> None:
        self.zone[name.rstrip(".").lower()] = IPv4Address(addr)

    def lookup(self, name: str) -> Optional[IPv4Address]:
        return self.zone.get(name.rstrip(".").lower())

    def reverse_lookup(self, addr: Union[str, IPv4Address]) -> Optional[str]:
        addr = IPv4Address(addr)
        for name, ip in self.zone.items():
            if ip == addr:
                return name
        return None

    # -- Accept traffic for any address --------------------------------

    def _on_ip(
        self,
        src: int,
        dst: int,
        proto: int,
        transport: Optional[Tuple[int, ...]],
        payload: bytes,
    ) -> None:
        if proto == PROTO_UDP and transport is not None and transport[1] == PORT_DNS:
            self._serve_dns(src, dst, transport[0], payload)
            return
        # Answer as the address the packet was sent to: the normal stack
        # takes the packet, and sources every reply from that address,
        # as well as any ARP request a reply triggers.
        own_ip = self._ip
        self._ip = dst
        try:
            super()._on_ip(src, dst, proto, transport, payload)
        finally:
            self._ip = own_ip

    def _on_tcp(
        self,
        src: int,
        dst: int,
        sport: int,
        dport: int,
        seq: int,
        ack: int,
        flags: int,
        payload: bytes,
    ) -> None:
        conn = self._tcp_conns.get((dport, src, sport))
        if conn is None and flags & SYN and not flags & ACK:
            # Auto-listen: every port serves.
            child = TCPConnection(self, dport, src, sport)
            child.state = "LISTEN_CHILD"
            child.ack = seq + 1
            child.local_ip = dst
            self._tcp_conns[child.key] = child
            self.connections_served += 1
            child.on_data = lambda data, c=child: self._serve_request(c, data)
            if self.on_serve:
                self.on_serve(child)
            child._send_segment(SYN | ACK)
            child.seq += 1
            return
        if conn is not None:
            conn.handle(seq, flags, payload)

    def _serve_request(self, conn: TCPConnection, data: bytes) -> None:
        """Answer a request with a body.

        Requests of the form ``GET <n>`` receive exactly ``n`` bytes, so
        traffic generators control per-application response sizes; other
        request bytes get the default ``response_size``.
        """
        if conn.state != "ESTABLISHED":
            return
        size = self.response_size
        if data.startswith(b"GET "):
            digits = data[4:].split(b" ", 1)[0].split(b"\r", 1)[0]
            if digits.isdigit():
                size = min(int(digits), 50_000_000)
        conn.send(b"X" * size)

    # -- Authoritative DNS ----------------------------------------------

    def _serve_dns(self, src: int, dst: int, sport: int, payload: bytes) -> None:
        """Answer a DNS query sent from ``src``:``sport`` to ``dst``, from ``dst``."""
        try:
            query = DNSMessage.unpack(payload)
        except PacketError:
            return
        if query.is_response or not query.questions:
            return
        self.dns_queries_served += 1
        question = query.questions[0]
        address = self.zone.get(question.qname) if question.qtype == TYPE_A else None
        if address is not None:
            response = query.respond([DNSRecord.a(question.qname, address)])
        else:
            response = query.respond(rcode=RCODE_NXDOMAIN)
        reply = udp_datagram(dst, src, PORT_DNS, sport, response.pack())
        self.send_ip(src, PROTO_UDP, reply, dst)

    def __repr__(self) -> str:
        return f"InternetCloud(ip={self.ip}, sites={len(self.zone)})"
