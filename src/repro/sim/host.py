"""Simulated end hosts (the household's devices).

Each :class:`Host` runs a small but real network stack: a DHCP client
state machine, ARP resolution, UDP sockets, a simplified-but-stateful TCP,
a DNS stub resolver and ICMP echo.  Frames are genuine wire bytes, so the
router's OpenFlow datapath classifies them exactly as it would on the
paper's testbed.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from ..net.addresses import IPv4Address, IPv4Network, MACAddress
from ..net.arp import ARP_REPLY, ARP_REQUEST, arp_packet
from ..net.dhcp_msg import (
    DHCPACK,
    DHCPMessage,
    DHCPNAK,
    DHCPOFFER,
    OPT_DNS_SERVER,
    OPT_LEASE_TIME,
    OPT_ROUTER,
    OPT_SUBNET_MASK,
)
from ..net.dns_msg import DNSMessage, RCODE_NOERROR, TYPE_A
from ..net.ethernet import ETH_TYPE_ARP, ETH_TYPE_IPV4, ethernet_frame
from ..net.icmp import TYPE_ECHO_REPLY, TYPE_ECHO_REQUEST, icmp_echo
from ..net.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, ipv4_packet
from ..net.packet import PacketError
from ..net.rewrite import read_arp, read_frame
from ..net.tcp import ACK, FIN, RST, SYN, tcp_segment
from ..net.trace import trace_of, with_trace
from ..net.udp import PORT_DHCP_CLIENT, PORT_DHCP_SERVER, PORT_DNS, udp_datagram
from .link import Port

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator

logger = logging.getLogger(__name__)

UdpHandler = Callable[[bytes, IPv4Address, int], None]
DnsCallback = Callable[[Optional[IPv4Address], int], None]
PingCallback = Callable[[bool, float], None]

_BROADCAST_IP = 0xFFFFFFFF
_BROADCAST_MAC = b"\xff" * 6
_ZERO_MAC = bytes(6)
#: The /24 a DHCP ACK without a subnet-mask option leaves a host on.
_DEFAULT_NETMASK = 0xFFFFFF00

# DHCP client states.
DHCP_INIT = "INIT"
DHCP_SELECTING = "SELECTING"
DHCP_REQUESTING = "REQUESTING"
DHCP_BOUND = "BOUND"
DHCP_RENEWING = "RENEWING"


def _address(value: Optional[int]) -> Optional[IPv4Address]:
    return None if value is None else IPv4Address(value)


class TCPConnection:
    """One endpoint of a simplified TCP connection.

    Models the handshake, in-order data transfer and FIN teardown —
    enough to produce realistic five-tuple flows with correct byte
    counts for the measurement plane, without retransmission logic
    (the simulated links deliver in order; wireless loss is absorbed
    by link-level retries).
    """

    def __init__(
        self,
        host: "Host",
        local_port: int,
        remote_ip: int,
        remote_port: int,
    ):
        self.host = host
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.local_ip: Optional[int] = None  # cloud hosts answer per-IP
        self.state = "CLOSED"
        self.seq = host.sim.random.randrange(1 << 31)
        self.ack = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_connect: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[], None]] = None

    @property
    def key(self) -> Tuple[int, int, int]:
        """The host's demux key: local port, remote address, remote port."""
        return (self.local_port, self.remote_ip, self.remote_port)

    def connect(self) -> None:
        self.state = "SYN_SENT"
        self._send_segment(SYN)
        self.seq += 1

    def send(self, data: bytes, mss: int = 1400) -> None:
        """Send application data, segmented at ``mss`` bytes."""
        if self.state != "ESTABLISHED":
            raise ConnectionError(f"TCP connection not established: {self.state}")
        for start in range(0, len(data), mss):
            chunk = data[start : start + mss]
            self._send_segment(ACK, chunk)
            self.seq += len(chunk)
            self.bytes_sent += len(chunk)

    def close(self) -> None:
        if self.state in ("ESTABLISHED", "SYN_RECEIVED"):
            self._send_segment(FIN | ACK)
            self.seq += 1
            self.state = "FIN_WAIT"

    def _send_segment(self, flags: int, data: bytes = b"") -> None:
        host = self.host
        src = host._source(self.local_ip)
        dst = self.remote_ip
        segment = tcp_segment(
            src, dst, self.local_port, self.remote_port, self.seq, self.ack, flags, data
        )
        host.send_ip(dst, PROTO_TCP, segment, src)

    def handle(self, seq: int, flags: int, payload: bytes) -> None:
        """Take one received segment: its seq, flags and payload."""
        if flags & RST:
            self.state = "CLOSED"
            if self.on_close:
                self.on_close()
            return
        if self.state == "SYN_SENT" and flags & SYN and flags & ACK:
            self.ack = seq + 1
            self.state = "ESTABLISHED"
            self._send_segment(ACK)
            if self.on_connect:
                self.on_connect()
            return
        if self.state == "LISTEN_CHILD" and flags & ACK and not payload:
            self.state = "ESTABLISHED"
            if self.on_connect:
                self.on_connect()
            return
        if payload:
            self.ack = seq + len(payload)
            self.bytes_received += len(payload)
            self._send_segment(ACK)
            if self.state == "LISTEN_CHILD":
                self.state = "ESTABLISHED"
                if self.on_connect:
                    self.on_connect()
            if self.on_data:
                self.on_data(payload)
        if flags & FIN:
            self.ack = seq + len(payload) + 1
            if self.state == "FIN_WAIT":
                self._send_segment(ACK)
                self.state = "CLOSED"
            else:
                self._send_segment(FIN | ACK)
                self.seq += 1
                self.state = "CLOSED"
            if self.on_close:
                self.on_close()


class Host:
    """A device on the home network.

    Created unconfigured; call :meth:`start_dhcp` to acquire a lease from
    the router (the normal path — the paper's DHCP server is the
    gatekeeper for network access), or :meth:`configure_static` in tests.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        mac: Union[str, MACAddress],
        device_class: str = "generic",
    ):
        self.sim = sim
        self.name = name
        self.mac = MACAddress(mac)
        self.device_class = device_class
        self.port = Port(f"{name}.eth0")
        self.port.on_receive(self._on_frame)

        # Addresses as ints, the form the frame builders take; read them
        # as IPv4Address through the properties below.
        self._ip: Optional[int] = None
        self._netmask: Optional[int] = None
        self._gateway: Optional[int] = None
        self._dns_server: Optional[int] = None

        # Next hop -> the 6-byte MAC its ARP packet carried.
        self._arp_table: Dict[int, bytes] = {}
        # Packed IPv4 packets waiting for their next hop's MAC.
        self._arp_pending: Dict[int, List[bytes]] = {}
        self._udp_handlers: Dict[int, UdpHandler] = {}
        self._tcp_listeners: Dict[int, Callable[[TCPConnection], None]] = {}
        self._tcp_conns: Dict[Tuple[int, int, int], TCPConnection] = {}
        self._next_ephemeral = 49152

        # DHCP client state.
        self.dhcp_state = DHCP_INIT
        self._dhcp_xid = 0
        self._dhcp_server: Optional[IPv4Address] = None
        self._lease_time: float = 0.0
        self._lease_expires_at: float = 0.0
        self._renew_event = None
        self._dhcp_retry_timer = None
        self._dhcp_retry_interval: float = 5.0
        self.dhcp_active = False
        self.on_lease: Optional[Callable[["Host"], None]] = None
        self.dhcp_nak_count = 0
        self.dhcp_offer_count = 0

        # DNS stub resolver state.
        self._dns_pending: Dict[int, Tuple[str, DnsCallback]] = {}
        self._dns_ident = sim.random.randrange(1, 0xFFFF)
        self.dns_cache: Dict[str, IPv4Address] = {}

        # ICMP echo state.
        self._ping_pending: Dict[Tuple[int, int], Tuple[float, PingCallback]] = {}
        self._ping_ident = sim.random.randrange(1, 0xFFFF)
        self._ping_seq = 0

        # Packet-lineage flight recorder; the router injects its Tracer
        # when the device attaches (None = tracing off, zero cost).  Only
        # sampled transmissions get a context here: each frame counts
        # down the tracer's sampling countdown, and only the one that
        # reaches zero calls it (Tracer.sampled).
        self.tracer = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def configure_static(
        self,
        ip: Union[str, IPv4Address],
        netmask: Union[str, IPv4Address] = "255.255.0.0",
        gateway: Optional[Union[str, IPv4Address]] = None,
        dns_server: Optional[Union[str, IPv4Address]] = None,
    ) -> None:
        """Bypass DHCP and set addresses directly (tests and servers)."""
        self._ip = int(IPv4Address(ip))
        self._netmask = int(IPv4Address(netmask))
        self._gateway = int(IPv4Address(gateway)) if gateway else None
        self._dns_server = int(IPv4Address(dns_server)) if dns_server else None
        self.dhcp_state = DHCP_BOUND

    @property
    def ip(self) -> Optional[IPv4Address]:
        return _address(self._ip)

    @property
    def netmask(self) -> Optional[IPv4Address]:
        return _address(self._netmask)

    @property
    def gateway(self) -> Optional[IPv4Address]:
        return _address(self._gateway)

    @property
    def dns_server(self) -> Optional[IPv4Address]:
        return _address(self._dns_server)

    @property
    def network(self) -> Optional[IPv4Network]:
        if self._ip is None or self._netmask is None:
            return None
        prefixlen = bin(self._netmask).count("1")
        return IPv4Network((self._ip, prefixlen))

    # ------------------------------------------------------------------
    # Frame TX/RX
    # ------------------------------------------------------------------

    def send_frame(self, raw: bytes) -> None:
        """Put one Ethernet frame, as bytes, on the wire."""
        tracer = self.tracer
        if tracer is not None:
            tracer.countdown -= 1
            if not tracer.countdown:
                ctx = tracer.sampled()
                if ctx is not None:
                    fields = read_frame(raw)
                    ethertype = f" ethertype={fields[1]:#06x}" if fields is not None else ""
                    raw = with_trace(raw, ctx)
                    ctx.hop("host", "tx", cause=f"device={self.name}{ethertype}")
        self.port.send(raw)

    def _on_frame(self, raw: bytes, _port: Port) -> None:
        fields = read_frame(raw)
        if fields is None:
            return  # shorter than an Ethernet header
        dl_dst, dl_type, nw_src, nw_dst, nw_proto, transport, payload = fields
        # The group bit marks broadcast and multicast alike.
        if dl_dst != int(self.mac) and not dl_dst >> 40 & 1:
            return  # not for us (promiscuous mode not modelled)
        ctx = trace_of(raw)
        if ctx is not None:
            # First matching receiver ends the trace (finish is
            # idempotent, so broadcast copies are harmless).
            ctx.finish("host", "rx", decision="delivered", cause=f"device={self.name}")
        if nw_proto is not None:
            self._on_ip(nw_src, nw_dst, nw_proto, transport, payload)
        elif dl_type == ETH_TYPE_ARP:
            arp = read_arp(raw)
            if arp is not None:
                self._handle_arp(*arp)

    # ------------------------------------------------------------------
    # ARP
    # ------------------------------------------------------------------

    def _handle_arp(self, opcode: int, sender_mac: bytes, sender_ip: int, target_ip: int) -> None:
        """Take one ARP packet: learn its sender, answer a request for
        this host's address, and flush what waited for the sender."""
        self._arp_table[sender_ip] = sender_mac
        own_mac = self.mac.packed
        if opcode == ARP_REQUEST and self._ip is not None and target_ip == self._ip:
            reply = arp_packet(ARP_REPLY, own_mac, self._ip, sender_mac, sender_ip)
            self.send_frame(ethernet_frame(sender_mac, own_mac, ETH_TYPE_ARP, reply))
        # Encapsulate and flush packets queued behind resolution.
        for packet in self._arp_pending.pop(sender_ip, ()):
            self.send_frame(ethernet_frame(sender_mac, own_mac, ETH_TYPE_IPV4, packet))

    def _resolve_and_send(self, next_hop: int, packet: bytes) -> None:
        mac = self._arp_table.get(next_hop)
        if mac is not None:
            self.send_frame(ethernet_frame(mac, self.mac.packed, ETH_TYPE_IPV4, packet))
            return
        pending = self._arp_pending.setdefault(next_hop, [])
        pending.append(packet)
        if len(pending) > 1:
            return  # resolution already in flight
        # An unaddressed host asks from 0.0.0.0.
        request = arp_packet(ARP_REQUEST, self.mac.packed, self._ip or 0, _ZERO_MAC, next_hop)
        self.send_frame(ethernet_frame(_BROADCAST_MAC, self.mac.packed, ETH_TYPE_ARP, request))

    # ------------------------------------------------------------------
    # IP send/receive
    # ------------------------------------------------------------------

    def _source(self, src: Optional[int] = None) -> int:
        """The source address of a packet: ``src``, else this host's own.

        ``src`` is for the simulated Internet cloud, which answers for
        many addresses.  Raises ConnectionError when there is neither.
        """
        if src is None:
            src = self._ip
            if src is None:
                raise ConnectionError(f"host {self.name} has no address yet")
        return src

    def send_ip(self, dst: int, proto: int, payload: bytes, src: int) -> None:
        """Route an IPv4 packet from ``src`` to ``dst`` (addresses as
        ints) carrying ``payload``, a packed transport segment whose
        checksum covers both: on-link destinations direct, else gateway.

        Under the paper's isolating /30 allocation nothing is on-link
        except the router, so all traffic goes through the gateway — the
        property the Homework DHCP server engineers deliberately.
        """
        self._resolve_and_send(self._next_hop(dst), ipv4_packet(src, dst, proto, payload))

    def _next_hop(self, dst: int) -> int:
        ip, netmask = self._ip, self._netmask
        # Every mask a host is given is a prefix mask (DHCP sends its
        # network's, the ACK default is /24), so masking the difference
        # answers as comparing the top ``prefix`` bits would.
        if ip is not None and netmask is not None and not (dst ^ ip) & netmask:
            return dst
        if self._gateway is not None:
            return self._gateway
        raise ConnectionError(f"host {self.name} has no route to {IPv4Address(dst)}")

    def _on_ip(
        self,
        src: int,
        dst: int,
        proto: int,
        transport: Optional[Tuple[int, ...]],
        payload: bytes,
    ) -> None:
        """Take one IPv4 packet: its addresses, protocol, transport
        fields (see ``read_frame``) and payload."""
        ip = self._ip
        if ip is not None and dst != ip and dst != _BROADCAST_IP:
            return
        if transport is None:
            return  # a protocol or header this stack does not take
        if proto == PROTO_UDP:
            self._on_udp(src, transport[0], transport[1], payload)
        elif ip is None:
            # No address (lease lost mid-conversation): TCP and ICMP both
            # answer with transmissions we cannot source.  A real stack
            # drops late segments for a deconfigured interface; only UDP
            # stays open above, since DHCP rides it to get us an address.
            return
        elif proto == PROTO_TCP:
            sport, dport, seq, ack, flags = transport
            self._on_tcp(src, dst, sport, dport, seq, ack, flags, payload)
        elif proto == PROTO_ICMP:
            icmp_type, _code, ident, seq = transport
            self._on_icmp(src, icmp_type, ident, seq, payload)

    # ------------------------------------------------------------------
    # UDP
    # ------------------------------------------------------------------

    def udp_bind(self, port: int, handler: UdpHandler) -> None:
        """Register a handler for datagrams to local ``port``."""
        self._udp_handlers[port] = handler

    def udp_unbind(self, port: int) -> None:
        self._udp_handlers.pop(port, None)

    def udp_send(
        self, dst: Union[str, IPv4Address], dport: int, data: bytes, sport: int = 0
    ) -> int:
        """Send a datagram; returns the source port used."""
        if sport == 0:
            sport = self._ephemeral_port()
        src = self._source()
        dst_ip = int(IPv4Address(dst))
        self.send_ip(dst_ip, PROTO_UDP, udp_datagram(src, dst_ip, sport, dport, data), src)
        return sport

    def _on_udp(self, src: int, sport: int, dport: int, payload: bytes) -> None:
        if dport == PORT_DHCP_CLIENT:
            try:
                msg = DHCPMessage.unpack(payload)
            except PacketError:
                return
            self._handle_dhcp(msg)
            return
        handler = self._udp_handlers.get(dport)
        if handler is not None:
            handler(payload, IPv4Address(src), sport)

    def _ephemeral_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral > 65535:
            self._next_ephemeral = 49152
        return port

    # ------------------------------------------------------------------
    # DHCP client
    # ------------------------------------------------------------------

    def start_dhcp(self, retry_interval: float = 5.0) -> None:
        """Begin address acquisition (DISCOVER broadcast).

        Retries DISCOVER every ``retry_interval`` seconds until bound —
        the behaviour the paper's control UI relies on: a pending device
        keeps knocking until the user permits it.
        """
        self.dhcp_active = True
        self._dhcp_retry_interval = retry_interval
        self.dhcp_state = DHCP_SELECTING
        self._dhcp_xid = self.sim.random.randrange(1, 0xFFFFFFFF)
        discover = DHCPMessage.discover(self.mac, self._dhcp_xid, hostname=self.name)
        self._broadcast_dhcp(discover)
        if self._dhcp_retry_timer is not None:
            self._dhcp_retry_timer.cancel()
            self._dhcp_retry_timer = None
        if retry_interval > 0:
            self._dhcp_retry_timer = self.sim.schedule(
                retry_interval, lambda: self._dhcp_retry(retry_interval)
            )

    def _dhcp_retry(self, retry_interval: float) -> None:
        if self.dhcp_state in (DHCP_SELECTING, DHCP_REQUESTING, DHCP_INIT):
            self.start_dhcp(retry_interval)

    def _broadcast_dhcp(self, msg: DHCPMessage) -> None:
        src = self._ip or 0
        datagram = udp_datagram(
            src, _BROADCAST_IP, PORT_DHCP_CLIENT, PORT_DHCP_SERVER, msg.pack()
        )
        packet = ipv4_packet(src, _BROADCAST_IP, PROTO_UDP, datagram)
        self.send_frame(ethernet_frame(_BROADCAST_MAC, self.mac.packed, ETH_TYPE_IPV4, packet))

    def _handle_dhcp(self, msg: DHCPMessage) -> None:
        if msg.xid != self._dhcp_xid or msg.chaddr != self.mac:
            return
        mtype = msg.message_type
        if mtype == DHCPOFFER and self.dhcp_state == DHCP_SELECTING:
            self.dhcp_offer_count += 1
            self._dhcp_server = msg.server_id
            self.dhcp_state = DHCP_REQUESTING
            request = DHCPMessage.request(
                self.mac,
                self._dhcp_xid,
                requested_ip=msg.yiaddr,
                server_id=msg.server_id or IPv4Address.any(),
                hostname=self.name,
            )
            self._broadcast_dhcp(request)
        elif mtype == DHCPACK and self.dhcp_state in (DHCP_REQUESTING, DHCP_RENEWING):
            self._ip = int(msg.yiaddr)
            mask = msg.options.get(OPT_SUBNET_MASK)
            self._netmask = int(IPv4Address(mask)) if mask else _DEFAULT_NETMASK
            router = msg.options.get(OPT_ROUTER)
            self._gateway = int(IPv4Address(router[:4])) if router else None
            dns = msg.options.get(OPT_DNS_SERVER)
            self._dns_server = int(IPv4Address(dns[:4])) if dns else None
            lease = msg.options.get(OPT_LEASE_TIME)
            self._lease_time = float(int.from_bytes(lease, "big")) if lease else 3600.0
            self._lease_expires_at = self.sim.now + self._lease_time
            self.dhcp_state = DHCP_BOUND
            self._schedule_renewal()
            if self.on_lease:
                self.on_lease(self)
        elif mtype == DHCPNAK:
            self.dhcp_nak_count += 1
            self._ip = None
            self.dhcp_state = DHCP_INIT
            if self._renew_event is not None:
                self._renew_event.cancel()
                self._renew_event = None
            # Re-enter discovery: a NAK while bound/renewing must not
            # strand the client with no pending timer (the old retry
            # chain died the moment we first bound).
            if self._dhcp_retry_interval > 0:
                self.start_dhcp(self._dhcp_retry_interval)

    def _schedule_renewal(self) -> None:
        if self._renew_event is not None:
            self._renew_event.cancel()
        # T1: renew at half the lease time, per RFC 2131.
        self._renew_event = self.sim.schedule(self._lease_time / 2, self._renew)

    def _renew(self) -> None:
        if self.dhcp_state not in (DHCP_BOUND, DHCP_RENEWING) or self._ip is None:
            return
        if self.sim.now >= self._lease_expires_at:
            # Every renewal attempt went unanswered and the lease has
            # now lapsed: fall back to a fresh DISCOVER cycle.
            self._ip = None
            self.dhcp_state = DHCP_INIT
            if self._dhcp_retry_interval > 0:
                self.start_dhcp(self._dhcp_retry_interval)
            return
        self.dhcp_state = DHCP_RENEWING
        request = DHCPMessage.request(
            self.mac,
            self._dhcp_xid,
            requested_ip=self.ip,
            server_id=self._dhcp_server or IPv4Address.any(),
            hostname=self.name,
        )
        self._broadcast_dhcp(request)
        # A lost REQUEST must not strand us in RENEWING: retry at half
        # the remaining lease time (RFC 2131's T1/T2 backoff, squashed).
        delay = max((self._lease_expires_at - self.sim.now) / 2, 1.0)
        if self._renew_event is not None:
            self._renew_event.cancel()
        self._renew_event = self.sim.schedule(delay, self._renew)

    def release_dhcp(self) -> None:
        """Send DHCPRELEASE and forget the address."""
        self.dhcp_active = False
        if self._ip is None or self._dhcp_server is None:
            return
        release = DHCPMessage.release(
            self.mac, self._dhcp_xid, ciaddr=self.ip, server_id=self._dhcp_server
        )
        self._broadcast_dhcp(release)
        self._ip = None
        self.dhcp_state = DHCP_INIT
        if self._renew_event is not None:
            self._renew_event.cancel()
            self._renew_event = None
        if self._dhcp_retry_timer is not None:
            self._dhcp_retry_timer.cancel()
            self._dhcp_retry_timer = None

    def dhcp_timer_pending(self, now: float) -> bool:
        """True if a future DHCP wakeup (retry or renewal) is scheduled.

        The liveness property the fuzzer checks: an active client that is
        not parked by choice always has some timer that will eventually
        fire, so it can never be stranded by a single lost packet.
        """
        for event in (self._dhcp_retry_timer, self._renew_event):
            if event is not None and not event.cancelled and event.when > now:
                return True
        return False

    # ------------------------------------------------------------------
    # DNS stub resolver
    # ------------------------------------------------------------------

    def resolve(self, name: str, callback: DnsCallback) -> None:
        """Resolve ``name`` to an A record via the configured DNS server.

        ``callback(address, rcode)`` fires when the response arrives;
        ``address`` is None on failure (e.g. the proxy blocked the name).
        """
        name = name.rstrip(".").lower()
        cached = self.dns_cache.get(name)
        if cached is not None:
            self.sim.schedule(0.0, lambda: callback(cached, RCODE_NOERROR))
            return
        if self._dns_server is None:
            raise ConnectionError(f"host {self.name} has no DNS server")
        self._dns_ident = (self._dns_ident + 1) & 0xFFFF or 1
        ident = self._dns_ident
        query = DNSMessage.query(name, TYPE_A, ident=ident)
        sport = self._ephemeral_port()
        self._dns_pending[ident] = (name, callback)
        self.udp_bind(sport, self._on_dns_response)
        self.udp_send(self.dns_server, PORT_DNS, query.pack(), sport=sport)

    def _on_dns_response(self, data: bytes, _src: IPv4Address, _sport: int) -> None:
        try:
            msg = DNSMessage.unpack(data)
        except PacketError:
            return
        pending = self._dns_pending.pop(msg.ident, None)
        if pending is None:
            return
        name, callback = pending
        a_records = msg.a_records()
        if msg.rcode == RCODE_NOERROR and a_records:
            address = a_records[0].address
            if address is not None:
                self.dns_cache[name] = address
            callback(address, msg.rcode)
        else:
            callback(None, msg.rcode)

    # ------------------------------------------------------------------
    # TCP
    # ------------------------------------------------------------------

    def tcp_listen(self, port: int, on_accept: Callable[[TCPConnection], None]) -> None:
        """Accept incoming connections on ``port``."""
        self._tcp_listeners[port] = on_accept

    def tcp_connect(
        self, remote_ip: Union[str, IPv4Address], remote_port: int
    ) -> TCPConnection:
        """Open a connection; returns it in SYN_SENT state."""
        conn = TCPConnection(
            self, self._ephemeral_port(), int(IPv4Address(remote_ip)), remote_port
        )
        self._tcp_conns[conn.key] = conn
        conn.connect()
        return conn

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
        """Take one TCP segment from ``src`` to ``dst`` (see ``_on_ip``)."""
        conn = self._tcp_conns.get((dport, src, sport))
        if conn is not None:
            conn.handle(seq, flags, payload)
            return
        if flags & SYN and not flags & ACK and dport in self._tcp_listeners:
            child = TCPConnection(self, dport, src, sport)
            child.state = "LISTEN_CHILD"
            child.ack = seq + 1
            self._tcp_conns[child.key] = child
            self._tcp_listeners[dport](child)
            child._send_segment(SYN | ACK)
            child.seq += 1
            return
        # No listener: refuse with RST, as a real stack would.
        if not flags & RST:
            try:
                own = self._source()
                rst = tcp_segment(own, src, dport, sport, ack, seq + 1, RST | ACK)
                self.send_ip(src, PROTO_TCP, rst, own)
            except ConnectionError:
                pass

    # ------------------------------------------------------------------
    # ICMP echo
    # ------------------------------------------------------------------

    def ping(self, dst: Union[str, IPv4Address], callback: PingCallback) -> None:
        """Send an echo request; ``callback(success, rtt)`` on reply."""
        # Count modulo 2**16, as the echo carries it, so the reply's
        # (ident, seq) is the key the request was filed under.
        self._ping_seq = (self._ping_seq + 1) & 0xFFFF
        key = (self._ping_ident, self._ping_seq)
        self._ping_pending[key] = (self.sim.now, callback)
        echo = icmp_echo(TYPE_ECHO_REQUEST, self._ping_ident, self._ping_seq, b"homework")
        src = self._source()
        self.send_ip(int(IPv4Address(dst)), PROTO_ICMP, echo, src)

    def _on_icmp(self, src: int, icmp_type: int, ident: int, seq: int, payload: bytes) -> None:
        if icmp_type == TYPE_ECHO_REQUEST:
            reply = icmp_echo(TYPE_ECHO_REPLY, ident, seq, payload)
            self.send_ip(src, PROTO_ICMP, reply, self._source())
        elif icmp_type == TYPE_ECHO_REPLY:
            key = (ident, seq)
            pending = self._ping_pending.pop(key, None)
            if pending is not None:
                sent_at, callback = pending
                callback(True, self.sim.now - sent_at)

    def __repr__(self) -> str:
        return f"Host({self.name!r}, mac={self.mac}, ip={self.ip})"
