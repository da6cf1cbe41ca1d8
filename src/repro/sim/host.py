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
from ..net.arp import ARP
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
from ..net.ethernet import ETH_TYPE_ARP, ETH_TYPE_IPV4, Ethernet
from ..net.icmp import ICMP
from ..net.ipv4 import IPv4, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from ..net.packet import PacketError
from ..net.tcp import ACK, FIN, SYN, TCP
from ..net.trace import trace_of, with_trace
from ..net.udp import PORT_DHCP_CLIENT, PORT_DHCP_SERVER, PORT_DNS, UDP
from .link import Port

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator

logger = logging.getLogger(__name__)

UdpHandler = Callable[[bytes, IPv4Address, int], None]
DnsCallback = Callable[[Optional[IPv4Address], int], None]
PingCallback = Callable[[bool, float], None]

# DHCP client states.
DHCP_INIT = "INIT"
DHCP_SELECTING = "SELECTING"
DHCP_REQUESTING = "REQUESTING"
DHCP_BOUND = "BOUND"
DHCP_RENEWING = "RENEWING"


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
        remote_ip: IPv4Address,
        remote_port: int,
    ):
        self.host = host
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.local_ip: Optional[IPv4Address] = None  # cloud hosts answer per-IP
        self.state = "CLOSED"
        self.seq = host.sim.random.randrange(1 << 31)
        self.ack = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_connect: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[], None]] = None

    @property
    def key(self) -> Tuple[int, IPv4Address, int]:
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
        segment = TCP(
            sport=self.local_port,
            dport=self.remote_port,
            seq=self.seq,
            ack=self.ack,
            flags=flags,
            payload=data,
        )
        self.host.send_ip(self.remote_ip, PROTO_TCP, segment, src=self.local_ip)

    def handle(self, segment: TCP, src_ip: IPv4Address) -> None:
        payload = segment.pack_payload()
        if segment.is_rst:
            self.state = "CLOSED"
            if self.on_close:
                self.on_close()
            return
        if self.state == "SYN_SENT" and segment.is_synack:
            self.ack = segment.seq + 1
            self.state = "ESTABLISHED"
            self._send_segment(ACK)
            if self.on_connect:
                self.on_connect()
            return
        if self.state == "LISTEN_CHILD" and segment.flags & ACK and not payload:
            self.state = "ESTABLISHED"
            if self.on_connect:
                self.on_connect()
            return
        if payload:
            self.ack = segment.seq + len(payload)
            self.bytes_received += len(payload)
            self._send_segment(ACK)
            if self.state == "LISTEN_CHILD":
                self.state = "ESTABLISHED"
                if self.on_connect:
                    self.on_connect()
            if self.on_data:
                self.on_data(payload)
        if segment.is_fin:
            self.ack = segment.seq + len(payload) + 1
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

        self.ip: Optional[IPv4Address] = None
        self.netmask: Optional[IPv4Address] = None
        self.gateway: Optional[IPv4Address] = None
        self.dns_server: Optional[IPv4Address] = None

        self._arp_table: Dict[IPv4Address, MACAddress] = {}
        self._arp_pending: Dict[IPv4Address, List[IPv4]] = {}
        self._udp_handlers: Dict[int, UdpHandler] = {}
        self._tcp_listeners: Dict[int, Callable[[TCPConnection], None]] = {}
        self._tcp_conns: Dict[Tuple[int, IPv4Address, int], TCPConnection] = {}
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

        self.frames_received = 0
        self.frames_sent = 0

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
        self.ip = IPv4Address(ip)
        self.netmask = IPv4Address(netmask)
        self.gateway = IPv4Address(gateway) if gateway else None
        self.dns_server = IPv4Address(dns_server) if dns_server else None
        self.dhcp_state = DHCP_BOUND

    @property
    def network(self) -> Optional[IPv4Network]:
        if self.ip is None or self.netmask is None:
            return None
        prefixlen = bin(int(self.netmask)).count("1")
        return IPv4Network((self.ip, prefixlen))

    # ------------------------------------------------------------------
    # Frame TX/RX
    # ------------------------------------------------------------------

    def send_frame(self, frame: Ethernet) -> None:
        self.frames_sent += 1
        raw = frame.pack()
        tracer = self.tracer
        if tracer is not None:
            tracer.countdown -= 1
            if not tracer.countdown:
                ctx = tracer.sampled()
                if ctx is not None:
                    raw = with_trace(raw, ctx)
                    ctx.hop(
                        "host",
                        "tx",
                        cause=f"device={self.name} ethertype={frame.ethertype:#06x}",
                    )
        self.port.send(raw)

    def _on_frame(self, raw: bytes, _port: Port) -> None:
        self.frames_received += 1
        try:
            frame = Ethernet.unpack(raw)
        except PacketError:
            return
        if frame.dst != self.mac and not frame.dst.is_broadcast and not frame.dst.is_multicast:
            return  # not for us (promiscuous mode not modelled)
        ctx = trace_of(raw)
        if ctx is not None:
            # First matching receiver ends the trace (finish is
            # idempotent, so broadcast copies are harmless).
            ctx.finish("host", "rx", decision="delivered", cause=f"device={self.name}")
        if frame.ethertype == ETH_TYPE_ARP:
            arp = frame.find(ARP)
            if arp is not None:
                self._handle_arp(arp)
        elif frame.ethertype == ETH_TYPE_IPV4:
            ip = frame.find(IPv4)
            if ip is not None:
                self._handle_ip(ip)

    # ------------------------------------------------------------------
    # ARP
    # ------------------------------------------------------------------

    def _handle_arp(self, arp: ARP) -> None:
        self._arp_table[arp.sender_ip] = arp.sender_mac
        if (
            arp.opcode == 1
            and self.ip is not None
            and arp.target_ip == self.ip
        ):
            reply = ARP.reply(self.mac, self.ip, arp.sender_mac, arp.sender_ip)
            self.send_frame(
                Ethernet(arp.sender_mac, self.mac, ETH_TYPE_ARP, reply)
            )
        # Encapsulate and flush packets queued behind resolution.
        queued = self._arp_pending.pop(arp.sender_ip, [])
        for packet in queued:
            self.send_frame(
                Ethernet(arp.sender_mac, self.mac, ETH_TYPE_IPV4, packet)
            )

    def _resolve_and_send(self, next_hop: IPv4Address, packet: IPv4) -> None:
        mac = self._arp_table.get(next_hop)
        if mac is not None:
            self.send_frame(Ethernet(mac, self.mac, ETH_TYPE_IPV4, packet))
            return
        pending = self._arp_pending.setdefault(next_hop, [])
        pending.append(packet)
        if len(pending) > 1:
            return  # resolution already in flight
        request = ARP.request(self.mac, self.ip or IPv4Address.any(), next_hop)
        self.send_frame(
            Ethernet(MACAddress.broadcast(), self.mac, ETH_TYPE_ARP, request)
        )

    # ------------------------------------------------------------------
    # IP send/receive
    # ------------------------------------------------------------------

    def send_ip(
        self,
        dst: Union[str, IPv4Address],
        proto: int,
        payload,
        src: Optional[Union[str, IPv4Address]] = None,
    ) -> None:
        """Route an IP packet: on-link destinations direct, else gateway.

        Under the paper's isolating /30 allocation nothing is on-link
        except the router, so all traffic goes through the gateway — the
        property the Homework DHCP server engineers deliberately.  ``src``
        overrides the source address (used by the simulated Internet cloud
        which answers for many addresses).
        """
        if self.ip is None and src is None:
            raise ConnectionError(f"host {self.name} has no address yet")
        dst = IPv4Address(dst)
        source = IPv4Address(src) if src is not None else self.ip
        packet = IPv4(src=source, dst=dst, proto=proto, payload=payload)
        network = self.network
        if network is not None and dst in network:
            next_hop = dst
        elif self.gateway is not None:
            next_hop = self.gateway
        else:
            raise ConnectionError(f"host {self.name} has no route to {dst}")
        self._resolve_and_send(next_hop, packet)

    def _handle_ip(self, ip: IPv4) -> None:
        if (
            self.ip is not None
            and ip.dst != self.ip
            and not ip.dst.is_broadcast
            and ip.dst != IPv4Address("255.255.255.255")
        ):
            return
        if ip.proto == PROTO_UDP:
            udp = ip.find(UDP)
            if udp is not None:
                self._handle_udp(udp, ip.src)
        elif self.ip is None:
            # No address (lease lost mid-conversation): TCP and ICMP both
            # answer with transmissions we cannot source.  A real stack
            # drops late segments for a deconfigured interface; only UDP
            # stays open above, since DHCP rides it to get us an address.
            return
        elif ip.proto == PROTO_TCP:
            tcp = ip.find(TCP)
            if tcp is not None:
                self._handle_tcp(tcp, ip.src)
        elif ip.proto == PROTO_ICMP:
            icmp = ip.find(ICMP)
            if icmp is not None:
                self._handle_icmp(icmp, ip.src)

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
        self.send_ip(dst, PROTO_UDP, UDP(sport=sport, dport=dport, payload=data))
        return sport

    def _handle_udp(self, udp: UDP, src_ip: IPv4Address) -> None:
        if udp.dport == PORT_DHCP_CLIENT:
            msg = udp.find(DHCPMessage) if hasattr(udp.payload, "pack") else None
            if msg is None:
                try:
                    msg = DHCPMessage.unpack(udp.pack_payload())
                except PacketError:
                    return
            self._handle_dhcp(msg)
            return
        handler = self._udp_handlers.get(udp.dport)
        if handler is not None:
            handler(udp.pack_payload(), src_ip, udp.sport)

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
        udp = UDP(sport=PORT_DHCP_CLIENT, dport=PORT_DHCP_SERVER, payload=msg)
        packet = IPv4(
            src=self.ip or IPv4Address.any(),
            dst=IPv4Address.broadcast(),
            proto=PROTO_UDP,
            payload=udp,
        )
        self.send_frame(
            Ethernet(MACAddress.broadcast(), self.mac, ETH_TYPE_IPV4, packet)
        )

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
            self.ip = msg.yiaddr
            mask = msg.options.get(OPT_SUBNET_MASK)
            self.netmask = IPv4Address(mask) if mask else IPv4Address("255.255.255.0")
            router = msg.options.get(OPT_ROUTER)
            self.gateway = IPv4Address(router[:4]) if router else None
            dns = msg.options.get(OPT_DNS_SERVER)
            self.dns_server = IPv4Address(dns[:4]) if dns else None
            lease = msg.options.get(OPT_LEASE_TIME)
            self._lease_time = float(int.from_bytes(lease, "big")) if lease else 3600.0
            self._lease_expires_at = self.sim.now + self._lease_time
            self.dhcp_state = DHCP_BOUND
            self._schedule_renewal()
            if self.on_lease:
                self.on_lease(self)
        elif mtype == DHCPNAK:
            self.dhcp_nak_count += 1
            self.ip = None
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
        if self.dhcp_state not in (DHCP_BOUND, DHCP_RENEWING) or self.ip is None:
            return
        if self.sim.now >= self._lease_expires_at:
            # Every renewal attempt went unanswered and the lease has
            # now lapsed: fall back to a fresh DISCOVER cycle.
            self.ip = None
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
        if self.ip is None or self._dhcp_server is None:
            return
        release = DHCPMessage.release(
            self.mac, self._dhcp_xid, ciaddr=self.ip, server_id=self._dhcp_server
        )
        self._broadcast_dhcp(release)
        self.ip = None
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
        if self.dns_server is None:
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
            self, self._ephemeral_port(), IPv4Address(remote_ip), remote_port
        )
        self._tcp_conns[conn.key] = conn
        conn.connect()
        return conn

    def _handle_tcp(self, segment: TCP, src_ip: IPv4Address) -> None:
        key = (segment.dport, src_ip, segment.sport)
        conn = self._tcp_conns.get(key)
        if conn is not None:
            conn.handle(segment, src_ip)
            return
        if segment.is_syn and segment.dport in self._tcp_listeners:
            child = TCPConnection(self, segment.dport, src_ip, segment.sport)
            child.state = "LISTEN_CHILD"
            child.ack = segment.seq + 1
            self._tcp_conns[child.key] = child
            self._tcp_listeners[segment.dport](child)
            child._send_segment(SYN | ACK)
            child.seq += 1
            return
        # No listener: refuse with RST, as a real stack would.
        if not segment.is_rst:
            rst = TCP(
                sport=segment.dport,
                dport=segment.sport,
                seq=segment.ack,
                flags=0x04 | ACK,
                ack=segment.seq + 1,
            )
            try:
                self.send_ip(src_ip, PROTO_TCP, rst)
            except ConnectionError:
                pass

    # ------------------------------------------------------------------
    # ICMP echo
    # ------------------------------------------------------------------

    def ping(self, dst: Union[str, IPv4Address], callback: PingCallback) -> None:
        """Send an echo request; ``callback(success, rtt)`` on reply."""
        self._ping_seq += 1
        key = (self._ping_ident, self._ping_seq)
        self._ping_pending[key] = (self.sim.now, callback)
        echo = ICMP.echo_request(self._ping_ident, self._ping_seq, b"homework")
        self.send_ip(dst, PROTO_ICMP, echo)

    def _handle_icmp(self, icmp: ICMP, src_ip: IPv4Address) -> None:
        if icmp.is_echo_request:
            reply = ICMP.echo_reply(icmp.ident, icmp.seq, icmp.pack_payload())
            self.send_ip(src_ip, PROTO_ICMP, reply)
        elif icmp.is_echo_reply:
            key = (icmp.ident, icmp.seq)
            pending = self._ping_pending.pop(key, None)
            if pending is not None:
                sent_at, callback = pending
                callback(True, self.sim.now - sent_at)

    def __repr__(self) -> str:
        return f"Host({self.name!r}, mac={self.mac}, ip={self.ip})"
