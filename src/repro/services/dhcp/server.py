"""The DHCP server NOX component.

DHCP broadcasts reach the controller as packet-ins (the datapath has no
matching flow for them); this component runs the protocol state machine,
consults the :class:`~repro.services.dhcp.policy.DevicePolicyStore`, and
answers with packet-outs.  Lease events are published on the router's
event bus (``dhcp.*``), which the hwdb lease collector and the artifact's
Mode 3 subscribe to.
"""

from __future__ import annotations

import logging
from typing import Optional

from ...core.config import RouterConfig
from ...core.events import EventBus
from ...net.addresses import IPv4Address, MACAddress
from ...net.dhcp_msg import (
    DHCPACK,
    DHCPDECLINE,
    DHCPDISCOVER,
    DHCPINFORM,
    DHCPMessage,
    DHCPNAK,
    DHCPOFFER,
    DHCPRELEASE,
    DHCPREQUEST,
    OPT_DNS_SERVER,
    OPT_LEASE_TIME,
    OPT_ROUTER,
    OPT_SUBNET_MASK,
)
from ...net.ethernet import ETH_TYPE_IPV4, ethernet_frame
from ...net.ipv4 import PROTO_UDP, ipv4_packet
from ...net.packet import PacketError
from ...net.rewrite import read_frame
from ...net.trace import trace_of, with_trace
from ...net.udp import PORT_DHCP_CLIENT, PORT_DHCP_SERVER, udp_datagram
from ...nox.component import CONTINUE, Component, STOP
from ...nox.controller import EV_PACKET_IN
from ...openflow.actions import output
from ...openflow.messages import PacketIn
from .leases import LeaseDatabase, STATE_BOUND
from .policy import DENIED, DevicePolicyStore, PENDING
from .pool import AddressPool, FlatPool, IsolatingPool

logger = logging.getLogger(__name__)


class DhcpServer(Component):
    """The paper's DHCP server module."""

    name = "dhcp_server"

    def __init__(
        self,
        controller,
        config: RouterConfig,
        bus: EventBus,
        policy: Optional[DevicePolicyStore] = None,
        pool: Optional[AddressPool] = None,
    ):
        super().__init__(controller)
        self.config = config
        self.bus = bus
        self.policy = policy or DevicePolicyStore(config.default_permit)
        if pool is not None:
            self.pool = pool
        elif config.isolate_devices:
            self.pool = IsolatingPool(config.subnet)
        else:
            self.pool = FlatPool(config.subnet, config.router_ip)
        self.leases = LeaseDatabase()
        self.server_id = config.router_ip

        registry = controller.registry
        self._m_discovers = registry.counter("dhcp.discover_total")
        self._m_offers = registry.counter("dhcp.offer_total")
        self._m_acks = registry.counter("dhcp.ack_total")
        self._m_naks = registry.counter("dhcp.nak_total")
        self._m_withheld = registry.counter("dhcp.withheld_total")
        # DISCOVER timestamps per client, so the ACK that completes the
        # handshake yields DISCOVER→ACK latency in simulated seconds
        # (controller round trips + client retries).
        self._discover_at = {}
        self._m_handshake = registry.histogram("dhcp.discover_to_ack_sim_seconds")

        self._expiry_timer = None

    # Read-only view of a registry counter that benchmarks/e2e/bench.py
    # reads by attribute name.
    @property
    def discovers(self) -> int:
        return self._m_discovers.value

    def install(self) -> None:
        # Priority 10: DHCP runs before the routing component (100) so it
        # consumes DHCP packet-ins.
        self.register_handler(EV_PACKET_IN, self.handle_packet_in, priority=10)
        self._expiry_timer = self.sim.schedule_periodic(5.0, self._expire_leases)

    def uninstall(self) -> None:
        super().uninstall()
        if self._expiry_timer is not None:
            self._expiry_timer.cancel()
            self._expiry_timer = None

    # ------------------------------------------------------------------
    # Packet-in path
    # ------------------------------------------------------------------

    def handle_packet_in(self, msg: PacketIn) -> int:
        key = msg.key
        if key is None:
            return CONTINUE
        *_, nw_proto, _tp_src, tp_dst = key
        if nw_proto != PROTO_UDP or tp_dst != PORT_DHCP_SERVER:
            return CONTINUE
        # The key names a UDP header, so the payload read is the datagram's.
        try:
            request = DHCPMessage.unpack(read_frame(msg.data)[6])
        except PacketError:
            return CONTINUE
        self._handle_dhcp(request, msg.in_port, trace_of(msg.data))
        return STOP

    def _handle_dhcp(self, request: DHCPMessage, in_port: int, ctx=None) -> None:
        mtype = request.message_type
        mac = request.chaddr
        hostname = request.hostname or ""
        record = self.policy.observe(mac, self.now, hostname)
        if ctx is not None:
            ctx.hop("dhcp", "handle", decision=f"type_{mtype}", cause=f"mac={mac}")
        if mtype == DHCPDISCOVER:
            self._m_discovers.inc()
            self._discover_at[mac] = self.now
            self._on_discover(request, record, in_port, ctx)
        elif mtype == DHCPREQUEST:
            self._on_request(request, record, in_port, ctx)
        elif mtype == DHCPRELEASE:
            self._on_release(request)
        elif mtype == DHCPDECLINE:
            self._revoke(mac, "declined")
        elif mtype == DHCPINFORM:
            self._on_inform(request, in_port, ctx)
        else:
            logger.debug("ignoring DHCP message type %s from %s", mtype, mac)

    def _on_discover(self, request: DHCPMessage, record, in_port: int, ctx=None) -> None:
        mac = request.chaddr
        if record.state == PENDING:
            # Device detected but not yet permitted: surface it to the
            # control interface and withhold the address.
            self._m_withheld.inc()
            if ctx is not None:
                ctx.finish("dhcp", "withhold", decision="drop", cause="pending")
            self.bus.emit(
                "dhcp.device.pending",
                timestamp=self.now,
                mac=str(mac),
                hostname=record.hostname,
                port=in_port,
            )
            return
        if record.state == DENIED:
            self._m_withheld.inc()
            if ctx is not None:
                ctx.finish("dhcp", "withhold", decision="deny", cause="device_denied")
            self.bus.emit(
                "dhcp.device.denied_attempt",
                timestamp=self.now,
                mac=str(mac),
                hostname=record.hostname,
            )
            return
        allocation = self.pool.allocate(mac)
        lease = self.leases.offer(
            mac, allocation, record.hostname, self.now, self.config.lease_time
        )
        self._m_offers.inc()
        reply = request.reply(DHCPOFFER, yiaddr=lease.ip, server_id=self.server_id)
        if ctx is not None:
            ctx.hop("dhcp", "offer", cause=f"ip={lease.ip}")
        self._fill_options(reply, lease, request)
        self._send_reply(reply, in_port, ctx)

    def _on_request(self, request: DHCPMessage, record, in_port: int, ctx=None) -> None:
        mac = request.chaddr
        if record.state != "permitted":
            self._nak(request, in_port, ctx)
            return
        requested = request.requested_ip or request.ciaddr
        lease = self.leases.by_mac(mac)
        if lease is None:
            # REQUEST without prior OFFER (e.g. renewal after restart):
            # allocate if the requested address is still this device's.
            allocation = self.pool.lookup(mac)
            if allocation is None:
                allocation = self.pool.allocate(mac)
            lease = self.leases.offer(
                mac, allocation, record.hostname, self.now, self.config.lease_time
            )
        if requested and not requested.is_unspecified and requested != lease.ip:
            self._nak(request, in_port, ctx)
            return
        was_bound = lease.state == STATE_BOUND
        self.leases.bind(mac, self.now, self.config.lease_time)
        self._m_acks.inc()
        discovered_at = self._discover_at.pop(mac, None)
        if discovered_at is not None:
            self._m_handshake.observe(self.now - discovered_at)
        reply = request.reply(DHCPACK, yiaddr=lease.ip, server_id=self.server_id)
        if ctx is not None:
            ctx.hop("dhcp", "ack", cause=f"ip={lease.ip}")
        self._fill_options(reply, lease, request)
        self._send_reply(reply, in_port, ctx)
        action = "renewed" if was_bound else "granted"
        self.bus.emit(
            f"dhcp.lease.{action}",
            timestamp=self.now,
            mac=str(mac),
            ip=str(lease.ip),
            hostname=lease.hostname,
            expires=lease.expires_at,
            port=in_port,
        )

    def _on_release(self, request: DHCPMessage) -> None:
        self._revoke(request.chaddr, "released")

    def _on_inform(self, request: DHCPMessage, in_port: int, ctx=None) -> None:
        reply = request.reply(DHCPACK, yiaddr="0.0.0.0", server_id=self.server_id)
        reply.set_option_ip(OPT_DNS_SERVER, self.config.router_ip)
        self._send_reply(reply, in_port, ctx)

    def _nak(self, request: DHCPMessage, in_port: int, ctx=None) -> None:
        self._m_naks.inc()
        self._discover_at.pop(request.chaddr, None)
        reply = request.reply(DHCPNAK, yiaddr="0.0.0.0", server_id=self.server_id)
        if ctx is not None:
            ctx.hop("dhcp", "nak", cause=f"mac={request.chaddr}")
        self._send_reply(reply, in_port, ctx)
        self.bus.emit(
            "dhcp.lease.denied",
            timestamp=self.now,
            mac=str(request.chaddr),
            hostname=request.hostname or "",
        )

    def _revoke(self, mac: MACAddress, reason: str) -> None:
        lease = self.leases.release(mac)
        if lease is not None:
            self.bus.emit(
                "dhcp.lease.revoked",
                timestamp=self.now,
                mac=str(mac),
                ip=str(lease.ip),
                hostname=lease.hostname,
                reason=reason,
            )

    def revoke_device(self, mac) -> None:
        """Control-API entry: tear down a device's lease immediately."""
        self._revoke(MACAddress(mac), "policy")

    def _expire_leases(self) -> None:
        for lease in self.leases.expire_due(self.now):
            self.bus.emit(
                "dhcp.lease.revoked",
                timestamp=self.now,
                mac=str(lease.mac),
                ip=str(lease.ip),
                hostname=lease.hostname,
                reason="expired",
            )

    # ------------------------------------------------------------------
    # Reply plumbing
    # ------------------------------------------------------------------

    def _fill_options(
        self, reply: DHCPMessage, lease, request: Optional[DHCPMessage] = None
    ) -> None:
        """Populate reply options, honouring the client's option-55 list.

        Lease time is always included (mandatory on OFFER/ACK); the
        network parameters are filtered to what the client asked for,
        per RFC 2132 §9.8 — clients without a parameter list get all.
        """
        from ...net.dhcp_msg import OPT_PARAM_REQUEST

        wanted = None
        if request is not None:
            raw = request.options.get(OPT_PARAM_REQUEST)
            if raw:
                wanted = set(raw)
        if wanted is None or OPT_SUBNET_MASK in wanted:
            reply.options[OPT_SUBNET_MASK] = lease.allocation.netmask.packed
        if wanted is None or OPT_ROUTER in wanted:
            reply.set_option_ip(OPT_ROUTER, lease.gateway)
        # DNS points at the device's gateway: the router's DNS proxy.
        if wanted is None or OPT_DNS_SERVER in wanted:
            reply.set_option_ip(OPT_DNS_SERVER, lease.gateway)
        reply.set_option_u32(OPT_LEASE_TIME, int(self.config.lease_time))

    def _send_reply(self, reply: DHCPMessage, in_port: int, ctx=None) -> None:
        # Replies go link-layer unicast to the client MAC but IP broadcast
        # (the client has no address yet), matching common server practice.
        src = int(self.server_id)
        dst = int(IPv4Address.broadcast())
        datagram = udp_datagram(src, dst, PORT_DHCP_SERVER, PORT_DHCP_CLIENT, reply.pack())
        frame = ethernet_frame(
            reply.chaddr.packed,
            self.config.router_mac.packed,
            ETH_TYPE_IPV4,
            ipv4_packet(src, dst, PROTO_UDP, datagram),
        )
        # The reply is fresh bytes continuing the request's lineage.
        self.controller.send_packet(with_trace(frame, ctx), output(in_port))
