"""The routing/switching NOX component of the Homework router.

Runs last in the packet-in chain (after the DHCP server and DNS proxy
have consumed their traffic).  Implements:

* **proxy ARP** — the router answers every ARP request with its own MAC,
  so devices on their isolated /30s only ever talk to the router;
* **reactive flow setup** — first packet of a flow is routed here and an
  exact-match flow with MAC rewriting is installed on the datapath;
* **policy enforcement** — denied devices get drop flows; new upstream
  flows are admitted through the DNS proxy's requested-names check;
* **router liveness** — answers ICMP echo addressed to any of its
  gateway addresses.
"""

from __future__ import annotations

import logging
from typing import Dict, Optional, TYPE_CHECKING

from ..core.config import RouterConfig
from ..core.events import EventBus
from ..net.addresses import IPv4Address, MACAddress
from ..net.arp import ARP_REPLY, ARP_REQUEST, arp_packet
from ..net.ethernet import ETH_TYPE_ARP, ETH_TYPE_IPV4, ethernet_frame
from ..net.icmp import TYPE_ECHO_REPLY, TYPE_ECHO_REQUEST, icmp_echo
from ..net.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, ipv4_packet
from ..net.rewrite import FlowKeyTuple, read_arp, read_frame
from ..net.trace import trace_of, with_trace
from ..nox.component import CONTINUE, Component, STOP
from ..nox.controller import EV_PACKET_IN
from ..openflow.actions import (
    SetDlDst,
    SetDlSrc,
    SetNwDst,
    SetNwSrc,
    SetTpDst,
    SetTpSrc,
    Output,
    drop,
    output,
    route_rewrite,
)
from ..openflow.match import Match
from ..openflow.messages import NO_BUFFER, PacketIn
from .dnsproxy.proxy import DnsProxy, FLOW_BLOCKED
from .nat import NatTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dhcp.server import DhcpServer

logger = logging.getLogger(__name__)

#: Priority for drop rules so they beat the forwarding rules.
DROP_PRIORITY = 0x9000


class RouterCore(Component):
    """Reactive router: ARP, forwarding, and per-flow policy."""

    name = "router_core"

    def __init__(
        self,
        controller,
        config: RouterConfig,
        bus: EventBus,
        dhcp: "DhcpServer",
        dns_proxy: Optional[DnsProxy],
        upstream_port: int,
        upstream_mac: MACAddress,
    ):
        super().__init__(controller)
        self.config = config
        self.bus = bus
        self.dhcp = dhcp
        self.dns_proxy = dns_proxy
        self.upstream_port = upstream_port
        self.upstream_mac = MACAddress(upstream_mac)
        self.mac_to_port: Dict[MACAddress, int] = {}
        self.router_upstream_ip = IPv4Address(config.upstream_ip) + 1
        self.nat: Optional[NatTable] = (
            NatTable(self.router_upstream_ip, idle_timeout=config.nat_idle_timeout)
            if config.nat_enabled
            else None
        )

        # Injected by HomeworkRouter so deny-verdict trace hops can
        # name the policy documents behind the denial.
        self.policy_engine = None

        registry = controller.registry
        self._m_arp_replies = registry.counter("routing.arp_reply_total")
        self._m_flows_installed = registry.counter("routing.flow_install_total")
        self._m_flows_blocked = registry.counter("routing.flow_block_total")
        self._m_echo_replies = registry.counter("routing.echo_reply_total")
        self._m_drops = registry.counter("routing.drop_total")
        self._nat_sweep_timer = None

    def install(self) -> None:
        # Learning runs first (and never consumes) so device ports are
        # known even when another component (DHCP, DNS) eats the event.
        self.register_handler(EV_PACKET_IN, self.learn_port, priority=1)
        self.register_handler(EV_PACKET_IN, self.handle_packet_in, priority=100)
        if self.nat is not None:
            # Conntrack-style garbage collection: idle bindings would
            # otherwise pin external ports forever and exhaust the range.
            self._nat_sweep_timer = self.sim.schedule_periodic(
                self.nat.idle_timeout / 2, self._sweep_nat
            )

    def uninstall(self) -> None:
        super().uninstall()
        if self._nat_sweep_timer is not None:
            self._nat_sweep_timer.cancel()
            self._nat_sweep_timer = None

    def _sweep_nat(self) -> None:
        assert self.nat is not None
        for binding in self.nat.expire_due(self.now):
            logger.debug("NAT binding expired: %r", binding)

    def learn_port(self, msg: PacketIn) -> int:
        key = msg.key
        if key is not None:
            _in_port, dl_src, *_ = key
            # The group bit marks broadcast and multicast sources alike.
            if not dl_src >> 40 & 1:
                self.mac_to_port[MACAddress(dl_src)] = msg.in_port
        return CONTINUE

    # ------------------------------------------------------------------
    # Packet-in dispatch
    # ------------------------------------------------------------------

    def handle_packet_in(self, msg: PacketIn) -> int:
        key = msg.key
        if key is None:
            return CONTINUE
        _in_port, _dl_src, _dl_dst, dl_type, *_ = key
        if dl_type == ETH_TYPE_ARP:
            self._handle_arp(msg, key)
            return STOP
        if dl_type == ETH_TYPE_IPV4:
            self._handle_ipv4(msg, key)
            return STOP
        # Non-IP, non-ARP traffic is dropped on the home network.
        self._m_drops.inc()
        return STOP

    # ------------------------------------------------------------------
    # Proxy ARP
    # ------------------------------------------------------------------

    def _handle_arp(self, msg: PacketIn, key: FlowKeyTuple) -> None:
        # An ARP key carries the opcode as nw_proto, None unless the
        # packet passes read_arp's test, so a request's fields are there.
        *_, opcode, _tp_src, _tp_dst = key
        if opcode != ARP_REQUEST:
            return
        _opcode, sender_mac, sender_ip, target_ip = read_arp(msg.data)
        # The router answers for every address: devices must never reach
        # each other at Ethernet layer, and the upstream cloud reaches us.
        router_mac = self.config.router_mac.packed
        reply = arp_packet(ARP_REPLY, router_mac, target_ip, sender_mac, sender_ip)
        reply_frame = ethernet_frame(sender_mac, router_mac, ETH_TYPE_ARP, reply)
        self._m_arp_replies.inc()
        ctx = trace_of(msg.data)
        if ctx is not None:
            ctx.hop("router", "arp_reply", cause=f"target={IPv4Address(target_ip)}")
        self.controller.send_packet(with_trace(reply_frame, ctx), output(msg.in_port))

    # ------------------------------------------------------------------
    # IPv4 forwarding
    # ------------------------------------------------------------------

    def _is_router_address(self, ip: IPv4Address) -> bool:
        if ip == self.config.router_ip or ip == self.router_upstream_ip:
            return True
        is_gateway = getattr(self.dhcp.pool, "is_gateway", None)
        return bool(is_gateway and is_gateway(ip))

    def _policy_cause(self, mac) -> str:
        """Name the policy documents restricting ``mac`` (trace detail)."""
        if self.policy_engine is None:
            return ""
        restrictions = self.policy_engine.restrictions_for(mac, self.now)
        if not restrictions.source_policies:
            return ""
        return " policies=" + ",".join(
            str(pid) for pid in restrictions.source_policies
        )

    def _handle_ipv4(self, msg: PacketIn, key: FlowKeyTuple) -> None:
        _in_port, _dl_src, _dl_dst, _dl_type, nw_src, nw_dst, nw_proto, *_ = key
        ctx = trace_of(msg.data)
        if nw_src is None or nw_dst is None:
            self._m_drops.inc()
            if ctx is not None:
                ctx.finish("router", "drop", decision="drop", cause="no_addresses")
            return
        src_ip = IPv4Address(nw_src)
        dst_ip = IPv4Address(nw_dst)

        # Policy: denied devices get an explicit drop flow.
        src_lease = self.dhcp.leases.by_ip(src_ip)
        if src_lease is not None and not self.dhcp.policy.is_permitted(src_lease.mac):
            if ctx is not None:
                ctx.hop(
                    "policy",
                    "verdict",
                    decision="deny",
                    cause=f"device_denied mac={src_lease.mac}"
                    + self._policy_cause(src_lease.mac),
                )
            self._install_drop(msg, key, reason="device_denied")
            return
        if src_lease is not None and ctx is not None:
            ctx.hop(
                "policy", "verdict", decision="permit", cause=f"mac={src_lease.mac}"
            )

        if dst_ip.is_broadcast or dst_ip.is_multicast:
            self._m_drops.inc()
            if ctx is not None:
                ctx.finish("router", "drop", decision="drop", cause="broadcast_dst")
            return

        if self._is_router_address(dst_ip):
            self._handle_local(msg, key)
            return

        dst_lease = self.dhcp.leases.by_ip(dst_ip)
        if dst_lease is not None and dst_lease.active(self.now):
            out_port = self.mac_to_port.get(dst_lease.mac)
            if out_port is None:
                self._m_drops.inc()
                if ctx is not None:
                    ctx.finish(
                        "router", "drop", decision="drop", cause="dst_port_unknown"
                    )
                return
            self._install_route(msg, key, dst_lease.mac, out_port)
            return

        # Upstream flow: packets from local devices are vetted through
        # the DNS proxy's requested-names/reverse-lookup check.
        if msg.in_port != self.upstream_port:
            if self.dns_proxy is not None:
                verdict = self.dns_proxy.check_flow(src_ip, dst_ip)
                if verdict == FLOW_BLOCKED:
                    if ctx is not None:
                        ctx.hop(
                            "dns",
                            "flow_check",
                            decision="blocked",
                            cause=f"dst={dst_ip}",
                        )
                    self._install_drop(msg, key, reason="site_blocked")
                    return
                if ctx is not None:
                    ctx.hop(
                        "dns", "flow_check", decision="allowed", cause=f"dst={dst_ip}"
                    )
            if self.nat is not None and nw_proto in (PROTO_TCP, PROTO_UDP):
                self._install_nat_route(msg, key)
            else:
                self._install_route(msg, key, self.upstream_mac, self.upstream_port)
            return

        # Arrived from upstream for an address we no longer lease: drop.
        self._m_drops.inc()
        if ctx is not None:
            ctx.finish("router", "drop", decision="drop", cause="no_lease_for_dst")

    # ------------------------------------------------------------------
    # Source NAT (optional extension; RouterConfig(nat_enabled=True))
    # ------------------------------------------------------------------

    def _install_nat_route(self, msg: PacketIn, key: FlowKeyTuple) -> None:
        """Masquerade an outbound flow and pre-install its reverse rule."""
        assert self.nat is not None
        _in_port, dl_src, _dl_dst, _dl_type, nw_src, _nw_dst, nw_proto, tp_src, _ = key
        binding = self.nat.bind(nw_proto, nw_src, tp_src or 0, self.now)
        ctx = trace_of(msg.data)
        if ctx is not None:
            ctx.hop(
                "nat",
                "translate",
                decision="bind",
                cause=(
                    f"{binding.device_ip}:{binding.device_port}"
                    f"->{self.nat.external_ip}:{binding.external_port}"
                ),
            )
            ctx.hop(
                "router",
                "flow_install",
                decision="forward",
                cause=f"out_port={self.upstream_port} nat=true",
            )
        forward = [
            SetNwSrc(self.nat.external_ip),
            SetTpSrc(binding.external_port),
            SetDlSrc(self.config.router_mac),
            SetDlDst(self.upstream_mac),
            Output(self.upstream_port),
        ]
        self._m_flows_installed.inc()
        self.controller.install_flow(
            Match.from_key(key),
            forward,
            idle_timeout=self.config.flow_idle_timeout,
            buffer_id=msg.buffer_id,
            send_flow_removed=True,
        )
        if msg.buffer_id == NO_BUFFER:
            self.controller.send_packet(msg.data, forward, in_port=msg.in_port)

        device_mac = MACAddress(dl_src)
        device_port = self.mac_to_port.get(device_mac)
        if device_port is None:
            return
        reverse_match = Match(
            in_port=self.upstream_port,
            dl_type=ETH_TYPE_IPV4,
            nw_dst=self.nat.external_ip,
            nw_proto=nw_proto,
            tp_dst=binding.external_port,
        )
        reverse = [
            SetNwDst(binding.device_ip),
            SetTpDst(binding.device_port),
            SetDlSrc(self.config.router_mac),
            SetDlDst(device_mac),
            Output(device_port),
        ]
        self._m_flows_installed.inc()
        self.controller.install_flow(
            reverse_match,
            reverse,
            idle_timeout=self.config.flow_idle_timeout,
        )

    def _install_route(
        self, msg: PacketIn, key: FlowKeyTuple, dst_mac: MACAddress, out_port: int
    ) -> None:
        actions = route_rewrite(self.config.router_mac, dst_mac, out_port)
        ctx = trace_of(msg.data)
        if ctx is not None:
            ctx.hop(
                "router",
                "flow_install",
                decision="forward",
                cause=f"out_port={out_port} dst_mac={dst_mac}",
            )
        self._m_flows_installed.inc()
        self.controller.install_flow(
            Match.from_key(key),
            actions,
            idle_timeout=self.config.flow_idle_timeout,
            buffer_id=msg.buffer_id,
            send_flow_removed=True,
        )
        if msg.buffer_id == NO_BUFFER:
            self.controller.send_packet(msg.data, actions, in_port=msg.in_port)

    def _install_drop(self, msg: PacketIn, key: FlowKeyTuple, reason: str) -> None:
        _in_port, _dl_src, _dl_dst, _dl_type, nw_src, nw_dst, *_ = key
        ctx = trace_of(msg.data)
        if ctx is not None:
            # The packet dies in the datapath buffer (no packet-out) —
            # the deny verdict is the end of its lineage.
            ctx.finish("router", "drop", decision="drop", cause=reason)
        self._m_flows_blocked.inc()
        self.controller.install_flow(
            Match.from_key(key),
            drop(),
            priority=DROP_PRIORITY,
            idle_timeout=10.0,
        )
        self.bus.emit(
            "router.flow.blocked",
            timestamp=self.now,
            src_ip=str(IPv4Address(nw_src)),
            dst_ip=str(IPv4Address(nw_dst)),
            reason=reason,
        )

    # ------------------------------------------------------------------
    # Traffic addressed to the router itself
    # ------------------------------------------------------------------

    def _handle_local(self, msg: PacketIn, key: FlowKeyTuple) -> None:
        _in_port, dl_src, _dl_dst, _dl_type, nw_src, nw_dst, nw_proto, tp_src, tp_dst = key
        # A NAT return whose reverse rule expired: de-translate and
        # reinstall by replaying through the binding.
        if (
            self.nat is not None
            and msg.in_port == self.upstream_port
            and nw_dst == int(self.nat.external_ip)
            and nw_proto in (PROTO_TCP, PROTO_UDP)
        ):
            ctx = trace_of(msg.data)
            binding = self.nat.lookup_external(nw_proto, tp_dst or 0, self.now)
            if binding is not None:
                lease = self.dhcp.leases.by_ip(binding.device_ip)
                device_port = (
                    self.mac_to_port.get(lease.mac) if lease is not None else None
                )
                if lease is not None and device_port is not None:
                    if ctx is not None:
                        ctx.hop(
                            "nat",
                            "translate",
                            decision="restore",
                            cause=(
                                f"{self.nat.external_ip}:{binding.external_port}"
                                f"->{binding.device_ip}:{binding.device_port}"
                            ),
                        )
                    reverse = [
                        SetNwDst(binding.device_ip),
                        SetTpDst(binding.device_port),
                        SetDlSrc(self.config.router_mac),
                        SetDlDst(lease.mac),
                        Output(device_port),
                    ]
                    self._m_flows_installed.inc()
                    self.controller.install_flow(
                        Match.from_key(key),
                        reverse,
                        idle_timeout=self.config.flow_idle_timeout,
                        buffer_id=msg.buffer_id,
                    )
                    if msg.buffer_id == NO_BUFFER:
                        self.controller.send_packet(
                            msg.data, reverse, in_port=msg.in_port
                        )
                    return
            self._m_drops.inc()
            if ctx is not None:
                ctx.finish("nat", "expire", decision="drop", cause="nat_expired")
            return
        if nw_proto != PROTO_ICMP:
            # DHCP/DNS were consumed earlier in the chain; other local
            # traffic (e.g. the control API port) is out of band here.
            self._m_drops.inc()
            return
        # An ICMP key carries the type as tp_src, None unless the frame
        # holds a whole ICMP header.
        if tp_src != TYPE_ECHO_REQUEST:
            return
        _dl_dst, _dl_type, _src, _dst, _proto, transport, data = read_frame(msg.data)
        _type, _code, ident, seq = transport
        echo = icmp_echo(TYPE_ECHO_REPLY, ident, seq, data)
        reply_frame = ethernet_frame(
            dl_src.to_bytes(6, "big"),
            self.config.router_mac.packed,
            ETH_TYPE_IPV4,
            ipv4_packet(nw_dst, nw_src, PROTO_ICMP, echo),
        )
        self._m_echo_replies.inc()
        ctx = trace_of(msg.data)
        if ctx is not None:
            ctx.hop("router", "echo_reply", cause=f"ident={ident} seq={seq}")
        self.controller.send_packet(with_trace(reply_frame, ctx), output(msg.in_port))

    # ------------------------------------------------------------------
    # Control-plane hooks
    # ------------------------------------------------------------------

    def evict_device(self, mac) -> None:
        """Remove every flow involving ``mac`` (used on deny/revoke)."""
        mac = MACAddress(mac)
        self.controller.remove_flows(Match(dl_src=mac))
        self.controller.remove_flows(Match(dl_dst=mac))
