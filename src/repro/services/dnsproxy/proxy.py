"""The DNS proxy NOX component.

"The second intercepts outgoing DNS requests, performing reverse lookups
on flows not matching previously requested names, to ensure that upstream
communication is only allowed between permitted devices and sites."

Interception: DNS packets always arrive as packet-ins (the routing
component never installs flows for UDP/53), this component parses the
query, applies the per-device :class:`SiteFilter`, and answers directly —
from cache, from upstream, or with NXDOMAIN for blocked names.  The
routing component calls :meth:`check_flow` before admitting a new
upstream flow; an address the device never resolved triggers a reverse
lookup and a fresh filter decision.
"""

from __future__ import annotations

import logging
from typing import Optional, TYPE_CHECKING

from ...core.config import RouterConfig
from ...core.events import EventBus
from ...net.addresses import IPv4Address, MACAddress
from ...net.dns_msg import (
    DNSMessage,
    DNSRecord,
    RCODE_NXDOMAIN,
    RCODE_REFUSED,
    TYPE_A,
)
from ...net.ethernet import ETH_TYPE_IPV4, ethernet_frame
from ...net.ipv4 import PROTO_UDP, ipv4_packet
from ...net.packet import PacketError
from ...net.rewrite import FlowKeyTuple, read_frame
from ...net.trace import trace_of, with_trace
from ...net.udp import PORT_DNS, udp_datagram
from ...nox.component import CONTINUE, Component, STOP
from ...nox.controller import EV_PACKET_IN
from ...openflow.actions import output
from ...openflow.messages import PacketIn
from .cache import DnsCache, RequestedNames
from .filter import SiteFilter
from .upstream import UpstreamResolver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dhcp.server import DhcpServer

logger = logging.getLogger(__name__)

FLOW_ALLOWED = "allowed"
FLOW_BLOCKED = "blocked"


class DnsProxy(Component):
    """The paper's DNS proxy module."""

    name = "dns_proxy"

    def __init__(
        self,
        controller,
        config: RouterConfig,
        bus: EventBus,
        upstream: UpstreamResolver,
        dhcp: "DhcpServer",
        site_filter: Optional[SiteFilter] = None,
        cache_ttl: float = 300.0,
    ):
        super().__init__(controller)
        self.config = config
        self.bus = bus
        self.upstream = upstream
        self.dhcp = dhcp
        self.filter = site_filter or SiteFilter()
        self.cache = DnsCache(default_ttl=cache_ttl)
        self.requested = RequestedNames()

        registry = controller.registry
        self._m_queries = registry.counter("dnsproxy.query_total")
        self._m_blocked = registry.counter("dnsproxy.blocked_total")
        self._m_cache_hits = registry.counter("dnsproxy.cache_hit_total")
        self._m_cache_misses = registry.counter("dnsproxy.cache_miss_total")
        self._m_upstream_answers = registry.counter("dnsproxy.upstream_answer_total")
        self._m_nxdomain = registry.counter("dnsproxy.nxdomain_total")
        self._m_flow_checks = registry.counter("dnsproxy.flow_check_total")
        self._m_flow_blocks = registry.counter("dnsproxy.flow_block_total")
        self._m_upstream_lat = registry.histogram("dnsproxy.upstream_sim_seconds")

    # Read-only view of a registry counter that benchmarks/e2e/bench.py
    # reads by attribute name.
    @property
    def queries_seen(self) -> int:
        return self._m_queries.value

    def install(self) -> None:
        # Priority 50: after DHCP (10), before routing (100).
        self.register_handler(EV_PACKET_IN, self.handle_packet_in, priority=50)

    # ------------------------------------------------------------------
    # Query interception
    # ------------------------------------------------------------------

    def handle_packet_in(self, msg: PacketIn) -> int:
        key = msg.key
        if key is None:
            return CONTINUE
        *_, nw_proto, _tp_src, tp_dst = key
        if nw_proto != PROTO_UDP or tp_dst != PORT_DNS:
            return CONTINUE
        # The key names a UDP header, so the payload read is the datagram's.
        try:
            query = DNSMessage.unpack(read_frame(msg.data)[6])
        except PacketError:
            return STOP  # malformed DNS to us: swallow
        if query.is_response or not query.questions:
            return STOP
        self._m_queries.inc()
        ctx = trace_of(msg.data)
        if ctx is not None:
            ctx.hop("dns", "query", cause=f"name={query.qname or ''}")
        self._answer(query, key, msg.in_port, ctx)
        return STOP

    def _answer(
        self, query: DNSMessage, key: FlowKeyTuple, in_port: int, ctx=None
    ) -> None:
        name = query.qname or ""
        _in_port, dl_src, _dl_dst, _dl_type, nw_src, *_ = key
        device_ip = IPv4Address(nw_src)
        device_mac = MACAddress(dl_src)
        question = query.questions[0]

        if not self.filter.permits(device_mac, name):
            self._m_blocked.inc()
            self._m_nxdomain.inc()
            if ctx is not None:
                # A filter denial is bad news: publish regardless of
                # sampling, like any drop.
                ctx.force()
                ctx.hop("dns", "answer", decision="blocked", cause=f"name={name}")
            self._emit(device_ip, name, None, allowed=False)
            self._reply(query.respond(rcode=RCODE_NXDOMAIN), key, in_port, ctx)
            return

        if question.qtype != TYPE_A:
            if ctx is not None:
                ctx.hop("dns", "answer", decision="refused", cause=f"qtype={question.qtype}")
            self._reply(query.respond(rcode=RCODE_REFUSED), key, in_port, ctx)
            return

        cached = self.cache.get(name, self.now)
        if cached is not None:
            self._m_cache_hits.inc()
            if ctx is not None:
                ctx.hop(
                    "dns", "answer", decision="cache", cause=f"name={name} ip={cached}"
                )
            self._finish(query, key, in_port, device_ip, name, cached, ctx)
            return

        self._m_cache_misses.inc()
        asked_at = self.now

        def resolved(address: Optional[IPv4Address]) -> None:
            self._m_upstream_lat.observe(self.now - asked_at)
            if address is None:
                self._m_nxdomain.inc()
                if ctx is not None:
                    ctx.hop(
                        "dns", "answer", decision="nxdomain", cause=f"name={name}"
                    )
                self._emit(device_ip, name, None, allowed=True)
                self._reply(query.respond(rcode=RCODE_NXDOMAIN), key, in_port, ctx)
                return
            self._m_upstream_answers.inc()
            self.cache.put(name, address, self.now)
            if ctx is not None:
                ctx.hop(
                    "dns",
                    "answer",
                    decision="upstream",
                    cause=f"name={name} ip={address}",
                )
            self._finish(query, key, in_port, device_ip, name, address, ctx)

        self.upstream.resolve(name, resolved)

    def _finish(
        self,
        query: DNSMessage,
        key: FlowKeyTuple,
        in_port: int,
        device_ip: IPv4Address,
        name: str,
        address: IPv4Address,
        ctx=None,
    ) -> None:
        # Remember the binding: this device may now open flows to address.
        self.requested.record(device_ip, name, address, self.now)
        self._emit(device_ip, name, address, allowed=True)
        response = query.respond([DNSRecord.a(name, address)])
        self._reply(response, key, in_port, ctx)

    def _reply(
        self, response: DNSMessage, key: FlowKeyTuple, in_port: int, ctx=None
    ) -> None:
        """Answer the query ``key`` names: from the address and to the
        port it was sent to, back to the MAC and port it came from."""
        _in_port, dl_src, _dl_dst, _dl_type, nw_src, nw_dst, _proto, tp_src, _tp_dst = key
        datagram = udp_datagram(nw_dst, nw_src, PORT_DNS, tp_src, response.pack())
        reply_frame = ethernet_frame(
            dl_src.to_bytes(6, "big"),
            self.config.router_mac.packed,
            ETH_TYPE_IPV4,
            ipv4_packet(nw_dst, nw_src, PROTO_UDP, datagram),
        )
        # The reply is fresh bytes carrying the query's lineage: the
        # trace ends when the asking host receives it.
        self.controller.send_packet(with_trace(reply_frame, ctx), output(in_port))

    def _emit(
        self,
        device_ip: IPv4Address,
        name: str,
        address: Optional[IPv4Address],
        allowed: bool,
    ) -> None:
        self.bus.emit(
            "dns.query",
            timestamp=self.now,
            device_ip=str(device_ip),
            name=name,
            resolved_ip=str(address) if address is not None else "0.0.0.0",
            allowed=allowed,
        )

    # ------------------------------------------------------------------
    # Flow admission (called by the routing component)
    # ------------------------------------------------------------------

    def check_flow(self, device_ip, dst_ip) -> str:
        """Admit or block a new upstream flow from ``device_ip`` to ``dst_ip``.

        Allowed when the destination matches a name the device previously
        resolved through us; otherwise reverse-look-up the destination and
        re-apply the site filter — the paper's enforcement mechanism.
        """
        self._m_flow_checks.inc()
        device_ip = IPv4Address(device_ip)
        dst_ip = IPv4Address(dst_ip)

        lease = self.dhcp.leases.by_ip(device_ip)
        mac: Optional[MACAddress] = lease.mac if lease is not None else None

        name = self.requested.lookup(device_ip, dst_ip, self.now)
        if name is not None:
            if self.filter.permits(mac, name):
                return FLOW_ALLOWED
            self._m_flow_blocks.inc()
            return FLOW_BLOCKED

        # Flow does not match a previously requested name: reverse lookup.
        reverse_name = self.upstream.reverse(dst_ip)
        if reverse_name is None:
            # Unknown destination: deny-by-default only for whitelisted
            # devices; allow-mode devices may reach unnamed services.
            rule = self.filter.rule_for(mac)
            if rule.mode == "deny":
                self._m_flow_blocks.inc()
                return FLOW_BLOCKED
            return FLOW_ALLOWED
        if self.filter.permits(mac, reverse_name):
            self.requested.record(device_ip, reverse_name, dst_ip, self.now)
            return FLOW_ALLOWED
        self._m_flow_blocks.inc()
        self.bus.emit(
            "dns.flow.blocked",
            timestamp=self.now,
            device_ip=str(device_ip),
            dst_ip=str(dst_ip),
            name=reverse_name,
        )
        return FLOW_BLOCKED
