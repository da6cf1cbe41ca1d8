"""The Homework router: the whole of paper Figure 5 in one object.

Assembles the software stack of the paper's small-form-factor home
router: the Open vSwitch-style datapath (``dp0``), the NOX controller
with the DHCP server / DNS proxy / routing / control API components, the
hwdb measurement database with its collectors and RPC server, the policy
engine and the udev USB monitor — all on one discrete-event simulator.

Typical use::

    sim = Simulator(seed=1)
    router = HomeworkRouter(sim)
    laptop = router.add_device("toms-air", "02:aa:00:00:00:01", wireless=True)
    router.start()
    laptop.start_dhcp()          # pending until permitted
    router.control_api.request("POST", f"/devices/{laptop.mac}/permit")
    sim.run_for(10)
"""

from __future__ import annotations

import logging
import tempfile
from typing import Dict, List, Optional, Tuple, Union

from ..hwdb.database import HomeworkDatabase
from ..hwdb.rpc import HwdbClient, LocalTransport, RpcServer
from ..hwdb.schema import install_standard_schema
from ..measurement.aggregator import BandwidthAggregator
from ..measurement.collectors import FlowCollector, LeaseCollector, LinkCollector
from ..net.addresses import IPv4Address, MACAddress
from ..nox.controller import Controller
from ..obs import MetricsFlusher, MetricsRegistry, Tracer
from ..openflow.channel import SecureChannel
from ..openflow.datapath import Datapath
from ..policy.engine import PolicyEngine
from ..services.control_api.api import ControlApi
from ..services.dhcp.server import DhcpServer
from ..services.dnsproxy.proxy import DnsProxy
from ..services.dnsproxy.upstream import UpstreamResolver
from ..services.routing import RouterCore
from ..services.udev.monitor import UdevMonitor
from ..sim.host import Host
from ..sim.link import Link, WirelessLink
from ..sim.simulator import Simulator
from ..sim.upstream import InternetCloud
from ..sim.wireless import RadioEnvironment
from ..store import DurableStore
from .config import RouterConfig
from .errors import ConfigError

logger = logging.getLogger(__name__)


class HomeworkRouter:
    """Facade wiring every subsystem of the reproduction together."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[RouterConfig] = None,
        cloud: Optional[InternetCloud] = None,
        channel_latency: float = 0.0005,
        radio: Optional[RadioEnvironment] = None,
    ):
        self.sim = sim
        self.config = config or RouterConfig()
        self.bus = sim.bus

        # --- telemetry (obs subsystem) ---------------------------------------
        # Created first: every subsystem below reports into it.
        self.metrics = MetricsRegistry()
        # The packet-lineage flight recorder (DESIGN.md §16).  Hosts mint
        # contexts from it at frame TX; everything downstream reads the
        # context off the frame itself, so only the edges need wiring.
        self.tracer = Tracer(
            clock=sim.clock.now,
            sample=self.config.trace_sample,
            enabled=self.config.trace_enabled,
            buffer=self.config.trace_buffer,
            registry=self.metrics,
        )

        # --- datapath + secure channel + NOX --------------------------------
        self.datapath = Datapath(sim, datapath_id=1, name="dp0", registry=self.metrics)
        self.channel = SecureChannel(sim, latency=channel_latency)
        self.controller = Controller(sim, registry=self.metrics)
        self.channel.connect(self.datapath, self.controller.receive)
        self.controller.connect(self.channel)

        # --- upstream ---------------------------------------------------------
        self.cloud = cloud or InternetCloud(sim, ip=self.config.upstream_ip)
        # Return traffic gets its own lineage (NAT de-translation etc.).
        self.cloud.tracer = self.tracer
        upstream = self.datapath.add_port("upstream")
        self.upstream_port = upstream.number
        self.upstream_link = Link(
            sim, upstream, self.cloud.port, latency=0.005, bandwidth_bps=100e6
        )
        # The cloud routes everything back through the router.
        router_upstream_ip = IPv4Address(self.config.upstream_ip) + 1
        self.cloud.netmask = IPv4Address("255.255.255.252")
        self.cloud.gateway = router_upstream_ip

        # --- hwdb --------------------------------------------------------------
        self.db = HomeworkDatabase(
            sim.clock, self.config.hwdb_buffer_rows, registry=self.metrics
        )
        install_standard_schema(self.db)
        self.db.attach_scheduler(sim)
        # Optional durable tier under the rings.  Attaching it clears
        # the database's plan cache, so later compiles see the spill
        # hooks and route around incremental mode.
        self.store: Optional[DurableStore] = None
        self._store_tmp: Optional[tempfile.TemporaryDirectory] = None
        self._store_flush_timer = None
        if self.config.durable_store:
            if self.config.store_dir is None:
                self._store_tmp = tempfile.TemporaryDirectory(prefix="repro-store-")
                store_root = self._store_tmp.name
            else:
                store_root = self.config.store_dir
            self.store = DurableStore(
                store_root,
                sim.clock,
                flush_interval=self.config.store_flush_interval,
                group_records=self.config.store_group_records,
                segment_rows=self.config.store_segment_rows,
                fsync=self.config.store_fsync,
                registry=self.metrics,
            )
            self.store.attach(self.db)
        self.rpc_server = RpcServer(self.db, registry=self.metrics)
        self.aggregator = BandwidthAggregator(self.db)

        # Snapshots land in the hwdb Metrics table, queryable/subscribable
        # like Flows; port gauges refresh lazily at each flush.
        self.metrics_flusher = MetricsFlusher(
            self.db, self.metrics, interval=self.config.metrics_flush_interval
        )
        self.metrics_flusher.add_collector(self._collect_port_gauges)
        self.metrics_flusher.add_collector(self._publish_traces)

        # --- NOX components (paper's shaded boxes) ------------------------------
        self.dhcp: DhcpServer = self.controller.add_component(
            DhcpServer, config=self.config, bus=self.bus
        )
        self.upstream_resolver = UpstreamResolver(sim, zone=self.cloud)
        self.dns_proxy: DnsProxy = self.controller.add_component(
            DnsProxy,
            config=self.config,
            bus=self.bus,
            upstream=self.upstream_resolver,
            dhcp=self.dhcp,
        )
        self.router_core: RouterCore = self.controller.add_component(
            RouterCore,
            config=self.config,
            bus=self.bus,
            dhcp=self.dhcp,
            dns_proxy=self.dns_proxy,
            upstream_port=self.upstream_port,
            upstream_mac=self.cloud.mac,
        )
        self.policy_engine = PolicyEngine(
            self.bus,
            dhcp=self.dhcp,
            site_filter=self.dns_proxy.filter,
            router_core=self.router_core,
        )
        self.control_api: ControlApi = self.controller.add_component(
            ControlApi,
            config=self.config,
            bus=self.bus,
            dhcp=self.dhcp,
            dns_proxy=self.dns_proxy,
            policy_engine=self.policy_engine,
            router_core=self.router_core,
            hwdb=self.db,
        )
        self.udev = UdevMonitor(self.control_api, self.bus)
        # Lets the deny-verdict hop name the policy documents behind it.
        self.router_core.policy_engine = self.policy_engine

        # --- measurement plane ------------------------------------------------
        self.flow_collector = FlowCollector(
            sim, self.controller, self.db, interval=self.config.flow_poll_interval
        )
        self.link_collector = LinkCollector(sim, self.db, interval=1.0)
        self.lease_collector = LeaseCollector(self.bus, self.db)

        # --- wireless environment ----------------------------------------------
        self.radio = radio or RadioEnvironment(ap_position=(0.0, 0.0))

        self._devices: Dict[str, Host] = {}
        self._device_links: Dict[str, Link] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Device management
    # ------------------------------------------------------------------

    def add_device(
        self,
        name: str,
        mac: Union[str, MACAddress],
        wireless: bool = False,
        position: Optional[Tuple[float, float]] = None,
        device_class: str = "generic",
        bandwidth_bps: Optional[float] = None,
    ) -> Host:
        """Attach a household device to the router.

        Wireless devices get a :class:`WirelessLink` whose RSSI tracks
        their ``position`` in the radio environment; wired devices get a
        gigabit :class:`Link`.
        """
        if name in self._devices:
            raise ConfigError(f"device {name!r} already attached")
        host = Host(self.sim, name, mac, device_class=device_class)
        port = self.datapath.add_port(name)
        if wireless:
            link: Link = WirelessLink(
                self.sim,
                host.port,
                port,
                bandwidth_bps=bandwidth_bps or 54e6,
            )
            self.radio.register(name, link, position or (5.0, 5.0))
        else:
            link = Link(
                self.sim, host.port, port, bandwidth_bps=bandwidth_bps or 1e9
            )
        host.tracer = self.tracer
        self._devices[name] = host
        self._device_links[name] = link
        self.link_collector.register(host.mac, link)
        return host

    def device(self, name: str) -> Host:
        return self._devices[name]

    def devices(self) -> List[Host]:
        return list(self._devices.values())

    def device_link(self, name: str) -> Link:
        return self._device_links[name]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic work: flow expiry, collectors."""
        if self._started:
            return
        self._started = True
        self.datapath.start_expiry(interval=1.0)
        self.flow_collector.start()
        self.link_collector.start()
        self.metrics_flusher.start(self.sim)
        self.policy_engine.start_scheduler(self.sim, interval=30.0)
        if self.store is not None:
            # Group commit needs a heartbeat: appends only check the
            # clock when they happen, so an idle table's tail would sit
            # unflushed forever without this.
            self._store_flush_timer = self.sim.schedule_periodic(
                self.config.store_flush_interval, self.store.flush
            )

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        self.flow_collector.stop()
        self.link_collector.stop()
        self.metrics_flusher.stop()
        self.policy_engine.stop_scheduler()
        if self._store_flush_timer is not None:
            self._store_flush_timer.cancel()
            self._store_flush_timer = None
        if self.store is not None:
            self.store.flush()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _collect_port_gauges(self) -> None:
        """Refresh per-port byte/packet gauges from the datapath.

        Runs at metrics-flush time, not per packet: byte totals are
        already accumulated on the ports, so a snapshot is pure reads.
        """
        for number, port in self.datapath.ports().items():
            base = f"router.port.{number}"
            self.metrics.gauge(f"{base}.rx_bytes").set(port.rx_bytes)
            self.metrics.gauge(f"{base}.tx_bytes").set(port.tx_bytes)
            self.metrics.gauge(f"{base}.rx_packets").set(port.rx_packets)
            self.metrics.gauge(f"{base}.tx_packets").set(port.tx_packets)
        self.metrics.gauge("openflow.cache_entries").set(self.datapath.cache_len())
        self.metrics.gauge("openflow.flow_table_entries").set(len(self.datapath.table))

    def _publish_traces(self) -> None:
        """Drain finished lineages into the hwdb Traces stream table.

        Rides the metrics flusher so lineage is queryable/subscribable
        like every other table.  Publication is gated separately from
        tracing itself: the fuzzer traces in memory with publication off
        so hwdb insert counts (and hence run digests) never move.
        """
        if not self.tracer.enabled or not self.tracer.publish_enabled:
            return
        for row in self.tracer.export_rows():
            self.db.insert("traces", row)

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    def hwdb_client(self) -> HwdbClient:
        """A new in-process client for the hwdb RPC (what UIs use)."""
        return HwdbClient(LocalTransport(self.rpc_server))

    def enable_rpc_gateway(self) -> IPv4Address:
        """Expose hwdb's RPC on real UDP through the datapath.

        Attaches an internal management station ("hwdbd") to a dedicated
        datapath port with a pre-bound lease, and binds the RPC server to
        its UDP port 987.  Returns the address satellite devices dial —
        the paper's actual transport for the iPhone/Arduino interfaces.
        """
        if getattr(self, "rpc_gateway", None) is not None:
            return self._rpc_gateway_ip
        from ..hwdb.udp_gateway import HwdbUdpGateway

        mgmt = Host(self.sim, "hwdbd", "02:00:00:00:00:02", device_class="infrastructure")
        port = self.datapath.add_port("mgmt")
        Link(self.sim, mgmt.port, port, latency=0.0001, bandwidth_bps=1e9)
        allocation = self.dhcp.pool.allocate(mgmt.mac)
        self.dhcp.policy.permit(mgmt.mac, self.sim.now)
        self.dhcp.leases.offer(
            mgmt.mac, allocation, "hwdbd", self.sim.now, lease_time=1e12
        )
        self.dhcp.leases.bind(mgmt.mac, self.sim.now, lease_time=1e12)
        mgmt.configure_static(
            allocation.ip, allocation.netmask, gateway=allocation.gateway
        )
        self.router_core.mac_to_port[mgmt.mac] = port.number
        self.rpc_gateway = HwdbUdpGateway(mgmt, self.rpc_server)
        self._rpc_gateway_ip = allocation.ip
        return allocation.ip

    def permit(self, device: Union[str, Host, MACAddress]) -> None:
        """Shorthand for the control-API permit call."""
        mac = self._mac_of(device)
        self.control_api.request("POST", f"/devices/{mac}/permit")

    def deny(self, device: Union[str, Host, MACAddress]) -> None:
        mac = self._mac_of(device)
        self.control_api.request("POST", f"/devices/{mac}/deny")

    def _mac_of(self, device: Union[str, Host, MACAddress]) -> MACAddress:
        if isinstance(device, Host):
            return device.mac
        if isinstance(device, str) and device in self._devices:
            return self._devices[device].mac
        return MACAddress(device)

    def stats(self) -> Dict[str, object]:
        """A status snapshot across subsystems."""
        return {
            "time": self.sim.now,
            "datapath": {
                "flows": len(self.datapath.table),
                "cache": self.datapath.cache_len(),
                "cache_hits": self.datapath.cache_hits,
                "table_hits": self.datapath.table_hits,
                "misses": self.datapath.misses,
            },
            "dhcp": {
                "discovers": self.dhcp.discovers,
                "offers": self.dhcp.offers,
                "acks": self.dhcp.acks,
                "naks": self.dhcp.naks,
                "withheld": self.dhcp.withheld,
                "leases": len(self.dhcp.leases),
            },
            "dns": {
                "queries": self.dns_proxy.queries_seen,
                "blocked": self.dns_proxy.queries_blocked,
                "cache_answers": self.dns_proxy.cache_answers,
                "flow_checks": self.dns_proxy.flow_checks,
                "flow_blocks": self.dns_proxy.flow_blocks,
            },
            "routing": {
                "flows_installed": self.router_core.flows_installed,
                "flows_blocked": self.router_core.flows_blocked,
                "arp_replies": self.router_core.arp_replies,
            },
            "hwdb": self.db.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"HomeworkRouter(devices={len(self._devices)}, "
            f"flows={len(self.datapath.table)}, started={self._started})"
        )
