"""The Open vSwitch-style datapath (bridge ``dp0`` in paper Figure 5).

Two-tier lookup mirroring OVS's architecture:

* a **kernel fast path** — an exact-match microflow cache
  (``openvswitch_mod`` in the paper's stack), hit in O(1);
* a **userspace slow path** — the priority-ordered wildcard
  :class:`~repro.openflow.flow_table.FlowTable` (``ovs-vswitchd``).

A packet missing both tiers is punted over the secure channel to NOX as
a packet-in.  Flow-mods from the controller invalidate affected cache
entries; expired flows emit flow-removed messages.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..core.errors import DatapathError
from ..core.metrics import MetricsRegistry
from ..net.port import Port
from ..net.trace import trace_of, with_trace
from .actions import (
    ActionList,
    Output,
    PORT_ALL,
    PORT_CONTROLLER,
    PORT_FLOOD,
    PORT_IN_PORT,
    PORT_LOCAL,
    PORT_NONE,
    PORT_NORMAL,
    PORT_TABLE,
)
from .flow_table import FlowEntry, FlowTable, matching_keys
from .match import extract_key
from .messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FC_ADD,
    FC_DELETE,
    FC_DELETE_STRICT,
    FC_MODIFY,
    FC_MODIFY_STRICT,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    FlowStats,
    Hello,
    NO_BUFFER,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
    PortDescription,
    PortStats,
    PortStatus,
    PS_MODIFY,
    REASON_ACTION,
    REASON_NO_MATCH,
    RR_DELETE,
    RR_HARD_TIMEOUT,
    RR_IDLE_TIMEOUT,
    StatsReply,
    StatsRequest,
    STATS_FLOW,
    STATS_PORT,
    STATS_TABLE,
    TableStats,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulator import Simulator
    from .channel import SecureChannel

logger = logging.getLogger(__name__)

LocalHandler = Callable[[bytes, int], None]


class _CacheEntry:
    """One kernel microflow: resolved actions plus a backlink for counters."""

    __slots__ = ("entry", "actions")

    def __init__(self, entry: FlowEntry):
        self.entry = entry
        self.actions = entry.actions


class Datapath:
    """The switch: ports + flow table + secure channel endpoint."""

    def __init__(
        self,
        sim: "Simulator",
        datapath_id: int = 1,
        name: str = "dp0",
        cache_size: int = 8192,
        enable_cache: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.datapath_id = datapath_id
        self.name = name
        self.table = FlowTable()
        self.channel: Optional["SecureChannel"] = None
        self.local_handler: Optional[LocalHandler] = None

        self._ports: Dict[int, Port] = {}
        self._next_port = 1

        self.enable_cache = enable_cache
        self.cache_size = cache_size
        self._cache: Dict[Tuple, _CacheEntry] = {}

        self._buffers: Dict[int, Tuple[bytes, int]] = {}
        self._next_buffer_id = 1
        self.max_buffers = 256

        # Taps observe every frame entering the datapath (port mirroring
        # for the measurement plane, e.g. pcap capture).
        self.taps: List[Callable[[bytes, int], None]] = []

        # Statistics.  The lookup split (cache hit / table hit / miss)
        # is the two-tier design's headline ratio.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_packets = self.registry.counter("openflow.packet_total")
        self._m_cache_hits = self.registry.counter("openflow.cache_hit_total")
        self._m_table_hits = self.registry.counter("openflow.table_hit_total")
        self._m_misses = self.registry.counter("openflow.miss_total")
        self._m_punts = self.registry.counter("openflow.punt_total")
        self._m_flow_mods = self.registry.counter("openflow.flow_mod_received_total")

        # Telemetry: punt time per buffered packet-in, so the flow-mod
        # that answers it yields the packet_in→flow_mod round trip in
        # simulated seconds (secure-channel latency both ways + NOX).
        self._punt_times: Dict[int, float] = {}
        self._pending_echoes: Dict[int, bytes] = {}
        self._m_flow_setup = self.registry.histogram("openflow.flow_setup_sim_seconds")

        self._expiry_timer = None

    # Read-only views of registry counters that benchmarks/e2e/bench.py
    # reads by attribute name.
    @property
    def packets_processed(self) -> int:
        return self._m_packets.value

    @property
    def cache_hits(self) -> int:
        return self._m_cache_hits.value

    @property
    def misses(self) -> int:
        return self._m_misses.value

    @property
    def flow_mods_received(self) -> int:
        return self._m_flow_mods.value

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------

    def add_port(self, name: str, number: Optional[int] = None) -> Port:
        """Create and attach a numbered datapath port."""
        if number is None:
            number = self._next_port
        if number in self._ports:
            raise DatapathError(f"port {number} already exists on {self.name}")
        self._next_port = max(self._next_port, number + 1)
        port = Port(f"{self.name}.{name}", number)
        port.on_receive(self._on_frame)
        self._ports[number] = port
        return port

    def port(self, number: int) -> Port:
        try:
            return self._ports[number]
        except KeyError:
            raise DatapathError(f"no port {number} on {self.name}") from None

    def ports(self) -> Dict[int, Port]:
        return dict(self._ports)

    def port_descriptions(self) -> List[PortDescription]:
        return [
            PortDescription(number, port.name, up=port.up)
            for number, port in sorted(self._ports.items())
        ]

    # ------------------------------------------------------------------
    # Secure channel / controller side
    # ------------------------------------------------------------------

    def attach_channel(self, channel: "SecureChannel") -> None:
        self.channel = channel

    def probe_controller(self, data: bytes = b"") -> Optional[int]:
        """Send a liveness echo to the controller; the matching reply
        clears it, so a lingering xid means the control path is stuck."""
        if self.channel is None:
            return None
        request = EchoRequest(data)
        self._pending_echoes[request.xid] = data
        self.channel.to_controller(request)
        return request.xid

    def pending_echoes(self) -> List[int]:
        """Probe xids still awaiting a controller reply."""
        return sorted(self._pending_echoes)

    def set_port_state(self, number: int, up: bool) -> None:
        """Administratively flip a port and notify the controller.

        Models ``ifconfig ethX up/down`` on the router: the datapath
        keeps forwarding on its other ports and NOX learns about the
        change through a PORT_STATUS message.
        """
        try:
            port = self._ports[number]
        except KeyError:
            raise DatapathError(f"no port {number} on {self.name}") from None
        if port.up == up:
            return
        port.up = up
        if self.channel is not None:
            self.channel.to_controller(
                PortStatus(PS_MODIFY, PortDescription(number, port.name, up=up))
            )

    def start_expiry(self, interval: float = 1.0) -> None:
        """Begin periodic idle/hard timeout sweeps."""
        if self._expiry_timer is not None:
            self._expiry_timer.cancel()
        self._expiry_timer = self.sim.schedule_periodic(interval, self.expire_flows)

    def expire_flows(self) -> int:
        """Evict timed-out flows, emitting flow-removed where requested."""
        expired = self.table.expire(self.sim.now)
        for entry, reason in expired:
            self._invalidate_cache_for(entry)
            if entry.send_flow_removed and self.channel is not None:
                code = RR_IDLE_TIMEOUT if reason == "idle" else RR_HARD_TIMEOUT
                self.channel.to_controller(FlowRemoved.from_entry(entry, code))
        return len(expired)

    # SimulationError out of the reply sends is unreachable: the channel
    # latency it would come from is validated in SecureChannel.__init__.
    def handle_message(self, msg: OpenFlowMessage) -> None:  # repro: ignore[deep-except-escape]
        """Process one controller→switch protocol message."""
        if isinstance(msg, Hello):
            return
        if isinstance(msg, EchoRequest):
            self._reply(EchoReply(msg.data, xid=msg.xid))
        elif isinstance(msg, EchoReply):
            self._pending_echoes.pop(msg.xid, None)
        elif isinstance(msg, FeaturesRequest):
            self._reply(
                FeaturesReply(
                    self.datapath_id, self.port_descriptions(), xid=msg.xid
                )
            )
        elif isinstance(msg, FlowMod):
            self._handle_flow_mod(msg)
        elif isinstance(msg, PacketOut):
            self._handle_packet_out(msg)
        elif isinstance(msg, StatsRequest):
            self._handle_stats_request(msg)
        elif isinstance(msg, BarrierRequest):
            self._reply(BarrierReply(xid=msg.xid))
        else:
            self._reply(
                ErrorMessage("bad_request", type(msg).__name__, xid=msg.xid)
            )

    def _reply(self, msg: OpenFlowMessage) -> None:
        if self.channel is not None:
            self.channel.to_controller(msg)

    def _handle_flow_mod(self, mod: FlowMod) -> None:
        self._m_flow_mods.inc()
        if mod.command == FC_ADD:
            entry = FlowEntry(
                match=mod.match,
                actions=mod.actions,
                priority=mod.priority,
                idle_timeout=mod.idle_timeout,
                hard_timeout=mod.hard_timeout,
                cookie=mod.cookie,
                created_at=self.sim.now,
                send_flow_removed=mod.send_flow_removed,
            )
            try:
                self.table.add(entry, check_overlap=getattr(mod, "check_overlap", False))
            except DatapathError as exc:
                self._reply(ErrorMessage("overlap", str(exc), xid=mod.xid))
                return
            self._invalidate_cache_for(entry)
            if mod.buffer_id != NO_BUFFER:
                punted_at = self._punt_times.pop(mod.buffer_id, None)
                if punted_at is not None:
                    self._m_flow_setup.observe(self.sim.now - punted_at)
                self._release_buffer(mod.buffer_id, entry.actions, entry)
        elif mod.command in (FC_MODIFY, FC_MODIFY_STRICT):
            self.table.modify(
                mod.match,
                mod.actions,
                strict=(mod.command == FC_MODIFY_STRICT),
                priority=mod.priority,
            )
            self._cache.clear()
        elif mod.command in (FC_DELETE, FC_DELETE_STRICT):
            removed = self.table.delete(
                mod.match,
                strict=(mod.command == FC_DELETE_STRICT),
                priority=mod.priority,
                out_port=mod.out_port,
            )
            for entry in removed:
                self._invalidate_cache_for(entry)
                if entry.send_flow_removed and self.channel is not None:
                    self.channel.to_controller(
                        FlowRemoved.from_entry(entry, RR_DELETE)
                    )
        else:
            self._reply(ErrorMessage("bad_flow_mod", f"command={mod.command}"))

    def _handle_packet_out(self, msg: PacketOut) -> None:
        data = msg.data
        if msg.buffer_id != NO_BUFFER:
            self._punt_times.pop(msg.buffer_id, None)
            buffered = self._buffers.pop(msg.buffer_id, None)
            if buffered is None:
                self._reply(ErrorMessage("bad_buffer", str(msg.buffer_id)))
                return
            data = buffered[0]
        if not data:
            return
        self.apply_actions(data, msg.actions, in_port=msg.in_port)

    def _handle_stats_request(self, msg: StatsRequest) -> None:
        now = self.sim.now
        if msg.kind == STATS_FLOW:
            body = [
                FlowStats(entry, now)
                for entry in self.table
                if msg.match is None or _loose_match(msg.match, entry)
            ]
        elif msg.kind == STATS_PORT:
            numbers = (
                [msg.port_no]
                if msg.port_no is not None
                else sorted(self._ports)
            )
            body = [
                PortStats(
                    n,
                    self._ports[n].rx_packets,
                    self._ports[n].tx_packets,
                    self._ports[n].rx_bytes,
                    self._ports[n].tx_bytes,
                )
                for n in numbers
                if n in self._ports
            ]
        elif msg.kind == STATS_TABLE:
            body = [
                TableStats(
                    len(self.table),
                    self.table.lookup_count,
                    self.table.matched_count,
                    self.table.max_entries,
                )
            ]
        else:
            self._reply(ErrorMessage("bad_stats", f"kind={msg.kind}", xid=msg.xid))
            return
        self._reply(StatsReply(msg.kind, body, xid=msg.xid))

    # ------------------------------------------------------------------
    # Forwarding pipeline
    # ------------------------------------------------------------------

    def _on_frame(self, raw: bytes, port: Port) -> None:
        self.process_frame(raw, port.number)

    def process_frame(self, raw: bytes, in_port: int) -> None:
        """The datapath receive path: cache → table → controller."""
        # Inlined counter.inc() on the per-packet path: the attribute add
        # is measurably cheaper than a method call.
        self._m_packets.value += 1
        for tap in self.taps:
            tap(raw, in_port)
        key = extract_key(raw, in_port)
        ctx = trace_of(raw)
        if key is None:
            if ctx is not None:
                ctx.finish("datapath", "drop", decision="drop", cause="unparseable")
            return  # unparseable, drop

        if self.enable_cache:
            cached = self._cache.get(key.as_tuple())
            if cached is not None:
                self._m_cache_hits.value += 1
                cached.entry.touch(self.sim.now, len(raw))
                # Fast path: per-hop work only for sampled/forced traces.
                if ctx is not None and ctx.active:
                    ctx.hop(
                        "datapath",
                        "lookup",
                        decision="cache_hit",
                        cause=f"priority={cached.entry.priority:#x} cookie={cached.entry.cookie}",
                    )
                self._execute(raw, cached.actions, in_port)
                return

        entry = self.table.lookup(key)
        if entry is not None:
            self._m_table_hits.value += 1
            entry.touch(self.sim.now, len(raw))
            if ctx is not None and ctx.active:
                ctx.hop(
                    "datapath",
                    "lookup",
                    decision="table_hit",
                    cause=f"priority={entry.priority:#x} cookie={entry.cookie}",
                )
            if self.enable_cache and self._cacheable(entry.actions):
                if len(self._cache) >= self.cache_size:
                    self._cache.clear()  # OVS-style wholesale flush
                self._cache[key.as_tuple()] = _CacheEntry(entry)
            self._execute(raw, entry.actions, in_port)
            return

        self._m_misses.inc()
        if ctx is not None:
            # Slow path already pays a controller round trip: record
            # unconditionally so a later drop/deny keeps its prefix.
            ctx.hop("datapath", "lookup", decision="miss")
        self._punt(raw, in_port, REASON_NO_MATCH)

    @staticmethod
    def _cacheable(actions: ActionList) -> bool:
        """Controller punts are never cached (each packet must go up)."""
        return not any(
            isinstance(a, Output) and a.port == PORT_CONTROLLER for a in actions
        )

    def _punt(self, raw: bytes, in_port: int, reason: int) -> None:
        ctx = trace_of(raw)
        if self.channel is None:
            if ctx is not None:
                ctx.finish("datapath", "drop", decision="drop", cause="no_channel")
            return
        buffer_id = self._buffer_packet(raw, in_port)
        self._punt_times[buffer_id] = self.sim.now
        self._m_punts.inc()
        if ctx is not None:
            ctx.hop(
                "datapath",
                "punt",
                decision="to_controller",
                cause=f"reason={reason} buffer={buffer_id}",
            )
        self.channel.to_controller(
            PacketIn(
                buffer_id=buffer_id,
                in_port=in_port,
                reason=reason,
                data=raw,
            )
        )

    def _buffer_packet(self, raw: bytes, in_port: int) -> int:
        if len(self._buffers) >= self.max_buffers:
            oldest = next(iter(self._buffers))
            del self._buffers[oldest]
            self._punt_times.pop(oldest, None)
        buffer_id = self._next_buffer_id
        self._next_buffer_id += 1
        self._buffers[buffer_id] = (raw, in_port)
        return buffer_id

    def _release_buffer(
        self, buffer_id: int, actions: ActionList, entry: Optional[FlowEntry] = None
    ) -> None:
        buffered = self._buffers.pop(buffer_id, None)
        if buffered is not None:
            raw, in_port = buffered
            if entry is not None:
                # The buffered packet counts against the new flow, as on
                # a real switch where it traverses the fresh entry.
                entry.touch(self.sim.now, len(raw))
            self._execute(raw, actions, in_port)

    def apply_actions(self, raw: bytes, actions: ActionList, in_port: int) -> None:
        """Public entry used by packet-out."""
        self._execute(raw, actions, in_port)

    def _execute(self, raw: bytes, actions: ActionList, in_port: int) -> None:
        if not actions:
            ctx = trace_of(raw)
            if ctx is not None:
                # Matching a drop flow is a terminal decision: always
                # traced, regardless of sampling.
                ctx.finish("datapath", "drop", decision="drop", cause="drop_flow")
            return  # drop
        # Set* actions edit one copy of the frame in place; each Output
        # sends the frame as edited so far.
        buf: Optional[bytearray] = None
        for action in actions:
            if isinstance(action, Output):
                if buf is None:
                    data = raw
                else:
                    # Fresh bytes: the lineage must ride the copy too.
                    data = with_trace(bytes(buf), trace_of(raw))
                self._output(data, action.port, in_port)
            else:
                if buf is None:
                    buf = bytearray(raw)
                action.apply(buf)

    def _output(self, data: bytes, out_port: int, in_port: int) -> None:
        if out_port == PORT_NONE:
            return
        if out_port == PORT_CONTROLLER:
            self._punt(data, in_port, REASON_ACTION)
            return
        if out_port == PORT_LOCAL:
            if self.local_handler is not None:
                self.local_handler(data, in_port)
            return
        if out_port == PORT_IN_PORT:
            port = self._ports.get(in_port)
            if port is not None:
                port.send(data)
            return
        if out_port in (PORT_FLOOD, PORT_ALL):
            for number, port in self._ports.items():
                if number != in_port:
                    port.send(data)
            return
        if out_port == PORT_TABLE:
            self.process_frame(data, in_port)
            return
        if out_port == PORT_NORMAL:
            # The "normal processing pipeline": handled by flooding here;
            # the NOX L2-learning component provides learned forwarding.
            for number, port in self._ports.items():
                if number != in_port:
                    port.send(data)
            return
        port = self._ports.get(out_port)
        if port is not None:
            port.send(data)

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------

    def _invalidate_cache_for(self, entry: FlowEntry) -> None:
        """Drop the cached microflows ``entry`` matches: every key cached
        for it (the table returned it for them), and every key an added
        entry may now win."""
        if not self._cache:
            return
        for key_tuple in matching_keys(entry.match, self._cache):
            del self._cache[key_tuple]

    def cache_len(self) -> int:
        return len(self._cache)

    def __repr__(self) -> str:
        return (
            f"Datapath(id={self.datapath_id}, ports={len(self._ports)}, "
            f"flows={len(self.table)}, cache={len(self._cache)})"
        )


def _loose_match(pattern, entry: FlowEntry) -> bool:
    from .flow_table import _covers

    return _covers(pattern, entry.match)
