"""Measurement collectors: the router's information plane feeds.

Three collectors populate hwdb's standard tables, mirroring the paper:

* :class:`FlowCollector` — polls the datapath's flow stats over the
  OpenFlow channel and writes per-interval deltas of active five-tuples
  into ``Flows``;
* :class:`LinkCollector` — samples each station's link (RSSI, retries)
  into ``Links``;
* :class:`LeaseCollector` — mirrors ``dhcp.*`` bus events into
  ``Leases`` (and ``dns.query`` events into ``Dns``).
"""

from __future__ import annotations

import logging
from typing import Dict, Optional, Tuple, TYPE_CHECKING, Union

from ..core.events import Event, EventBus
from ..hwdb.database import HomeworkDatabase
from ..net.addresses import IPv4Address, MACAddress
from ..net.ethernet import ETH_TYPE_IPV4
from ..openflow.messages import STATS_FLOW, StatsReply

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nox.controller import Controller
    from ..sim.link import Link
    from ..sim.simulator import Simulator

logger = logging.getLogger(__name__)

#: Five-tuple + src mac, all as ints: every entry of every poll is keyed,
#: and only the rows written format their addresses.
FlowStatsKey = Tuple[int, int, int, int, int, int]


class FlowCollector:
    """Periodically observed active five-tuples → the ``Flows`` table.

    Two feeds: a periodic flow-stats poll over the OpenFlow channel, and
    flow-removed notifications that capture the tail of a flow's counters
    between its last poll and its expiry (otherwise those bytes would be
    lost to the measurement plane).
    """

    def __init__(
        self,
        sim: "Simulator",
        controller: "Controller",
        db: HomeworkDatabase,
        interval: float = 1.0,
    ):
        self.sim = sim
        self.controller = controller
        self.db = db
        self.interval = interval
        self._previous: Dict[FlowStatsKey, Tuple[int, int]] = {}
        self._timer = None
        self._removed_registration = None
        self._m_polls = db.registry.counter("measurement.flow_poll_total")
        self._m_rows = db.registry.counter("measurement.flow_row_total")

    def start(self) -> None:
        self._timer = self.sim.schedule_periodic(self.interval, self.poll)
        from ..nox.controller import EV_FLOW_REMOVED

        self._removed_registration = self.controller.register_handler(
            EV_FLOW_REMOVED, self._on_flow_removed, priority=50, owner="flow_collector"
        )

    def _on_flow_removed(self, msg) -> int:
        """Final accounting for a flow leaving the table."""
        from ..nox.component import CONTINUE

        key = self._key_for_match(msg.match)
        if key is not None:
            prev_packets, prev_bytes = self._previous.pop(key, (0, 0))
            dp = msg.packet_count - prev_packets
            db = msg.byte_count - prev_bytes
            if dp > 0 or db > 0:
                self._write_row(key, max(dp, 0), max(db, 0))
        return CONTINUE

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._removed_registration is not None:
            self._removed_registration.cancel()
            self._removed_registration = None

    def poll(self) -> None:
        """Issue one flow-stats request; rows are written on the reply."""
        self._m_polls.inc()
        self.controller.request_stats(STATS_FLOW, self._on_reply)

    @staticmethod
    def _key_for_match(match) -> Optional[FlowStatsKey]:
        if (
            match.dl_type != ETH_TYPE_IPV4
            or match.nw_src is None
            or match.nw_dst is None
            or match.nw_proto is None
            or match.dl_src is None
        ):
            return None
        return (
            int(match.nw_src),
            int(match.nw_dst),
            match.nw_proto,
            match.tp_src or 0,
            match.tp_dst or 0,
            int(match.dl_src),
        )

    def _write_row(self, key: FlowStatsKey, dp: int, db: int) -> None:
        src_ip, dst_ip, proto, sport, dport, src_mac = key
        self.db.insert(
            "flows",
            {
                "src_ip": str(IPv4Address(src_ip)),
                "dst_ip": str(IPv4Address(dst_ip)),
                "proto": proto,
                "src_port": sport,
                "dst_port": dport,
                "src_mac": MACAddress(src_mac),
                "packets": dp,
                "bytes": db,
            },
        )
        self._m_rows.inc()

    def _on_reply(self, reply: StatsReply) -> None:
        current: Dict[FlowStatsKey, Tuple[int, int]] = {}
        for stats in reply.body:
            key = self._key_for_match(stats.match)
            if key is None:
                continue
            packets, nbytes = stats.packet_count, stats.byte_count
            previous = current.get(key)
            if previous is not None:
                packets += previous[0]
                nbytes += previous[1]
            current[key] = (packets, nbytes)
        for key, (packets, nbytes) in current.items():
            prev_packets, prev_bytes = self._previous.get(key, (0, 0))
            dp = packets - prev_packets
            db = nbytes - prev_bytes
            if dp < 0 or db < 0:
                # Flow was re-installed and counters reset.
                dp, db = packets, nbytes
            if dp == 0 and db == 0:
                continue
            self._write_row(key, dp, db)
        self._previous = current


class LinkCollector:
    """Link-layer samples (MAC, RSSI, retries) → the ``Links`` table."""

    def __init__(self, sim: "Simulator", db: HomeworkDatabase, interval: float = 1.0):
        self.sim = sim
        self.db = db
        self.interval = interval
        self._links: Dict[MACAddress, Tuple[Link, bool]] = {}
        self._prev_retries: Dict[MACAddress, int] = {}
        self._prev_frames: Dict[MACAddress, int] = {}
        self._timer = None
        self._m_rows = db.registry.counter("measurement.link_row_total")

    def register(self, mac: Union[str, MACAddress], link: "Link") -> None:
        """Track one station's access link."""
        mac = MACAddress(mac)
        # Structural check instead of isinstance: wireless links expose an
        # RSSI, and measurement must not import the simulator layer.
        wired = getattr(link, "rssi_dbm", None) is None
        self._links[mac] = (link, wired)

    def start(self) -> None:
        self._timer = self.sim.schedule_periodic(self.interval, self.poll)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def poll(self) -> None:
        for mac, (link, wired) in self._links.items():
            retries_total = getattr(link, "retries", 0)
            retries = retries_total - self._prev_retries.get(mac, 0)
            self._prev_retries[mac] = retries_total
            frames_total = link.frames_carried
            frames = frames_total - self._prev_frames.get(mac, 0)
            self._prev_frames[mac] = frames_total
            rssi = getattr(link, "rssi_dbm", 0.0)
            self.db.insert(
                "links",
                {
                    "mac": mac,
                    "rssi": rssi,
                    "retries": retries,
                    "packets": frames,
                    "wired": wired,
                },
            )
            self._m_rows.inc()


class LeaseCollector:
    """Mirror DHCP and DNS events from the bus into hwdb tables."""

    _ACTIONS = {
        "dhcp.lease.granted": "granted",
        "dhcp.lease.renewed": "renewed",
        "dhcp.lease.revoked": "revoked",
        "dhcp.lease.denied": "denied",
    }

    def __init__(self, bus: EventBus, db: HomeworkDatabase):
        self.bus = bus
        self.db = db
        self._m_rows = db.registry.counter("measurement.event_row_total")
        self._subs = [
            bus.subscribe("dhcp.lease.*", self._on_lease),
            bus.subscribe("dns.query", self._on_dns),
        ]

    def stop(self) -> None:
        for sub in self._subs:
            sub.cancel()
        self._subs = []

    def _on_lease(self, event: Event) -> None:
        action = self._ACTIONS.get(event.name)
        if action is None:
            return
        self.db.insert(
            "leases",
            {
                "mac": event.get("mac", "00:00:00:00:00:00"),
                "ip": event.get("ip", "0.0.0.0"),
                "hostname": event.get("hostname", ""),
                "action": action,
                "expires": event.get("expires", 0.0),
            },
        )
        self._m_rows.inc()

    def _on_dns(self, event: Event) -> None:
        self.db.insert(
            "dns",
            {
                "device_ip": event.get("device_ip", "0.0.0.0"),
                "name": event.get("name", ""),
                "resolved_ip": event.get("resolved_ip", "0.0.0.0"),
                "allowed": event.get("allowed", True),
            },
        )
        self._m_rows.inc()
