"""Bandwidth aggregation for the visualisation interfaces.

Figure 1's display needs two views over the ``Flows`` table: bytes per
device, and bytes per protocol for one device.  Figure 2's Mode 2 needs
total bandwidth as a proportion of the last-day peak.  These functions
compute all three from hwdb.

Attribution: a flow is charged to the household device whose leased IP
appears as its source (upload) or destination (download) — so a video
stream *to* the TV counts as the TV's consumption, as a user expects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..core.errors import HwdbError
from ..hwdb.database import HomeworkDatabase
from ..net.addresses import AddressError, MACAddress
from .protocols import classify


class DeviceUsage:
    """One device's usage over a window."""

    __slots__ = ("mac", "hostname", "ip", "bytes_up", "bytes_down", "packets", "by_protocol")

    def __init__(self, mac: str, hostname: str = "", ip: str = ""):
        self.mac = mac
        self.hostname = hostname
        self.ip = ip
        self.bytes_up = 0
        self.bytes_down = 0
        self.packets = 0
        self.by_protocol: Dict[str, int] = {}

    @property
    def bytes(self) -> int:
        return self.bytes_up + self.bytes_down

    @property
    def display_name(self) -> str:
        return self.hostname or self.mac

    def __repr__(self) -> str:
        return f"DeviceUsage({self.display_name}, up={self.bytes_up}, down={self.bytes_down})"


class BandwidthAggregator:
    """Computes the per-device / per-protocol views from hwdb.

    The UIs poll these views every refresh tick, while leases change
    seconds to hours apart.  The lease→device map is therefore memoized
    against the leases table's *generation* (``StreamTable.total_inserted``
    counts every row ever written, so it is a perfect change detector).
    """

    def __init__(self, db: HomeworkDatabase):
        self.db = db
        self._device_map_cache: Optional[Tuple[int, Dict[str, Tuple[str, str]]]] = None

    def _generation(self, name: str) -> int:
        """Rows ever inserted into ``name`` (-1 when the table is absent)."""
        try:
            return self.db.table(name).total_inserted
        except HwdbError:
            return -1

    def _device_map(self) -> Dict[str, Tuple[str, str]]:
        """ip → (mac, hostname) from the latest lease grants.

        Cached against the leases-table generation: lease churn is rare
        (seconds to hours apart) while the UIs ask many times a second.
        """
        generation = self._generation("leases")
        if self._device_map_cache is not None and self._device_map_cache[0] == generation:
            return self._device_map_cache[1]
        result = self.db.query(
            "SELECT ip, last(mac) AS mac, last(hostname) AS hostname FROM leases "
            "WHERE action = 'granted' OR action = 'renewed' GROUP BY ip"
        )
        device_map = {row[0]: (row[1], row[2] or "") for row in result.rows}
        self._device_map_cache = (generation, device_map)
        return device_map

    def per_device(self, window: float) -> List[DeviceUsage]:
        """Per-device usage over the trailing ``window`` seconds.

        The left-hand side of Figure 1: bandwidth consumption per
        machine, heaviest first.  Flows touching no leased device (e.g.
        router-to-upstream control traffic) are ignored.
        """
        device_map = self._device_map()
        result = self.db.query(
            f"SELECT src_ip, dst_ip, proto, src_port, dst_port, bytes, packets "
            f"FROM flows [RANGE {window} SECONDS]"
        )
        devices: Dict[str, DeviceUsage] = {}

        def usage_for(ip: str) -> Optional[DeviceUsage]:
            entry = device_map.get(ip)
            if entry is None:
                return None
            mac, hostname = entry
            usage = devices.get(mac)
            if usage is None:
                usage = DeviceUsage(mac, hostname, ip)
                devices[mac] = usage
            return usage

        for src_ip, dst_ip, proto, sport, dport, nbytes, packets in result.rows:
            protocol = classify(proto, sport, dport)[0]
            up = usage_for(src_ip)
            if up is not None:
                up.bytes_up += nbytes
                up.packets += packets
                up.by_protocol[protocol] = up.by_protocol.get(protocol, 0) + nbytes
            down = usage_for(dst_ip)
            if down is not None:
                down.bytes_down += nbytes
                down.packets += packets
                down.by_protocol[protocol] = down.by_protocol.get(protocol, 0) + nbytes
        return sorted(devices.values(), key=lambda u: u.bytes, reverse=True)

    def per_protocol(
        self, device: Union[str, MACAddress], window: float
    ) -> List[Tuple[str, int]]:
        """One device's usage split by protocol (Figure 1, right-hand side).

        ``device`` may be a MAC or the device's leased IP.
        """
        device_map = self._device_map()
        target_ips = set()
        try:
            mac = str(MACAddress(device))
            target_ips = {ip for ip, (m, _h) in device_map.items() if m == mac}
        except AddressError:  # not a MAC, treat as IP
            target_ips = {str(device)}
        result = self.db.query(
            f"SELECT src_ip, dst_ip, proto, src_port, dst_port, bytes "
            f"FROM flows [RANGE {window} SECONDS]"
        )
        totals: Dict[str, int] = {}
        for src_ip, dst_ip, proto, sport, dport, nbytes in result.rows:
            if src_ip not in target_ips and dst_ip not in target_ips:
                continue
            protocol = classify(proto, sport, dport)[0]
            totals[protocol] = totals.get(protocol, 0) + nbytes
        return sorted(totals.items(), key=lambda item: item[1], reverse=True)

    def total_bytes(self, window: float) -> int:
        """Total bytes crossing the router in the trailing window."""
        result = self.db.query(
            f"SELECT sum(bytes) FROM flows [RANGE {window} SECONDS]"
        )
        value = result.scalar()
        return int(value or 0)

    def peak_rate(self, history: float = 86_400.0, bucket: float = 10.0) -> float:
        """Peak bytes/sec over ``history``, in ``bucket``-second bins.

        Mode 2 of the artifact maps "current total bandwidth usage of the
        network as a proportion of peak usage observed in the last day".
        """
        result = self.db.query(
            f"SELECT timestamp, bytes FROM flows [RANGE {history} SECONDS]"
        )
        if not result.rows:
            return 0.0
        buckets: Dict[int, int] = {}
        for timestamp, nbytes in result.rows:
            index = int(timestamp // bucket)
            buckets[index] = buckets.get(index, 0) + nbytes
        return max(buckets.values()) / bucket

    def utilisation(self, window: float = 10.0, history: float = 86_400.0) -> float:
        """Current rate as a proportion of the last-day peak, in [0, 1]."""
        peak = self.peak_rate(history)
        if peak <= 0:
            return 0.0
        current = self.total_bytes(window) / window
        return min(1.0, current / peak)
