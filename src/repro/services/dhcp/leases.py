"""The DHCP lease database.

Leases map Ethernet to IP address (the hwdb ``Leases`` table mirrors
lease *events* from here).  Lease lifecycle: offered → bound → renewed /
expired / released, with expiry driven by the shared clock.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ...net.addresses import IPv4Address, MACAddress
from .pool import Allocation

STATE_OFFERED = "offered"
STATE_BOUND = "bound"
STATE_EXPIRED = "expired"
STATE_RELEASED = "released"


class Lease:
    """One device's lease."""

    __slots__ = (
        "mac",
        "allocation",
        "hostname",
        "state",
        "granted_at",
        "expires_at",
        "renew_count",
    )

    def __init__(
        self,
        mac: MACAddress,
        allocation: Allocation,
        hostname: str,
        granted_at: float,
        expires_at: float,
    ):
        self.mac = mac
        self.allocation = allocation
        self.hostname = hostname
        self.state = STATE_OFFERED
        self.granted_at = granted_at
        self.expires_at = expires_at
        self.renew_count = 0

    @property
    def ip(self) -> IPv4Address:
        return self.allocation.ip

    @property
    def gateway(self) -> IPv4Address:
        return self.allocation.gateway

    def active(self, now: float) -> bool:
        return self.state == STATE_BOUND and now < self.expires_at

    def __repr__(self) -> str:
        return (
            f"Lease(mac={self.mac}, ip={self.ip}, state={self.state}, "
            f"hostname={self.hostname!r})"
        )


class LeaseDatabase:
    """All leases, indexed by MAC and by IP."""

    def __init__(self) -> None:
        self._by_mac: Dict[MACAddress, Lease] = {}
        # Reverse index derived from _by_mac.
        self._by_ip: Dict[IPv4Address, Lease] = {}

    def offer(
        self,
        mac: Union[str, MACAddress],
        allocation: Allocation,
        hostname: str,
        now: float,
        lease_time: float,
    ) -> Lease:
        """Record an OFFER (replaces any previous lease for the MAC)."""
        mac = MACAddress(mac)
        old = self._by_mac.get(mac)
        if old is not None:
            self._by_ip.pop(old.ip, None)
        lease = Lease(mac, allocation, hostname, now, now + lease_time)
        self._by_mac[mac] = lease
        self._by_ip[lease.ip] = lease
        return lease

    def bind(self, mac: Union[str, MACAddress], now: float, lease_time: float) -> Optional[Lease]:
        """Move a lease to BOUND on DHCPACK; returns it (or None)."""
        lease = self._by_mac.get(MACAddress(mac))
        if lease is None:
            return None
        if lease.state == STATE_BOUND:
            lease.renew_count += 1
        lease.state = STATE_BOUND
        lease.expires_at = now + lease_time
        return lease

    def release(self, mac: Union[str, MACAddress]) -> Optional[Lease]:
        lease = self._by_mac.get(MACAddress(mac))
        if lease is not None and lease.state != STATE_RELEASED:
            lease.state = STATE_RELEASED
        return lease

    def expire_due(self, now: float) -> List[Lease]:
        """Mark overdue BOUND leases EXPIRED; returns them."""
        expired = []
        for lease in self._by_mac.values():
            if lease.state == STATE_BOUND and now >= lease.expires_at:
                lease.state = STATE_EXPIRED
                expired.append(lease)
        return expired

    def by_mac(self, mac: Union[str, MACAddress]) -> Optional[Lease]:
        return self._by_mac.get(MACAddress(mac))

    def by_ip(self, ip: Union[str, IPv4Address]) -> Optional[Lease]:
        return self._by_ip.get(IPv4Address(ip))

    def all(self) -> List[Lease]:
        return list(self._by_mac.values())

    def active(self, now: float) -> List[Lease]:
        return [lease for lease in self._by_mac.values() if lease.active(now)]

    def __len__(self) -> int:
        return len(self._by_mac)
