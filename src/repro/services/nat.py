"""Source NAT (masquerading) for the upstream link.

A home router translates the private per-device addresses onto its
single upstream address.  This optional extension (off by default —
``RouterConfig(nat_enabled=True)`` enables it) gives the reproduction
that behaviour using only OpenFlow header-rewrite actions: outbound
flows get ``SetNwSrc``/``SetTpSrc`` to the router's upstream address and
an allocated external port, and a matching reverse rule de-translates
returning traffic.  Checksums are recomputed on re-serialisation.

Only TCP/UDP are translated; ICMP passes with address translation but no
port mapping (echo id is preserved well enough for the simulator).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.errors import ServiceError
from ..net.addresses import IPv4Address

#: (proto, device_ip, device_port) — the private side of a binding.
PrivateKey = Tuple[int, IPv4Address, int]


class NatBinding:
    """One active translation."""

    __slots__ = (
        "proto",
        "device_ip",
        "device_port",
        "external_port",
        "created_at",
        "last_used",
    )

    def __init__(
        self,
        proto: int,
        device_ip: IPv4Address,
        device_port: int,
        external_port: int,
        created_at: float,
    ):
        self.proto = proto
        self.device_ip = device_ip
        self.device_port = device_port
        self.external_port = external_port
        self.created_at = created_at
        self.last_used = created_at

    def __repr__(self) -> str:
        return (
            f"NatBinding(proto={self.proto}, "
            f"{self.device_ip}:{self.device_port} -> :{self.external_port})"
        )


#: Default idle lifetime of a binding, seconds of simulated time.  Real
#: home routers keep UDP conntrack entries for minutes, TCP for hours;
#: one shared value is enough for the reproduction's flow timescales.
DEFAULT_IDLE_TIMEOUT = 300.0


class NatTable:
    """Port-mapping state for source NAT.

    External ports are allocated from ``port_range`` per protocol;
    existing bindings are reused so one device flow keeps its mapping.
    Bindings expire after ``idle_timeout`` seconds without traffic
    (:meth:`expire_due` — the router sweeps this periodically); the
    allocator's round-robin next-port pointer keeps freshly released
    ports out of circulation for as long as possible so late packets to
    an expired binding are not mis-delivered to a new flow.
    """

    def __init__(
        self,
        external_ip: IPv4Address,
        port_range: Tuple[int, int] = (32768, 65535),
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
    ):
        self.external_ip = IPv4Address(external_ip)
        self.port_lo, self.port_hi = port_range
        if not (0 < self.port_lo < self.port_hi <= 65535):
            raise ServiceError(f"bad NAT port range {port_range}")
        if idle_timeout <= 0:
            raise ServiceError(f"NAT idle_timeout must be positive: {idle_timeout}")
        self.idle_timeout = float(idle_timeout)
        self._by_private: Dict[PrivateKey, NatBinding] = {}
        # Reverse index derived from _by_private.
        self._by_external: Dict[Tuple[int, int], NatBinding] = {}
        self._next_port: Dict[int, int] = {}
        self.allocations = 0
        self.expirations = 0

    def bind(
        self, proto: int, device_ip, device_port: int, now: float
    ) -> NatBinding:
        """Get (or create) the binding for an outbound flow."""
        device_ip = IPv4Address(device_ip)
        key: PrivateKey = (proto, device_ip, device_port)
        binding = self._by_private.get(key)
        if binding is not None:
            binding.last_used = now
            return binding
        external_port = self._allocate_port(proto)
        binding = NatBinding(proto, device_ip, device_port, external_port, now)
        self._by_private[key] = binding
        self._by_external[(proto, external_port)] = binding
        self.allocations += 1
        return binding

    def _allocate_port(self, proto: int) -> int:
        start = self._next_port.get(proto, self.port_lo)
        port = start
        for _ in range(self.port_hi - self.port_lo + 1):
            if (proto, port) not in self._by_external:
                self._next_port[proto] = port + 1 if port < self.port_hi else self.port_lo
                return port
            port = port + 1 if port < self.port_hi else self.port_lo
        raise ServiceError(f"NAT port range exhausted for proto {proto}")

    def lookup_external(
        self, proto: int, external_port: int, now: Optional[float] = None
    ) -> Optional[NatBinding]:
        """De-translate: which device owns this external port?

        Passing ``now`` refreshes the binding's idle timer — return
        traffic keeps a mapping alive just like outbound traffic does.
        """
        binding = self._by_external.get((proto, external_port))
        if binding is not None and now is not None:
            binding.last_used = now
        return binding

    def lookup_private(self, proto: int, device_ip, device_port: int) -> Optional[NatBinding]:
        return self._by_private.get((proto, IPv4Address(device_ip), device_port))

    def expire_due(self, now: float) -> List[NatBinding]:
        """Release bindings idle longer than ``idle_timeout``; returns them."""
        stale = [
            binding
            for binding in self._by_private.values()
            if now - binding.last_used >= self.idle_timeout
        ]
        for binding in stale:
            self.release(binding.proto, binding.external_port)
        self.expirations += len(stale)
        return stale

    def release(self, proto: int, external_port: int) -> None:
        binding = self._by_external.pop((proto, external_port), None)
        if binding is not None:
            self._by_private.pop(
                (binding.proto, binding.device_ip, binding.device_port), None
            )

    def release_device(self, device_ip) -> int:
        """Drop every binding of a device (lease revoked); returns count."""
        device_ip = IPv4Address(device_ip)
        stale = [
            binding
            for binding in self._by_private.values()
            if binding.device_ip == device_ip
        ]
        for binding in stale:
            self.release(binding.proto, binding.external_port)
        return len(stale)

    def __len__(self) -> int:
        return len(self._by_private)
