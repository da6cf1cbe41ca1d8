"""Policy engine: stores policies, compiles restrictions, enforces them.

The compiler folds every policy applying to a device into one
:class:`~repro.policy.model.Restrictions` (most restrictive wins: any
network-deny denies; DNS whitelists intersect-by-union of constraints —
a device under an ``only`` policy is whitelist-mode, with its block lists
also applied).

Enforcement pushes compiled restrictions into the mechanisms the paper
names: the DHCP server's device policy (network access), the DNS proxy's
site filter, and flow eviction on the datapath so existing connections
stop the moment a restriction activates.
"""

from __future__ import annotations

import logging
from typing import Dict, Iterable, List, Optional, Set, TYPE_CHECKING, Union

from ..core.errors import PolicyError
from ..core.events import EventBus
from ..core.metrics import MetricsRegistry
from ..net.addresses import MACAddress
from .model import DNS_ALL, DNS_BLOCK, DNS_ONLY, NET_DENY, Policy, Restrictions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..services.dhcp.server import DhcpServer
    from ..services.dnsproxy.filter import SiteFilter
    from ..services.routing import RouterCore

logger = logging.getLogger(__name__)


class PolicyEngine:
    """The router's policy store + compiler + enforcer."""

    def __init__(
        self,
        bus: EventBus,
        dhcp: Optional["DhcpServer"] = None,
        site_filter: Optional["SiteFilter"] = None,
        router_core: Optional["RouterCore"] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.bus = bus
        self.dhcp = dhcp
        self.site_filter = site_filter
        self.router_core = router_core
        self._policies: Dict[int, Policy] = {}
        self._inserted_keys: Set[str] = set()
        self._policy_denied: Set[MACAddress] = set()
        # Devices ever targeted by a policy: they stay under management
        # after a policy is removed so their restrictions get cleared.
        self._managed: Set[MACAddress] = set()
        registry = registry if registry is not None else MetricsRegistry()
        self._m_enforcements = registry.counter("policy.enforcement_total")
        # Live scheduler handle, armed by start().
        self._timer = None

    # ------------------------------------------------------------------
    # Periodic re-enforcement
    # ------------------------------------------------------------------

    def start_scheduler(self, sim, interval: float = 30.0) -> None:
        """Re-enforce periodically so schedule transitions take effect.

        Policies carry time conditions ("weekdays after 17:00"); their
        activation changes with the clock, not only with install/remove
        or USB events, so the compiled restrictions must be refreshed.
        ``interval`` bounds how stale an elapsed window can be.
        """
        if self._timer is not None:
            self._timer.cancel()
        self._timer = sim.schedule_periodic(interval, lambda: self.enforce(sim.now))

    def stop_scheduler(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    # Policy store
    # ------------------------------------------------------------------

    def install(self, policy: Policy, now: float = 0.0) -> Policy:
        self._policies[policy.id] = policy
        self._managed.update(policy.targets)
        self.bus.emit("policy.installed", timestamp=now, policy_id=policy.id, name=policy.name)
        self.enforce(now)
        return policy

    def install_document(self, document: Dict[str, object], now: float = 0.0) -> Policy:
        """Validate a policy dict (REST body, config file) and install it.

        Raises :class:`PolicyError` for any malformed document, so callers
        above the policy layer (the control API) never need to import the
        policy model to distinguish validation failures.
        """
        try:
            policy = Policy.from_dict(document)
        except PolicyError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise PolicyError(f"malformed policy document: {exc}") from exc
        return self.install(policy, now)

    def remove(self, policy_id: int, now: float = 0.0) -> None:
        policy = self._policies.pop(policy_id, None)
        if policy is None:
            raise PolicyError(f"no policy {policy_id}")
        self.bus.emit("policy.removed", timestamp=now, policy_id=policy_id)
        self.enforce(now)

    def get(self, policy_id: int) -> Policy:
        try:
            return self._policies[policy_id]
        except KeyError:
            raise PolicyError(f"no policy {policy_id}") from None

    def policies(self) -> List[Policy]:
        return sorted(self._policies.values(), key=lambda p: p.id)

    def set_enabled(self, policy_id: int, enabled: bool, now: float = 0.0) -> None:
        self.get(policy_id).enabled = enabled
        self.enforce(now)

    # ------------------------------------------------------------------
    # USB key mediation
    # ------------------------------------------------------------------

    def key_inserted(self, key_id: str, now: float = 0.0) -> None:
        """The udev monitor saw a policy USB key: suspend gated policies."""
        self._inserted_keys.add(key_id)
        self.bus.emit("policy.key.inserted", timestamp=now, key_id=key_id)
        self.enforce(now)

    def key_removed(self, key_id: str, now: float = 0.0) -> None:
        self._inserted_keys.discard(key_id)
        self.bus.emit("policy.key.removed", timestamp=now, key_id=key_id)
        self.enforce(now)

    @property
    def inserted_keys(self) -> Set[str]:
        return set(self._inserted_keys)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def targeted_devices(self) -> Set[MACAddress]:
        macs: Set[MACAddress] = set(self._managed)
        for policy in self._policies.values():
            macs.update(policy.targets)
        return macs

    def restrictions_for(self, mac: Union[str, MACAddress], now: float) -> Restrictions:
        """Fold all active policies targeting ``mac`` at time ``now``."""
        mac = MACAddress(mac)
        network_allowed = True
        whitelist: Optional[Set[str]] = None
        blocked: Set[str] = set()
        sources: List[int] = []
        for policy in self._policies.values():
            if not policy.applies_to(mac):
                continue
            if not policy.active(now, self._inserted_keys):
                continue
            sources.append(policy.id)
            if policy.network == NET_DENY:
                network_allowed = False
            if policy.dns_mode == DNS_ONLY:
                sites = set(policy.sites)
                whitelist = sites if whitelist is None else (whitelist & sites)
            elif policy.dns_mode == DNS_BLOCK:
                blocked.update(policy.sites)
        if whitelist is not None:
            effective = sorted(whitelist - blocked)
            return Restrictions(network_allowed, DNS_ONLY, effective, sources)
        if blocked:
            return Restrictions(network_allowed, DNS_BLOCK, sorted(blocked), sources)
        return Restrictions(network_allowed, DNS_ALL, [], sources)

    # ------------------------------------------------------------------
    # Enforcement
    # ------------------------------------------------------------------

    def enforce(self, now: float) -> Dict[str, Restrictions]:
        """Recompile and push restrictions for every targeted device."""
        self._m_enforcements.inc()
        outcome: Dict[str, Restrictions] = {}
        for mac in self.targeted_devices():
            restrictions = self.restrictions_for(mac, now)
            outcome[str(mac)] = restrictions
            self._apply(mac, restrictions, now)
        return outcome

    def _apply(self, mac: MACAddress, restrictions: Restrictions, now: float) -> None:
        # 1. Network access through the DHCP device policy.  The engine
        # remembers which devices *it* denied so lifting the policy
        # re-permits them without touching manual (control-UI) denials.
        if self.dhcp is not None:
            if not restrictions.network_allowed:
                if self.dhcp.policy.is_permitted(mac):
                    self.dhcp.policy.deny(mac, now)
                    self.dhcp.revoke_device(mac)
                    if self.router_core is not None:
                        self.router_core.evict_device(mac)
                self._policy_denied.add(mac)
            elif mac in self._policy_denied:
                self._policy_denied.discard(mac)
                self.dhcp.policy.permit(mac, now)

        # 2. DNS restrictions through the proxy's site filter.
        if self.site_filter is not None:
            from ..services.dnsproxy.filter import DeviceRule, MODE_ALLOW, MODE_DENY

            if restrictions.dns_mode == DNS_ONLY:
                self.site_filter.set_rule(mac, DeviceRule(MODE_DENY, allowed=restrictions.sites))
            elif restrictions.dns_mode == DNS_BLOCK:
                self.site_filter.set_rule(mac, DeviceRule(MODE_ALLOW, blocked=restrictions.sites))
            else:
                self.site_filter.clear_rule(mac)

        # 3. Evict live flows so restrictions bite immediately.
        if self.router_core is not None and not restrictions.unrestricted:
            self.router_core.evict_device(mac)

        self.bus.emit(
            "policy.applied",
            timestamp=now,
            mac=str(mac),
            restrictions=restrictions.to_dict(),
        )
