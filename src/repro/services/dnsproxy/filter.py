"""Per-device site filtering.

The policy interface (Figure 4) maps to "per-device network and DNS
access restrictions" — e.g. the kids' devices may resolve only Facebook
on weekday evenings.  A device's rule is one of:

* ``allow-all`` (default) with an optional *blocked* suffix list, or
* ``deny-all`` with an *allowed* suffix list (whitelist mode).

Suffix matching is domain-aware: ``facebook.com`` matches itself and any
subdomain, never ``notfacebook.com``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Union

from ...net.addresses import MACAddress

MODE_ALLOW = "allow"  # allow everything except blocked suffixes
MODE_DENY = "deny"  # deny everything except allowed suffixes


def _normalise(name: str) -> str:
    return name.rstrip(".").lower()


def domain_matches(name: str, suffix: str) -> bool:
    """True when ``name`` equals ``suffix`` or is a subdomain of it."""
    name = _normalise(name)
    suffix = _normalise(suffix)
    return name == suffix or name.endswith("." + suffix)


class DeviceRule:
    """One device's DNS admission rule."""

    __slots__ = ("mode", "blocked", "allowed")

    def __init__(
        self,
        mode: str = MODE_ALLOW,
        blocked: Optional[Iterable[str]] = None,
        allowed: Optional[Iterable[str]] = None,
    ):
        if mode not in (MODE_ALLOW, MODE_DENY):
            raise ValueError(f"bad filter mode {mode!r}")
        self.mode = mode
        self.blocked: Set[str] = {_normalise(s) for s in (blocked or ())}
        self.allowed: Set[str] = {_normalise(s) for s in (allowed or ())}

    def permits(self, name: str) -> bool:
        if self.mode == MODE_ALLOW:
            return not any(domain_matches(name, suffix) for suffix in self.blocked)
        return any(domain_matches(name, suffix) for suffix in self.allowed)

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "blocked": sorted(self.blocked),
            "allowed": sorted(self.allowed),
        }

    def __repr__(self) -> str:
        if self.mode == MODE_ALLOW:
            return f"DeviceRule(allow-all, blocked={sorted(self.blocked)})"
        return f"DeviceRule(deny-all, allowed={sorted(self.allowed)})"


class SiteFilter:
    """Maps devices (by MAC) to rules, with a global default."""

    def __init__(self) -> None:
        self.default_rule = DeviceRule(MODE_ALLOW)
        self._rules: Dict[MACAddress, DeviceRule] = {}
        self.decisions = 0
        self.denials = 0

    def set_rule(self, mac: Union[str, MACAddress], rule: DeviceRule) -> None:
        self._rules[MACAddress(mac)] = rule

    def clear_rule(self, mac: Union[str, MACAddress]) -> None:
        self._rules.pop(MACAddress(mac), None)

    def rule_for(self, mac: Optional[Union[str, MACAddress]]) -> DeviceRule:
        if mac is None:
            return self.default_rule
        return self._rules.get(MACAddress(mac), self.default_rule)

    def permits(self, mac: Optional[Union[str, MACAddress]], name: str) -> bool:
        """The proxy's admission decision for ``mac`` resolving ``name``."""
        self.decisions += 1
        verdict = self.rule_for(mac).permits(name)
        if not verdict:
            self.denials += 1
        return verdict

    def block_site(self, mac: Union[str, MACAddress], suffix: str) -> None:
        """Convenience: add one blocked suffix to a device's rule."""
        mac = MACAddress(mac)
        rule = self._rules.get(mac)
        if rule is None or rule.mode != MODE_ALLOW:
            rule = DeviceRule(MODE_ALLOW)
            self._rules[mac] = rule
        rule.blocked.add(_normalise(suffix))

    def allow_only(self, mac: Union[str, MACAddress], suffixes: Iterable[str]) -> None:
        """Convenience: whitelist mode with exactly ``suffixes``."""
        self.set_rule(mac, DeviceRule(MODE_DENY, allowed=suffixes))

    def rules(self) -> Dict[str, Dict[str, object]]:
        return {str(mac): rule.to_dict() for mac, rule in self._rules.items()}

    def __len__(self) -> int:
        return len(self._rules)
