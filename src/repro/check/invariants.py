"""Router-wide invariant checkers.

Each checker is a pure read of router state — ``fn(router, ctx) ->
Optional[str]`` returning a violation message or None.  The runner
evaluates the full catalogue after every scenario operation; checkers
must therefore be cheap, side-effect-free, and tolerant of the moments
*between* protocol steps (a host may believe it is BOUND for the instant
its renewal is in flight — checkers assert properties that hold at
every operation boundary, not mid-handshake fictions).

``ctx`` (:class:`CheckContext`) carries the ground truth the scenario
runner accumulated — which hosts exist, which MACs are legitimate — plus
the previous observation for monotonicity checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..net.addresses import MACAddress
from ..openflow.flow_table import _overlaps
from ..policy.model import DNS_ALL, DNS_BLOCK, DNS_ONLY
from ..services.dnsproxy.filter import MODE_ALLOW, MODE_DENY
from ..sim.host import DHCP_BOUND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.router import HomeworkRouter
    from ..sim.host import Host


class InvariantViolation(Exception):
    """One invariant failed: carries the invariant name and evidence."""

    def __init__(self, invariant: str, message: str):
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant
        self.message = message


class CheckContext:
    """Ground truth + previous observation, owned by the runner."""

    def __init__(self) -> None:
        self.hosts: Dict[str, "Host"] = {}  # scenario device name -> Host
        self.extra_macs: set = set()  # infrastructure MACs (router, cloud...)
        self.prev_counters: Dict[str, float] = {}
        self.prev_now = 0.0
        self.prev_events = 0

    def known_macs(self) -> set:
        macs = {str(host.mac) for host in self.hosts.values()}
        macs.update(str(mac) for mac in self.extra_macs)
        return macs


Checker = Callable[["HomeworkRouter", CheckContext], Optional[str]]


def _column_index(table, name: str) -> int:
    for index, column in enumerate(table.columns):
        if column.name == name:
            return index
    raise KeyError(name)


def check_lease_unique_ip(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """No two active leases share an IP; every lease IP is plausible."""
    now = router.sim.now
    seen: Dict[str, str] = {}
    for lease in router.dhcp.leases.all():
        if not lease.active(now):
            continue
        ip = str(lease.ip)
        if ip in seen:
            return f"active leases for {seen[ip]} and {lease.mac} both hold {ip}"
        seen[ip] = str(lease.mac)
        if lease.ip not in router.config.subnet:
            return f"lease {ip} for {lease.mac} outside subnet {router.config.subnet}"
        if lease.ip == router.config.router_ip:
            return f"lease for {lease.mac} collides with the router's own IP {ip}"
    return None


def check_flow_no_overlap(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """No two same-priority flow entries can match a common packet."""
    by_priority: Dict[int, List] = {}
    for entry in router.datapath.table.entries():
        by_priority.setdefault(entry.priority, []).append(entry)
    for priority, group in by_priority.items():
        # Pairwise; bounded so a pathological table cannot stall the run.
        group = group[:150]
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                if a.match.same_pattern(b.match):
                    return f"duplicate entries at priority {priority}: {a.match}"
                if _overlaps(a.match, b.match):
                    return (
                        f"ambiguous overlap at priority {priority}: "
                        f"{a.match} vs {b.match}"
                    )
    return None


def check_microflow_cache_coherent(
    router: "HomeworkRouter", ctx: CheckContext
) -> Optional[str]:
    """Every cached microflow runs the entry the table would pick now.

    A cache entry that outlives the invalidation meant for it keeps
    forwarding by a rule that was deleted, expired or shadowed, which
    for a policy deny is a bypass.  ``resolve`` leaves the table's
    lookup statistics untouched.
    """
    datapath = router.datapath
    for key_tuple, cached in datapath._cache.items():
        current = datapath.table.resolve(key_tuple)
        if current is not cached.entry:
            return (
                f"cached microflow {key_tuple} runs {cached.entry!r} but the "
                f"table now picks {current!r}"
            )
        if cached.actions != current.actions:
            return (
                f"cached microflow {key_tuple} runs actions {cached.actions} "
                f"but its entry now has {current.actions}"
            )
    return None


def check_nat_bijective(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """The NAT's private and external maps are mirror images."""
    nat = router.router_core.nat
    if nat is None:
        return None
    if len(nat._by_private) != len(nat._by_external):
        return (
            f"NAT maps out of sync: {len(nat._by_private)} private keys, "
            f"{len(nat._by_external)} external ports"
        )
    for key, binding in nat._by_private.items():
        mirrored = nat._by_external.get((binding.proto, binding.external_port))
        if mirrored is not binding:
            return f"NAT binding {binding!r} not reachable from its external port"
        if key != (binding.proto, binding.device_ip, binding.device_port):
            return f"NAT binding {binding!r} indexed under wrong private key {key}"
    return None


def check_nat_expiry(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """No binding outlives its idle timeout by more than one sweep."""
    nat = router.router_core.nat
    if nat is None:
        return None
    now = router.sim.now
    # The sweeper runs every idle_timeout/2, so worst case a binding is
    # seen 1.5 timeouts after its last use (plus scheduling epsilon).
    bound = nat.idle_timeout * 1.5 + 1.0
    for binding in nat._by_private.values():
        idle = now - binding.last_used
        if idle > bound:
            return f"NAT binding {binding!r} idle for {idle:.1f}s (> {bound:.1f}s)"
    return None


def check_hwdb_leases_agree(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """The hwdb Leases stream agrees with the lease database.

    Rows in one table are chronological, so the newest retained row per
    MAC is that device's latest lease event; it must not contradict the
    authoritative lease DB.
    """
    now = router.sim.now
    table = router.db.table("leases")
    mac_col = _column_index(table, "mac")
    ip_col = _column_index(table, "ip")
    action_col = _column_index(table, "action")
    latest: Dict[str, Tuple[str, str]] = {}
    for row in table.rows():
        latest[str(row.values[mac_col])] = (
            str(row.values[action_col]),
            str(row.values[ip_col]),
        )
    for mac, (action, ip) in latest.items():
        lease = router.dhcp.leases.by_mac(mac)
        if action in ("granted", "renewed"):
            if lease is not None and lease.active(now) and str(lease.ip) != ip:
                return (
                    f"hwdb says {mac} last {action} {ip} but lease DB holds "
                    f"{lease.ip}"
                )
        elif action in ("revoked", "released", "expired"):
            if lease is not None and lease.active(now):
                return (
                    f"hwdb says lease for {mac} was {action} but the lease DB "
                    f"still has it active ({lease.ip})"
                )
    return None


def check_hwdb_flows_known(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """Every Flows row names a MAC that actually exists in this world."""
    table = router.db.table("flows")
    mac_col = _column_index(table, "src_mac")
    known = ctx.known_macs()
    for row in table.rows():
        mac = row.values[mac_col]
        if mac is None:
            continue
        if str(mac) not in known:
            return f"hwdb Flows row credits unknown device {mac}"
    return None


def check_metrics_monotonic(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """Counters and histogram observation counts never go backwards."""
    current: Dict[str, float] = {}
    for metric in router.metrics.metrics():
        if metric.kind == "counter":
            current[metric.name] = metric.value
        elif metric.kind == "histogram":
            current[metric.name + ".count"] = metric.count
    violation = None
    for name, value in current.items():
        previous = ctx.prev_counters.get(name)
        if previous is not None and value < previous and violation is None:
            violation = f"metric {name} went backwards: {previous} -> {value}"
    ctx.prev_counters = current
    return violation


def check_policy_network_agree(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """The engine's compiled network verdicts match its applied state."""
    engine = router.policy_engine
    now = router.sim.now
    for host in ctx.hosts.values():
        mac = host.mac
        denied_by_policy = not engine.restrictions_for(mac, now).network_allowed
        applied = mac in engine._policy_denied
        if denied_by_policy != applied:
            return (
                f"policy verdict for {mac}: network_allowed="
                f"{not denied_by_policy} but engine applied denial={applied}"
            )
        if applied and engine.dhcp is not None and engine.dhcp.policy.is_permitted(mac):
            return f"{mac} is policy-denied yet the DHCP store still permits it"
    return None


def check_policy_dns_agree(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """Site-filter rules are exactly what the installed policies compile to."""
    engine = router.policy_engine
    site_filter = router.dns_proxy.filter
    now = router.sim.now
    for host in ctx.hosts.values():
        mac = host.mac
        restrictions = engine.restrictions_for(mac, now)
        rule = site_filter._rules.get(MACAddress(mac))
        if restrictions.dns_mode == DNS_ALL:
            if rule is not None:
                return f"{mac} should be unfiltered but has rule {rule!r}"
        elif restrictions.dns_mode == DNS_ONLY:
            if rule is None or rule.mode != MODE_DENY or rule.allowed != set(restrictions.sites):
                return (
                    f"{mac} should be whitelisted to {restrictions.sites} "
                    f"but the filter holds {rule!r}"
                )
        elif restrictions.dns_mode == DNS_BLOCK:
            if rule is None or rule.mode != MODE_ALLOW or rule.blocked != set(restrictions.sites):
                return (
                    f"{mac} should block {restrictions.sites} "
                    f"but the filter holds {rule!r}"
                )
    return None


def check_host_lease_agree(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """A bound host's address matches the server's lease for its MAC."""
    ips: Dict[str, str] = {}
    for name, host in ctx.hosts.items():
        if host.dhcp_state != DHCP_BOUND or host.ip is None:
            continue
        ip = str(host.ip)
        if ip in ips:
            return f"hosts {ips[ip]} and {name} both believe they own {ip}"
        ips[ip] = name
        lease = router.dhcp.leases.by_mac(host.mac)
        if lease is None:
            return f"{name} is BOUND to {ip} but the server has no lease for it"
        if str(lease.ip) != ip:
            return f"{name} is BOUND to {ip} but the server leased it {lease.ip}"
    return None


def check_dhcp_client_liveness(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """An active DHCP client always has a future timer pending.

    This is the property that catches stuck state machines: whatever
    packets were lost, a client that has not been deliberately stopped
    must have *some* retry/renewal wakeup scheduled, or it is wedged
    forever.
    """
    now = router.sim.now
    for name, host in ctx.hosts.items():
        if not host.dhcp_active or host._dhcp_retry_interval <= 0:
            continue
        if not host.dhcp_timer_pending(now):
            return (
                f"{name} is wedged in {host.dhcp_state} with no pending "
                f"DHCP timer"
            )
    return None


def check_hwdb_ring_bounded(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """Stream tables never exceed capacity and their counters reconcile."""
    for name in router.db.tables():
        table = router.db.table(name)
        retained = len(table)
        if retained > table.capacity:
            return f"table {name} holds {retained} rows, capacity {table.capacity}"
        if table.total_inserted < retained:
            return (
                f"table {name} claims {table.total_inserted} inserts but "
                f"retains {retained} rows"
            )
    return None


def check_store_archive_agree(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """Ring and archive agree on where every evicted row went.

    Every row that ever fell off a durable table's ring is accounted for
    exactly once: sealed into a segment, pending in the WAL tier,
    discarded by ``clear()``, or expired by compaction.  A mismatch
    means rows were double-archived or silently dropped.
    """
    store = getattr(router, "store", None)
    if store is None:
        return None
    for name, tier in sorted(store.tiers.items()):
        table = router.db.table(name)
        accounted = (
            tier.sealed_rows + len(tier.pending) + tier.discarded + tier.expired_rows
        )
        if accounted != table.overwritten:
            return (
                f"durable tier for {name!r} accounts for {accounted} evicted "
                f"rows (sealed={tier.sealed_rows} pending={len(tier.pending)} "
                f"discarded={tier.discarded} expired={tier.expired_rows}) but "
                f"the ring overwrote {table.overwritten}"
            )
    return None


def check_clock_monotonic(router: "HomeworkRouter", ctx: CheckContext) -> Optional[str]:
    """Simulated time and the event counter only move forward."""
    now = router.sim.now
    events = router.sim.events_executed
    violation = None
    if now < ctx.prev_now:
        violation = f"clock went backwards: {ctx.prev_now} -> {now}"
    elif events < ctx.prev_events:
        violation = f"events_executed went backwards: {ctx.prev_events} -> {events}"
    ctx.prev_now = now
    ctx.prev_events = events
    return violation


#: The catalogue, in evaluation order (cheap and fundamental first).
INVARIANTS: Tuple[Tuple[str, Checker], ...] = (
    ("clock-monotonic", check_clock_monotonic),
    ("lease-unique-ip", check_lease_unique_ip),
    ("host-lease-agree", check_host_lease_agree),
    ("dhcp-client-liveness", check_dhcp_client_liveness),
    ("flow-no-overlap", check_flow_no_overlap),
    ("microflow-cache-coherent", check_microflow_cache_coherent),
    ("nat-bijective", check_nat_bijective),
    ("nat-expiry", check_nat_expiry),
    ("policy-network-agree", check_policy_network_agree),
    ("policy-dns-agree", check_policy_dns_agree),
    ("hwdb-leases-agree", check_hwdb_leases_agree),
    ("hwdb-flows-known", check_hwdb_flows_known),
    ("hwdb-ring-bounded", check_hwdb_ring_bounded),
    ("store-archive-agree", check_store_archive_agree),
    ("metrics-monotonic", check_metrics_monotonic),
)


def check_all(router: "HomeworkRouter", ctx: CheckContext) -> Optional[InvariantViolation]:
    """Evaluate the catalogue; the first violation wins (or None)."""
    for name, checker in INVARIANTS:
        message = checker(router, ctx)
        if message is not None:
            return InvariantViolation(name, message)
    return None
