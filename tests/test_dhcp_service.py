"""DHCP service tests: pools, lease DB, device policy, and the NOX server."""

import pytest

from repro import RouterConfig
from repro.core.errors import ServiceError
from repro.net.addresses import IPv4Address, IPv4Network, MACAddress
from repro.services.dhcp.leases import LeaseDatabase, STATE_BOUND, STATE_RELEASED
from repro.services.dhcp.policy import DENIED, DevicePolicyStore, PENDING, PERMITTED
from repro.services.dhcp.pool import FlatPool, IsolatingPool

from tests.helpers import join_device, make_permissive_router, make_router


class TestIsolatingPool:
    def setup_method(self):
        self.pool = IsolatingPool(IPv4Network("10.2.0.0/16"))

    def test_first_allocation(self):
        allocation = self.pool.allocate("02:aa:00:00:00:01")
        # First /30 is reserved for the router block.
        assert allocation.network == IPv4Network("10.2.0.4/30")
        assert allocation.gateway == IPv4Address("10.2.0.5")
        assert allocation.ip == IPv4Address("10.2.0.6")
        assert allocation.netmask == IPv4Address("255.255.255.252")

    def test_distinct_networks_per_device(self):
        a = self.pool.allocate("02:aa:00:00:00:01")
        b = self.pool.allocate("02:aa:00:00:00:02")
        assert a.network != b.network
        assert a.ip not in b.network
        assert b.ip not in a.network

    def test_stable_reallocation(self):
        first = self.pool.allocate("02:aa:00:00:00:01")
        again = self.pool.allocate("02:aa:00:00:00:01")
        assert first.ip == again.ip
        assert len(self.pool) == 1

    def test_release_and_reuse(self):
        a = self.pool.allocate("02:aa:00:00:00:01")
        self.pool.release("02:aa:00:00:00:01")
        assert self.pool.lookup("02:aa:00:00:00:01") is None
        b = self.pool.allocate("02:aa:00:00:00:02")
        assert b.network == a.network  # released block reused

    def test_release_unknown_noop(self):
        self.pool.release("02:aa:00:00:00:99")

    def test_gateway_tracking(self):
        a = self.pool.allocate("02:aa:00:00:00:01")
        assert self.pool.is_gateway(a.gateway)
        assert not self.pool.is_gateway(a.ip)

    def test_lookup_by_ip(self):
        a = self.pool.allocate("02:aa:00:00:00:01")
        assert self.pool.allocation_for_ip(a.ip) is a
        assert self.pool.allocation_for_ip("10.99.0.1") is None

    def test_exhaustion(self):
        pool = IsolatingPool(IPv4Network("10.0.0.0/28"))  # 4 /30s, 1 reserved
        for i in range(3):
            pool.allocate(MACAddress(0x020000000000 + i))
        with pytest.raises(ServiceError):
            pool.allocate("02:ff:00:00:00:01")

    def test_too_small_subnet(self):
        with pytest.raises(ServiceError):
            IsolatingPool(IPv4Network("10.0.0.0/31"))


class TestFlatPool:
    def setup_method(self):
        self.pool = FlatPool(
            IPv4Network("192.168.1.0/24"), IPv4Address("192.168.1.1")
        )

    def test_shared_subnet_and_gateway(self):
        a = self.pool.allocate("02:aa:00:00:00:01")
        b = self.pool.allocate("02:aa:00:00:00:02")
        assert a.network == b.network
        assert a.gateway == b.gateway == IPv4Address("192.168.1.1")
        assert a.ip != b.ip

    def test_devices_on_link_of_each_other(self):
        """The property the paper's isolating design eliminates."""
        a = self.pool.allocate("02:aa:00:00:00:01")
        b = self.pool.allocate("02:aa:00:00:00:02")
        assert b.ip in a.network

    def test_release_reuse(self):
        a = self.pool.allocate("02:aa:00:00:00:01")
        self.pool.release("02:aa:00:00:00:01")
        b = self.pool.allocate("02:aa:00:00:00:02")
        assert b.ip == a.ip


class TestLeaseDatabase:
    def test_offer_bind_lifecycle(self):
        pool = IsolatingPool(IPv4Network("10.2.0.0/16"))
        leases = LeaseDatabase()
        allocation = pool.allocate("02:aa:00:00:00:01")
        lease = leases.offer("02:aa:00:00:00:01", allocation, "laptop", now=0.0, lease_time=60.0)
        assert lease.state == "offered"
        bound = leases.bind("02:aa:00:00:00:01", now=1.0, lease_time=60.0)
        assert bound is lease
        assert lease.state == STATE_BOUND
        assert lease.active(30.0)
        assert not lease.active(61.1)

    def test_renew_counts(self):
        pool = IsolatingPool(IPv4Network("10.2.0.0/16"))
        leases = LeaseDatabase()
        allocation = pool.allocate("02:aa:00:00:00:01")
        leases.offer("02:aa:00:00:00:01", allocation, "h", 0.0, 60.0)
        leases.bind("02:aa:00:00:00:01", 1.0, 60.0)
        lease = leases.bind("02:aa:00:00:00:01", 30.0, 60.0)
        assert lease.renew_count == 1
        assert lease.expires_at == 90.0

    def test_release(self):
        pool = IsolatingPool(IPv4Network("10.2.0.0/16"))
        leases = LeaseDatabase()
        leases.offer("02:aa:00:00:00:01", pool.allocate("02:aa:00:00:00:01"), "h", 0.0, 60.0)
        lease = leases.release("02:aa:00:00:00:01")
        assert lease.state == STATE_RELEASED

    def test_expire_due(self):
        pool = IsolatingPool(IPv4Network("10.2.0.0/16"))
        leases = LeaseDatabase()
        leases.offer("02:aa:00:00:00:01", pool.allocate("02:aa:00:00:00:01"), "h", 0.0, 10.0)
        leases.bind("02:aa:00:00:00:01", 0.0, 10.0)
        assert leases.expire_due(5.0) == []
        expired = leases.expire_due(10.0)
        assert len(expired) == 1
        assert expired[0].state == "expired"

    def test_index_by_ip(self):
        pool = IsolatingPool(IPv4Network("10.2.0.0/16"))
        leases = LeaseDatabase()
        lease = leases.offer("02:aa:00:00:00:01", pool.allocate("02:aa:00:00:00:01"), "h", 0.0, 60.0)
        assert leases.by_ip(lease.ip) is lease
        assert leases.by_mac("02:aa:00:00:00:01") is lease


class TestDevicePolicyStore:
    def test_default_deny_observes_pending(self):
        store = DevicePolicyStore(default_permit=False)
        record = store.observe("02:aa:00:00:00:01", now=1.0, hostname="laptop")
        assert record.state == PENDING
        assert not store.is_permitted("02:aa:00:00:00:01")

    def test_default_permit(self):
        store = DevicePolicyStore(default_permit=True)
        record = store.observe("02:aa:00:00:00:01", now=1.0)
        assert record.state == PERMITTED

    def test_transitions_notify(self):
        store = DevicePolicyStore()
        changes = []
        store.on_change(lambda record, old: changes.append((record.state, old)))
        store.observe("02:aa:00:00:00:01", 0.0)
        store.permit("02:aa:00:00:00:01", 1.0)
        store.deny("02:aa:00:00:00:01", 2.0)
        assert changes == [
            (PENDING, ""),
            (PERMITTED, PENDING),
            (DENIED, PERMITTED),
        ]

    def test_same_state_no_notification(self):
        store = DevicePolicyStore()
        store.observe("02:aa:00:00:00:01", 0.0)
        changes = []
        store.on_change(lambda record, old: changes.append(old))
        store.permit("02:aa:00:00:00:01")
        store.permit("02:aa:00:00:00:01")
        assert len(changes) == 1

    def test_metadata_and_display_name(self):
        store = DevicePolicyStore()
        store.observe("02:aa:00:00:00:01", 0.0, hostname="host-1")
        record = store.set_metadata("02:aa:00:00:00:01", name="Tom's laptop", owner="Tom")
        assert record.display_name == "Tom's laptop"
        assert record.metadata["owner"] == "Tom"

    def test_display_name_fallbacks(self):
        store = DevicePolicyStore()
        record = store.observe("02:aa:00:00:00:01", 0.0)
        assert record.display_name == "02:aa:00:00:00:01"
        store.observe("02:aa:00:00:00:01", 1.0, hostname="hosty")
        assert record.display_name == "hosty"

    def test_bad_state_rejected(self):
        store = DevicePolicyStore()
        with pytest.raises(ValueError):
            store.set_state("02:aa:00:00:00:01", "wat")

    def test_devices_filter(self):
        store = DevicePolicyStore()
        store.observe("02:aa:00:00:00:01", 0.0)
        store.permit("02:aa:00:00:00:02")
        assert len(store.devices()) == 2
        assert len(store.devices(PENDING)) == 1
        assert len(store.devices(PERMITTED)) == 1


class TestDhcpServerIntegration:
    """The server component exercised over real packets through the router."""

    def test_pending_device_withheld(self):
        sim, router = make_router(seed=21)
        host = router.add_device("newbie", "02:aa:00:00:00:01")
        host.start_dhcp(retry_interval=0)
        sim.run_for(2.0)
        assert host.ip is None
        assert router.metrics.value("dhcp.withheld_total") == 1
        assert router.dhcp.policy.state_of(host.mac) == PENDING

    def test_permit_then_full_handshake(self):
        sim, router = make_router(seed=22)
        host = router.add_device("laptop", "02:aa:00:00:00:01")
        host.start_dhcp()
        sim.run_for(1.0)
        router.permit(host)
        sim.run_for(6.0)
        assert host.ip is not None
        assert host.gateway is not None
        assert router.metrics.value("dhcp.offer_total") == 1
        assert router.metrics.value("dhcp.ack_total") == 1
        lease = router.dhcp.leases.by_mac(host.mac)
        assert lease.state == STATE_BOUND
        assert lease.ip == host.ip

    def test_isolating_options(self):
        sim, router = make_router(seed=23)
        host = join_device(router, "laptop", "02:aa:00:00:00:01")
        # /30 netmask, gateway is the router side of the device's /30.
        assert host.netmask == IPv4Address("255.255.255.252")
        assert host.gateway == host.ip - 1
        assert host.dns_server == host.gateway

    def test_denied_device_naks_on_request(self):
        sim, router = make_router(seed=24)
        host = join_device(router, "laptop", "02:aa:00:00:00:01")
        assert host.ip is not None
        router.deny(host)
        # Renewal attempt is NAKed.
        host._renew()
        sim.run_for(1.0)
        assert router.metrics.value("dhcp.nak_total") >= 1
        assert host.dhcp_nak_count >= 1
        assert host.ip is None  # client dropped the address

    def test_renewal_keeps_address(self):
        sim, router = make_router(seed=25, config=RouterConfig(lease_time=10.0, default_permit=True))
        host = router.add_device("laptop", "02:aa:00:00:00:01")
        host.start_dhcp()
        sim.run_for(1.0)
        ip_before = host.ip
        assert ip_before is not None
        sim.run_for(30.0)  # several renewal cycles (T1 = 5 s)
        assert host.ip == ip_before
        lease = router.dhcp.leases.by_mac(host.mac)
        assert lease.renew_count >= 2
        assert lease.active(sim.now)

    def test_release_revokes(self):
        sim, router = make_permissive_router(seed=26)
        host = router.add_device("laptop", "02:aa:00:00:00:01")
        host.start_dhcp()
        sim.run_for(1.0)
        events = []
        router.bus.subscribe("dhcp.lease.revoked", events.append)
        host.release_dhcp()
        sim.run_for(1.0)
        assert len(events) == 1
        assert events[0].reason == "released"

    def test_expiry_emits_revoked(self):
        sim, router = make_router(seed=27, config=RouterConfig(lease_time=5.0, default_permit=True))
        host = router.add_device("laptop", "02:aa:00:00:00:01")
        host.start_dhcp(retry_interval=0)
        sim.run_for(1.0)
        assert host.ip is not None
        # Kill the client's renewal so the lease expires.
        host._renew_event.cancel()
        events = []
        router.bus.subscribe("dhcp.lease.revoked", events.append)
        sim.run_for(20.0)
        assert any(e.reason == "expired" for e in events)

    def test_lease_events_reach_hwdb(self):
        sim, router = make_permissive_router(seed=28)
        host = router.add_device("laptop", "02:aa:00:00:00:01")
        host.start_dhcp()
        sim.run_for(2.0)
        result = router.db.query(
            "SELECT mac, action FROM leases WHERE action = 'granted'"
        )
        assert (str(host.mac), "granted") in result.rows
