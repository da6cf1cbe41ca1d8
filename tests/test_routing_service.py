"""Routing component tests: proxy ARP, forwarding, isolation, eviction."""

import pytest

from repro import HomeworkRouter, RouterConfig, Simulator
from repro.net import ETH_TYPE_ARP, ETH_TYPE_IPV4, PROTO_TCP, MACAddress
from repro.net.tcp import SYN

from tests.conftest import join_device
from tests.reference_codecs import ARP, Ethernet, IPv4, TCP


@pytest.fixture
def net():
    sim = Simulator(seed=41)
    router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
    router.start()
    a = join_device(router, "alpha", "02:aa:00:00:00:01")
    b = join_device(router, "beta", "02:aa:00:00:00:02")
    return sim, router, a, b


class TestProxyArp:
    def test_gateway_arp_answered_with_router_mac(self, net):
        sim, router, a, _b = net
        # Joining already ARPed the gateway during DHCP-driven traffic? Force one.
        a._arp_table.clear()
        results = []
        a.ping(a.gateway, lambda ok, rtt: results.append(ok))
        sim.run_for(1.0)
        assert results == [True]
        assert a._arp_table[int(a.gateway)] == router.config.router_mac.packed

    def test_any_address_proxied(self, net):
        sim, router, a, b = net
        # Even a direct ARP probe for the *other device's* IP is answered
        # by the router: devices never learn each other's real MACs.
        probe = ARP.request(a.mac, a.ip, b.ip)
        a.send_frame(Ethernet(MACAddress.broadcast(), a.mac, ETH_TYPE_ARP, probe).pack())
        sim.run_for(1.0)
        assert a._arp_table.get(int(b.ip)) == router.config.router_mac.packed


class TestPortLearning:
    def test_group_bit_source_is_not_learned(self, net):
        """``learn_port`` skips a source with the group bit set, and no
        handler after it stores that MAC."""
        sim, router, a, _b = net
        group_mac = MACAddress("03:00:00:00:00:01")
        packet_ins = router.metrics.value("openflow.packet_in_total")
        syn = IPv4(a.ip, router.cloud.ip, PROTO_TCP, payload=TCP(40000, 80, flags=SYN))
        a.send_frame(Ethernet(router.config.router_mac, group_mac, ETH_TYPE_IPV4, syn).pack())
        sim.run_for(0.5)
        assert router.metrics.value("openflow.packet_in_total") > packet_ins
        assert group_mac not in router.router_core.mac_to_port
        assert router.router_core.mac_to_port[a.mac] is not None


class TestForwarding:
    def test_device_to_device_via_router(self, net):
        sim, router, a, b = net
        got = []
        b.udp_bind(7000, lambda data, src, sport: got.append(data))
        a.udp_send(b.ip, 7000, b"cross-device")
        sim.run_for(2.0)
        assert got == [b"cross-device"]
        # The delivered frame came from the router, not from a directly.
        assert router.metrics.value("routing.flow_install_total") >= 1

    def test_upstream_round_trip(self, net):
        sim, router, a, _b = net
        results = []
        a.ping(router.cloud.ip, lambda ok, rtt: results.append(ok))
        sim.run_for(2.0)
        assert results == [True]

    def test_flows_ride_datapath_after_setup(self, net):
        sim, router, a, b = net
        got = []
        b.udp_bind(7000, lambda data, src, sport: got.append(data))
        a.udp_send(b.ip, 7000, b"one", sport=12345)
        sim.run_for(2.0)
        punts_before = router.metrics.value("openflow.punt_total")
        for i in range(5):
            a.udp_send(b.ip, 7000, b"again", sport=12345)
            sim.run_for(0.5)  # space sends so none races the flow-mod
        assert len(got) == 6
        # Same five-tuple: no further controller involvement (cache hits).
        assert router.metrics.value("openflow.punt_total") == punts_before
        assert router.datapath.cache_hits > 0

    def test_router_answers_icmp_to_gateway(self, net):
        sim, router, a, _b = net
        results = []
        a.ping(router.config.router_ip, lambda ok, rtt: results.append(ok))
        sim.run_for(2.0)
        assert results == [True]
        assert router.metrics.value("routing.echo_reply_total") >= 1

    def test_denied_device_traffic_dropped(self, net):
        sim, router, a, b = net
        got = []
        b.udp_bind(7000, lambda data, src, sport: got.append(data))
        # Deny after the lease exists; traffic should stop.
        router.dhcp.policy.deny(a.mac)
        a.udp_send(b.ip, 7000, b"should-not-arrive")
        sim.run_for(2.0)
        assert got == []
        assert router.metrics.value("routing.flow_block_total") >= 1

    def test_evict_device_removes_flows(self, net):
        sim, router, a, b = net
        got = []
        b.udp_bind(7000, lambda data, src, sport: got.append(data))
        a.udp_send(b.ip, 7000, b"warm-up")
        sim.run_for(2.0)
        flows_before = len(router.datapath.table)
        assert flows_before > 0
        router.router_core.evict_device(a.mac)
        sim.run_for(1.0)
        remaining = [
            e
            for e in router.datapath.table
            if int(a.mac) in (e.match.key[1], e.match.key[2])  # dl_src, dl_dst
        ]
        assert remaining == []

    def test_flow_idle_timeout_expires(self, net):
        sim, router, a, b = net
        got = []
        b.udp_bind(7000, lambda data, src, sport: got.append(data))
        a.udp_send(b.ip, 7000, b"x")
        sim.run_for(2.0)
        assert len(router.datapath.table) > 0
        sim.run_for(router.config.flow_idle_timeout + 5.0)
        assert len(router.datapath.table) == 0


class TestIsolationInvariant:
    def test_no_shared_subnet(self, net):
        _sim, _router, a, b = net
        assert a.network is not None and b.network is not None
        assert b.ip not in a.network
        assert a.ip not in b.network

    def test_all_frames_cross_datapath(self, net):
        """Every frame b receives was transmitted by the router's port."""
        sim, router, a, b = net
        b_port_on_dp = None
        for number, port in router.datapath.ports().items():
            if port.link is not None and port.link.peer(port) is b.port:
                b_port_on_dp = port
        assert b_port_on_dp is not None
        tx_before = b_port_on_dp.tx_packets
        got = []
        b.udp_bind(7000, lambda data, src, sport: got.append(data))
        a.udp_send(b.ip, 7000, b"via-router")
        sim.run_for(2.0)
        assert got and b_port_on_dp.tx_packets > tx_before
