"""Host network stack tests: ARP, UDP, TCP, DNS stub, ICMP, DHCP client.

Hosts are wired back-to-back or through a dumb hub so the stack is
exercised without the router.
"""

import pytest

from repro.net.addresses import IPv4Address
from repro.sim.host import DHCP_BOUND, DHCP_SELECTING, Host
from repro.sim.link import Link, Port
from repro.sim.simulator import Simulator
from repro.sim.upstream import InternetCloud


@pytest.fixture
def sim():
    return Simulator(seed=9)


@pytest.fixture
def pair(sim):
    """Two statically configured hosts on one wire."""
    h1 = Host(sim, "h1", "02:00:00:00:00:11")
    h2 = Host(sim, "h2", "02:00:00:00:00:12")
    Link(sim, h1.port, h2.port)
    h1.configure_static("192.168.0.1", "255.255.255.0")
    h2.configure_static("192.168.0.2", "255.255.255.0")
    return h1, h2


class TestArp:
    def test_resolution_and_delivery(self, sim, pair):
        h1, h2 = pair
        got = []
        h2.udp_bind(7000, lambda data, src, sport: got.append(data))
        h1.udp_send("192.168.0.2", 7000, b"after-arp")
        sim.run_for(1.0)
        assert got == [b"after-arp"]
        assert int(IPv4Address("192.168.0.2")) in h1._arp_table

    def test_queued_frames_flush_after_reply(self, sim, pair):
        h1, h2 = pair
        got = []
        h2.udp_bind(7000, lambda data, src, sport: got.append(data))
        for i in range(3):
            h1.udp_send("192.168.0.2", 7000, bytes([i]))
        sim.run_for(1.0)
        assert got == [b"\x00", b"\x01", b"\x02"]

    def test_gratuitous_learning(self, sim, pair):
        h1, h2 = pair
        # h2 learns h1's mapping from the request itself.
        h1.udp_send("192.168.0.2", 7000, b"x")
        sim.run_for(1.0)
        assert int(IPv4Address("192.168.0.1")) in h2._arp_table


class TestUdp:
    def test_bind_and_receive(self, sim, pair):
        h1, h2 = pair
        got = []
        h2.udp_bind(5000, lambda data, src, sport: got.append((data, str(src), sport)))
        sport = h1.udp_send("192.168.0.2", 5000, b"hello")
        sim.run_for(1.0)
        assert got == [(b"hello", "192.168.0.1", sport)]

    def test_unbound_port_dropped(self, sim, pair):
        h1, h2 = pair
        h1.udp_send("192.168.0.2", 9999, b"nobody-home")
        sim.run_for(1.0)  # no exception, silently dropped

    def test_unbind(self, sim, pair):
        h1, h2 = pair
        got = []
        h2.udp_bind(5000, lambda data, src, sport: got.append(data))
        h2.udp_unbind(5000)
        h1.udp_send("192.168.0.2", 5000, b"x")
        sim.run_for(1.0)
        assert got == []

    def test_ephemeral_ports_distinct(self, sim, pair):
        h1, h2 = pair
        p1 = h1.udp_send("192.168.0.2", 5000, b"a")
        p2 = h1.udp_send("192.168.0.2", 5000, b"b")
        assert p1 != p2

    def test_send_without_address_fails(self, sim):
        host = Host(sim, "noaddr", "02:00:00:00:00:99")
        with pytest.raises(ConnectionError):
            host.udp_send("192.168.0.2", 5000, b"x")


class TestTcp:
    def test_handshake_and_data(self, sim, pair):
        h1, h2 = pair
        server_data = []
        accepted = []

        def on_accept(conn):
            accepted.append(conn)
            conn.on_data = server_data.append

        h2.tcp_listen(8080, on_accept)
        conn = h1.tcp_connect("192.168.0.2", 8080)
        connected = []
        conn.on_connect = lambda: (connected.append(True), conn.send(b"request"))
        sim.run_for(2.0)
        assert connected == [True]
        assert conn.state == "ESTABLISHED"
        assert accepted[0].state == "ESTABLISHED"
        assert server_data == [b"request"]

    def test_server_replies(self, sim, pair):
        h1, h2 = pair
        client_data = []

        def on_accept(conn):
            conn.on_data = lambda data: conn.send(b"response:" + data)

        h2.tcp_listen(8080, on_accept)
        conn = h1.tcp_connect("192.168.0.2", 8080)
        conn.on_connect = lambda: conn.send(b"hi")
        conn.on_data = client_data.append
        sim.run_for(2.0)
        assert client_data == [b"response:hi"]

    def test_segmentation(self, sim, pair):
        h1, h2 = pair
        received = []

        def on_accept(conn):
            conn.on_data = received.append

        h2.tcp_listen(80, on_accept)
        conn = h1.tcp_connect("192.168.0.2", 80)
        payload = b"z" * 5000
        conn.on_connect = lambda: conn.send(payload, mss=1400)
        sim.run_for(2.0)
        assert b"".join(received) == payload
        assert len(received) == 4  # 1400*3 + 800

    def test_byte_counters(self, sim, pair):
        h1, h2 = pair
        h2.tcp_listen(80, lambda conn: None)
        conn = h1.tcp_connect("192.168.0.2", 80)
        conn.on_connect = lambda: conn.send(b"x" * 100)
        sim.run_for(2.0)
        assert conn.bytes_sent == 100

    def test_close_handshake(self, sim, pair):
        h1, h2 = pair
        server_conns = []
        h2.tcp_listen(80, server_conns.append)
        conn = h1.tcp_connect("192.168.0.2", 80)
        conn.on_connect = conn.close
        closed = []
        conn.on_close = lambda: closed.append(True)
        sim.run_for(2.0)
        assert conn.state == "CLOSED"
        assert closed == [True]

    def test_connection_refused_rst(self, sim, pair):
        h1, _h2 = pair
        conn = h1.tcp_connect("192.168.0.2", 4444)  # nobody listening
        closed = []
        conn.on_close = lambda: closed.append(True)
        sim.run_for(2.0)
        assert conn.state == "CLOSED"
        assert closed == [True]

    def test_send_before_established_raises(self, sim, pair):
        h1, h2 = pair
        h2.tcp_listen(80, lambda conn: None)
        conn = h1.tcp_connect("192.168.0.2", 80)
        with pytest.raises(ConnectionError):
            conn.send(b"too-early")


class TestIcmp:
    def test_ping_reply(self, sim, pair):
        h1, _h2 = pair
        results = []
        h1.ping("192.168.0.2", lambda ok, rtt: results.append((ok, rtt)))
        sim.run_for(1.0)
        assert len(results) == 1
        assert results[0][0] is True
        assert results[0][1] > 0

    def test_multiple_pings_matched_by_seq(self, sim, pair):
        h1, _h2 = pair
        results = []
        for _ in range(3):
            h1.ping("192.168.0.2", lambda ok, rtt: results.append(ok))
        sim.run_for(1.0)
        assert results == [True, True, True]

    def test_ping_past_the_16_bit_sequence_space(self, sim, pair):
        """The echo carries the sequence number modulo 2**16; the reply to
        a host's 65,536th ping must still find its callback."""
        h1, _h2 = pair
        results = []
        h1._ping_seq = 0xFFFF
        h1.ping("192.168.0.2", lambda ok, rtt: results.append(ok))
        sim.run_for(1.0)
        assert results == [True]
        assert h1._ping_pending == {}


class TestDnsStub:
    def test_resolution_via_cloud(self, sim):
        cloud = InternetCloud(sim, ip="82.10.0.1")
        host = Host(sim, "h", "02:00:00:00:00:21")
        Link(sim, host.port, cloud.port)
        host.configure_static(
            "82.10.0.2", "255.255.255.0", dns_server="82.10.0.1"
        )
        got = []
        host.resolve("facebook.com", lambda ip, rc: got.append((str(ip), rc)))
        sim.run_for(1.0)
        assert got == [("31.13.72.36", 0)]

    def test_nxdomain(self, sim):
        cloud = InternetCloud(sim, ip="82.10.0.1")
        host = Host(sim, "h", "02:00:00:00:00:21")
        Link(sim, host.port, cloud.port)
        host.configure_static("82.10.0.2", "255.255.255.0", dns_server="82.10.0.1")
        got = []
        host.resolve("no.such.site", lambda ip, rc: got.append((ip, rc)))
        sim.run_for(1.0)
        assert got[0][0] is None
        assert got[0][1] == 3  # NXDOMAIN

    def test_cache_hit_no_network(self, sim):
        cloud = InternetCloud(sim, ip="82.10.0.1")
        host = Host(sim, "h", "02:00:00:00:00:21")
        Link(sim, host.port, cloud.port)
        host.configure_static("82.10.0.2", "255.255.255.0", dns_server="82.10.0.1")
        got = []
        host.resolve("facebook.com", lambda ip, rc: got.append(str(ip)))
        sim.run_for(1.0)
        served_before = cloud.dns_queries_served
        host.resolve("facebook.com", lambda ip, rc: got.append(str(ip)))
        sim.run_for(1.0)
        assert got == ["31.13.72.36", "31.13.72.36"]
        assert cloud.dns_queries_served == served_before

    def test_no_dns_server_configured(self, sim, pair):
        h1, _ = pair
        with pytest.raises(ConnectionError):
            h1.resolve("x.com", lambda ip, rc: None)


class TestDhcpClientStates:
    def test_initial_state(self, sim):
        host = Host(sim, "h", "02:00:00:00:00:31")
        assert host.dhcp_state == "INIT"
        assert host.ip is None

    def test_discover_broadcast_sent(self, sim):
        host = Host(sim, "h", "02:00:00:00:00:31")
        captured = []
        peer = Port("wire")
        peer.on_receive(lambda data, port: captured.append(data))
        Link(sim, host.port, peer)
        host.start_dhcp(retry_interval=0)
        sim.run_for(1.0)
        assert host.dhcp_state == DHCP_SELECTING
        assert len(captured) == 1

    def test_retry_while_unanswered(self, sim):
        host = Host(sim, "h", "02:00:00:00:00:31")
        captured = []
        peer = Port("wire")
        peer.on_receive(lambda data, port: captured.append(data))
        Link(sim, host.port, peer)
        host.start_dhcp(retry_interval=2.0)
        sim.run_for(7.0)
        assert len(captured) >= 3  # initial + at least 2 retries

    def test_static_config_marks_bound(self, sim):
        host = Host(sim, "h", "02:00:00:00:00:31")
        host.configure_static("10.0.0.5")
        assert host.dhcp_state == DHCP_BOUND
        assert host.network is not None
