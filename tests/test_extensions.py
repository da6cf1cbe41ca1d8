"""Tests for the extension features: NAT, pcap capture, flow-removed
accounting, and the CQL unparser (with parse∘unparse round trips)."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro import HomeworkRouter, RouterConfig, Simulator
from repro.core.errors import ServiceError
from repro.hwdb.cql import parse, unparse
from repro.measurement.capture import PacketCapture
from repro.net.addresses import IPv4Address
from repro.net.pcap import read_all
from repro.services.nat import NatTable

from tests.conftest import join_device


@pytest.fixture
def nat_env():
    sim = Simulator(seed=201)
    router = HomeworkRouter(
        sim, config=RouterConfig(default_permit=True, nat_enabled=True)
    )
    router.start()
    host = join_device(router, "laptop", "02:aa:00:00:00:01")
    return sim, router, host


class TestNatTable:
    def test_bind_allocates_external_port(self):
        table = NatTable(IPv4Address("82.10.0.2"))
        binding = table.bind(6, "10.2.0.6", 50000, now=0.0)
        assert 32768 <= binding.external_port <= 65535
        assert table.lookup_external(6, binding.external_port) is binding

    def test_binding_reused(self):
        table = NatTable(IPv4Address("82.10.0.2"))
        first = table.bind(6, "10.2.0.6", 50000, 0.0)
        again = table.bind(6, "10.2.0.6", 50000, 1.0)
        assert first is again
        assert table.allocations == 1

    def test_distinct_flows_distinct_ports(self):
        table = NatTable(IPv4Address("82.10.0.2"))
        a = table.bind(6, "10.2.0.6", 50000, 0.0)
        b = table.bind(6, "10.2.0.6", 50001, 0.0)
        c = table.bind(6, "10.2.0.10", 50000, 0.0)
        assert len({a.external_port, b.external_port, c.external_port}) == 3

    def test_protocols_independent(self):
        table = NatTable(IPv4Address("82.10.0.2"))
        tcp = table.bind(6, "10.2.0.6", 50000, 0.0)
        udp = table.bind(17, "10.2.0.6", 50000, 0.0)
        assert tcp is not udp

    def test_release(self):
        table = NatTable(IPv4Address("82.10.0.2"))
        binding = table.bind(6, "10.2.0.6", 50000, 0.0)
        table.release(6, binding.external_port)
        assert table.lookup_external(6, binding.external_port) is None
        assert len(table) == 0

    def test_release_device(self):
        table = NatTable(IPv4Address("82.10.0.2"))
        table.bind(6, "10.2.0.6", 50000, 0.0)
        table.bind(6, "10.2.0.6", 50001, 0.0)
        table.bind(6, "10.2.0.10", 50000, 0.0)
        assert table.release_device("10.2.0.6") == 2
        assert len(table) == 1

    def test_port_exhaustion(self):
        table = NatTable(IPv4Address("82.10.0.2"), port_range=(60000, 60002))
        for i in range(3):
            table.bind(6, "10.2.0.6", 50000 + i, 0.0)
        with pytest.raises(ServiceError):
            table.bind(6, "10.2.0.6", 59999, 0.0)

    def test_bad_port_range(self):
        with pytest.raises(ServiceError):
            NatTable(IPv4Address("82.10.0.2"), port_range=(100, 50))


class TestNatEndToEnd:
    def test_cloud_sees_only_external_ip(self, nat_env):
        sim, router, host = nat_env
        seen = []
        original = router.cloud._on_tcp

        def spy(src, *fields):
            seen.append(str(IPv4Address(src)))
            original(src, *fields)

        router.cloud._on_tcp = spy
        target = router.cloud.lookup("facebook.com")
        conn = host.tcp_connect(target, 443)
        conn.on_connect = lambda: conn.send(b"GET 10000 /x")
        sim.run_for(5.0)
        assert conn.bytes_received >= 10000
        assert set(seen) == {str(router.router_core.router_upstream_ip)}

    def test_udp_also_translated(self, nat_env):
        sim, router, host = nat_env
        target = router.cloud.lookup("iot.example.io")
        host.udp_send(target, 8883, b"telemetry")
        sim.run_for(2.0)
        assert len(router.router_core.nat) >= 1

    def test_two_devices_share_external_ip(self, nat_env):
        sim, router, host = nat_env
        other = join_device(router, "tv", "02:aa:00:00:00:02")
        target = router.cloud.lookup("bbc.co.uk")
        conns = []
        for device in (host, other):
            conn = device.tcp_connect(target, 80)
            conn.on_connect = lambda c=None, conn=conn: conn.send(b"GET 5000 /x")
            conns.append(conn)
        sim.run_for(5.0)
        assert all(c.bytes_received >= 5000 for c in conns)
        # Distinct external ports keep the flows apart.
        ports = {
            b.external_port
            for b in router.router_core.nat._by_private.values()
        }
        assert len(ports) == len(router.router_core.nat)

    def test_icmp_bypasses_nat(self, nat_env):
        sim, router, host = nat_env
        results = []
        host.ping(router.cloud.ip, lambda ok, rtt: results.append(ok))
        sim.run_for(2.0)
        assert results == [True]

    def test_nat_disabled_by_default(self):
        sim = Simulator(seed=202)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        assert router.router_core.nat is None


class TestPacketCapture:
    def test_capture_roundtrip(self):
        sim = Simulator(seed=203)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        buffer = io.BytesIO()
        capture = PacketCapture(sim, router.datapath, buffer)
        capture.start()
        host = join_device(router, "laptop", "02:aa:00:00:00:01")
        done = []
        host.ping(host.gateway, lambda ok, rtt: done.append(ok))
        sim.run_for(2.0)
        capture.stop()
        buffer.seek(0)
        records = read_all(buffer)
        assert capture.frames_captured == len(records)
        # Ingress at dp0: DHCP DISCOVER + REQUEST, ARP, ICMP echo.
        assert len(records) >= 4
        # Timestamps carry simulated time, monotone.
        stamps = [t for t, _raw in records]
        assert stamps == sorted(stamps)

    def test_max_frames_stops_capture(self):
        sim = Simulator(seed=204)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        buffer = io.BytesIO()
        capture = PacketCapture(sim, router.datapath, buffer, max_frames=1)
        capture.start()
        join_device(router, "laptop", "02:aa:00:00:00:01")
        assert capture.frames_captured == 1
        assert not capture.active

    def test_context_manager(self):
        sim = Simulator(seed=205)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        buffer = io.BytesIO()
        with PacketCapture(sim, router.datapath, buffer) as capture:
            join_device(router, "laptop", "02:aa:00:00:00:01")
            assert capture.active
        assert not capture.active
        assert router.datapath.taps == []


class TestFlowRemovedAccounting:
    def test_tail_bytes_not_lost(self):
        """Bytes sent between the last poll and flow expiry are captured
        by the flow-removed feed."""
        sim = Simulator(seed=206)
        config = RouterConfig(
            default_permit=True, flow_poll_interval=1000.0, flow_idle_timeout=2.0
        )
        router = HomeworkRouter(sim, config=config)
        router.start()
        a = join_device(router, "a", "02:aa:00:00:00:01")
        b = join_device(router, "b", "02:aa:00:00:00:02")
        got = []
        b.udp_bind(7000, lambda data, src, sport: got.append(data))
        a.udp_send(b.ip, 7000, b"x" * 500, sport=12345)
        sim.run_for(1.0)
        assert got
        # With a 1000 s poll interval, only flow expiry can record this.
        sim.run_for(10.0)  # idle timeout fires
        total = router.db.query(
            "SELECT sum(bytes) FROM flows WHERE dst_port = 7000"
        ).scalar()
        assert (total or 0) >= 500


class TestCqlUnparse:
    CASES = [
        "SELECT * FROM flows",
        "SELECT src_ip, sum(bytes) AS b FROM flows [RANGE 5.0 SECONDS] GROUP BY src_ip",
        "SELECT count(*) FROM leases [NOW]",
        "SELECT f.bytes FROM flows [ROWS 10] AS f, leases AS l WHERE (f.src_ip = l.ip)",
        "SELECT value FROM t WHERE ((a > 1) AND (b LIKE 'x%')) ORDER BY value DESC LIMIT 3",
        "INSERT INTO t (a, b) VALUES (1, 'it''s')",
        "CREATE TABLE t (a integer, b varchar) BUFFER 64",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_unparse_reparses(self, text):
        first = parse(text)
        rendered = unparse(first)
        second = parse(rendered)
        assert unparse(second) == rendered  # fixed point

    def test_select_normalisation(self):
        statement = parse("select A.x from  mytable a where a.x<>3")
        rendered = unparse(statement)
        assert "!=" in rendered
        assert "FROM mytable AS a" in rendered

    _ident = st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122),
        min_size=1,
        max_size=8,
    ).filter(lambda s: s not in {"select", "from", "where", "as", "and", "or",
                                 "not", "in", "like", "is", "null", "true",
                                 "false", "group", "by", "order", "limit",
                                 "rows", "now", "range", "since", "having",
                                 "desc", "asc", "on", "buffer", "table",
                                 "create", "insert", "into", "values",
                                 "second", "seconds", "minute", "minutes",
                                 "hour", "hours", "millisecond", "milliseconds"})

    @settings(max_examples=60)
    @given(
        columns=st.lists(_ident, min_size=1, max_size=4, unique=True),
        table=_ident,
        window_rows=st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=100)),
    )
    def test_roundtrip_property(self, columns, table, window_rows, limit):
        window = f" [ROWS {window_rows}]" if window_rows is not None else ""
        suffix = f" LIMIT {limit}" if limit is not None else ""
        text = f"SELECT {', '.join(columns)} FROM {table}{window}{suffix}"
        statement = parse(text)
        rendered = unparse(statement)
        reparsed = parse(rendered)
        assert unparse(reparsed) == rendered
        assert reparsed.limit == limit
        assert reparsed.sources[0].table == table
