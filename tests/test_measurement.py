"""Measurement plane: protocol mapping, collectors, aggregation."""

import pytest

from repro import HomeworkRouter, RouterConfig, Simulator
from repro.measurement.protocols import application_label, classify, protocol_label
from repro.net.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from repro.sim.traffic import VideoStreaming, WebBrowsing

from tests.conftest import join_device


class TestProtocolMapping:
    def test_https(self):
        assert classify(PROTO_TCP, 50000, 443) == ("https", "web")

    def test_direction_agnostic(self):
        assert classify(PROTO_TCP, 443, 50000) == ("https", "web")

    def test_ssh(self):
        assert classify(PROTO_TCP, 50000, 22) == ("ssh", "remote-access")

    def test_dns(self):
        assert classify(PROTO_UDP, 50000, 53) == ("dns", "infrastructure")

    def test_dhcp(self):
        assert classify(PROTO_UDP, 68, 67)[0] == "dhcp"

    def test_imaps_mail(self):
        assert application_label(PROTO_TCP, 50000, 993) == "mail"

    def test_icmp(self):
        assert classify(PROTO_ICMP, 0, 0) == ("icmp", "infrastructure")

    def test_unknown_falls_back_to_transport(self):
        assert classify(PROTO_TCP, 50000, 54321) == ("tcp", "other")
        assert classify(PROTO_UDP, 50000, 54321) == ("udp", "other")

    def test_unknown_transport(self):
        assert protocol_label(132, 0, 0) == "proto-132"

    def test_lower_port_wins(self):
        # Both 80 and 6881 are known; the lower (server) port classifies.
        assert classify(PROTO_TCP, 6881, 80)[0] == "http"


@pytest.fixture
def traffic_env():
    sim = Simulator(seed=71)
    router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
    router.start()
    laptop = join_device(router, "laptop", "02:aa:00:00:00:01")
    tv = join_device(router, "tv", "02:aa:00:00:00:02")
    return sim, router, laptop, tv


class TestFlowCollector:
    def test_flows_recorded_with_deltas(self, traffic_env):
        sim, router, laptop, _tv = traffic_env
        web = WebBrowsing(laptop)
        web.start(0.1)
        sim.run_for(20.0)
        web.stop()
        result = router.db.query(
            "SELECT sum(bytes) FROM flows WHERE dst_port = 443"
        )
        assert (result.scalar() or 0) > 0
        assert router.metrics.value("measurement.flow_row_total") > 0

    def test_no_rows_for_idle_flows(self, traffic_env):
        sim, router, _laptop, _tv = traffic_env
        rows_after_join = router.metrics.value("measurement.flow_row_total")
        sim.run_for(10.0)  # nothing happening
        assert router.metrics.value("measurement.flow_row_total") == rows_after_join

    def test_poll_counter(self, traffic_env):
        sim, router, _laptop, _tv = traffic_env
        polls_before = router.metrics.value("measurement.flow_poll_total")
        sim.run_for(5.0)
        assert router.metrics.value("measurement.flow_poll_total") == polls_before + 5


class TestLinkCollector:
    def test_wireless_rssi_recorded(self):
        sim = Simulator(seed=72)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        laptop = join_device(
            router, "laptop", "02:aa:00:00:00:01", wireless=True, position=(3, 4)
        )
        sim.run_for(3.0)
        result = router.db.query(
            f"SELECT last(rssi) AS rssi, last(wired) AS wired FROM links "
            f"WHERE mac = '{laptop.mac}' GROUP BY mac"
        )
        rssi, wired = result.rows[0]
        assert rssi < 0  # a real dBm figure
        assert wired is False

    def test_wired_device_rssi_zero(self, traffic_env):
        sim, router, _laptop, tv = traffic_env
        sim.run_for(2.0)
        result = router.db.query(
            f"SELECT last(rssi) AS rssi, last(wired) AS w FROM links "
            f"WHERE mac = '{tv.mac}' GROUP BY mac"
        )
        assert result.rows[0] == (0.0, True)


class TestAggregator:
    def test_per_device_attribution(self, traffic_env):
        sim, router, laptop, tv = traffic_env
        video = VideoStreaming(tv)
        video.start(0.1)
        sim.run_for(15.0)
        video.stop()
        usage = router.aggregator.per_device(window=15.0)
        by_name = {u.hostname: u for u in usage}
        assert "tv" in by_name
        # Download dominates for streaming.
        assert by_name["tv"].bytes_down > by_name["tv"].bytes_up
        assert by_name["tv"].bytes > 100_000

    def test_per_protocol_split(self, traffic_env):
        sim, router, laptop, _tv = traffic_env
        web = WebBrowsing(laptop)
        web.start(0.1)
        sim.run_for(15.0)
        protocols = dict(router.aggregator.per_protocol(laptop.mac, 15.0))
        assert protocols.get("https", 0) > 0
        assert protocols.get("dns", 0) >= 0

    def test_total_and_utilisation(self, traffic_env):
        sim, router, laptop, _tv = traffic_env
        web = WebBrowsing(laptop)
        web.start(0.1)
        sim.run_for(15.0)
        total = router.aggregator.total_bytes(15.0)
        assert total > 0
        peak = router.aggregator.peak_rate(history=3600.0, bucket=5.0)
        assert peak > 0
        utilisation = router.aggregator.utilisation(window=15.0, history=3600.0)
        assert 0.0 <= utilisation <= 1.0

    def test_empty_network(self):
        sim = Simulator(seed=73)
        router = HomeworkRouter(sim)
        router.start()
        assert router.aggregator.per_device(10.0) == []
        assert router.aggregator.total_bytes(10.0) == 0
        assert router.aggregator.utilisation() == 0.0
        assert router.aggregator.peak_rate() == 0.0


class TestAggregatorMemoization:
    """The UIs poll faster than leases change; the lease map and the
    protocol classification are memoized, and new flow rows always show."""

    def test_new_rows_invalidate_cache(self, traffic_env):
        sim, router, laptop, _tv = traffic_env
        web = WebBrowsing(laptop)
        web.start(0.1)
        sim.run_for(10.0)
        stale = router.aggregator.per_device(10.0)
        sim.run_for(10.0)  # more traffic -> new flow rows + clock change
        queries_before = router.metrics.value("hwdb.query_total")
        fresh = router.aggregator.per_device(10.0)
        assert router.metrics.value("hwdb.query_total") > queries_before
        assert sum(u.bytes for u in fresh) != sum(u.bytes for u in stale)

    def test_device_map_cached_until_lease_churn(self, traffic_env):
        sim, router, _laptop, _tv = traffic_env
        aggregator = router.aggregator
        aggregator._device_map()
        queries_before = router.metrics.value("hwdb.query_total")
        aggregator._device_map()
        assert router.metrics.value("hwdb.query_total") == queries_before
        phone = join_device(router, "phone", "02:aa:00:00:00:05")
        assert any(
            mac == str(phone.mac) for mac, _h in aggregator._device_map().values()
        )

    def test_classify_is_memoized(self):
        classify.cache_clear()
        classify(PROTO_TCP, 50000, 443)
        hits_before = classify.cache_info().hits
        classify(PROTO_TCP, 50000, 443)
        assert classify.cache_info().hits == hits_before + 1
