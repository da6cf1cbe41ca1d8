"""hwdb RPC over real simulated UDP, through the datapath."""

import logging

import pytest

from repro import HomeworkRouter, RouterConfig, Simulator
from repro.core.errors import RpcError
from repro.hwdb.rpc import pack_resultset
from repro.hwdb.udp_gateway import RemoteHwdbClient
from repro.net.udp import MAX_PAYLOAD

from tests.conftest import join_device


@pytest.fixture
def env():
    sim = Simulator(seed=401)
    router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
    router.start()
    gateway_ip = router.enable_rpc_gateway()
    station = join_device(router, "monitor-station", "02:aa:00:00:00:06")
    client = RemoteHwdbClient(station, gateway_ip)
    return sim, router, station, client


class TestRemoteRpc:
    def test_query_over_the_wire(self, env):
        sim, router, _station, client = env
        router.db.insert(
            "leases",
            {
                "mac": "02:aa:00:00:00:06",
                "ip": "10.2.0.10",
                "hostname": "monitor-station",
                "action": "granted",
                "expires": 0.0,
            },
        )
        results = []
        client.query(
            "SELECT hostname FROM leases [NOW]",
            lambda result, error: results.append((result, error)),
        )
        sim.run_for(2.0)
        assert len(results) == 1
        result, error = results[0]
        assert error is None
        assert result.rows == [("monitor-station",)]
        # The exchange really crossed the datapath.
        assert router.rpc_gateway.datagrams_handled == 1

    def test_query_error_over_the_wire(self, env):
        sim, _router, _station, client = env
        results = []
        client.query(
            "SELECT * FROM missing_table",
            lambda result, error: results.append((result, error)),
        )
        sim.run_for(2.0)
        result, error = results[0]
        assert result is None
        assert "missing_table" in error

    def test_single_inflight_query_enforced(self, env):
        _sim, _router, _station, client = env
        client.query("SELECT count(*) FROM flows", lambda r, e: None)
        with pytest.raises(RpcError):
            client.query("SELECT count(*) FROM flows", lambda r, e: None)

    def test_subscription_pushes_arrive_as_datagrams(self, env):
        sim, router, station, client = env
        pushes = []
        subscribed = []
        client.subscribe(
            "SELECT count(*) AS n FROM leases [RANGE 1000 SECONDS]",
            interval=1.0,
            on_push=pushes.append,
            on_subscribed=lambda sub_id, error: subscribed.append(sub_id),
        )
        sim.run_for(0.5)
        assert subscribed and subscribed[0] is not None
        router.db.insert(
            "leases",
            {
                "mac": "02:aa:00:00:00:06",
                "ip": "10.2.0.10",
                "hostname": "x",
                "action": "granted",
                "expires": 0.0,
            },
        )
        sim.run_for(3.0)
        assert len(pushes) >= 2
        assert pushes[0].columns == ["n"]
        # Pushed over UDP: the station's stack received them.
        assert client.responses_received >= 3  # SUBSCRIBED + 2 pushes

    def test_unsubscribe_stops_pushes(self, env):
        sim, router, _station, client = env
        pushes = []
        sub_ids = []
        client.subscribe(
            "SELECT count(*) AS n FROM leases",
            interval=1.0,
            on_push=pushes.append,
            on_subscribed=lambda sub_id, error: sub_ids.append(sub_id),
        )
        router.db.insert(
            "leases",
            {"mac": "02:aa:00:00:00:06", "ip": "10.2.0.10", "hostname": "x",
             "action": "granted", "expires": 0.0},
        )
        sim.run_for(2.5)
        count_before = len(pushes)
        assert count_before >= 1
        client.unsubscribe(sub_ids[0])
        sim.run_for(5.0)
        assert len(pushes) == count_before

    def test_gateway_idempotent(self, env):
        _sim, router, _station, _client = env
        ip_one = router.enable_rpc_gateway()
        ip_two = router.enable_rpc_gateway()
        assert ip_one == ip_two

    def test_live_measurement_via_remote_subscription(self, env):
        """The Figure-1 data path exactly as deployed: UI device
        subscribes over UDP, traffic appears, pushes flow back."""
        sim, router, station, client = env
        laptop = join_device(env[1], "laptop", "02:aa:00:00:00:07")
        pushes = []
        client.subscribe(
            "SELECT src_mac, sum(bytes) AS b FROM flows [RANGE 10 SECONDS] "
            "GROUP BY src_mac",
            interval=2.0,
            on_push=pushes.append,
        )
        from repro.sim.traffic import WebBrowsing

        web = WebBrowsing(laptop)
        web.start(0.2)
        sim.run_for(20.0)
        assert pushes
        assert any(row[1] > 0 for push in pushes for row in push.rows)


def fill_leases(router, rows=2000):
    """Enough lease rows that ``SELECT * FROM leases`` outgrows one
    UDP datagram."""
    for i in range(rows):
        router.db.insert(
            "leases",
            {"mac": f"02:cc:00:00:{i >> 8:02x}:{i & 0xFF:02x}",
             "ip": f"10.3.{i >> 8}.{i & 0xFF}", "hostname": f"device-{i}",
             "action": "granted", "expires": 0.0},
        )
    answer = pack_resultset(router.db.query("SELECT * FROM leases"))
    assert len(answer.encode("utf-8")) > MAX_PAYLOAD


class TestRepliesLargerThanADatagram:
    def test_query_is_answered_with_an_error(self, env):
        sim, router, _station, client = env
        fill_leases(router)
        results = []
        client.query("SELECT * FROM leases", lambda result, error: results.append((result, error)))
        sim.run_for(2.0)
        assert len(results) == 1
        result, error = results[0]
        assert result is None
        assert "too large" in error
        # The client is free again, and its next query is answered.
        client.query(
            "SELECT count(*) AS n FROM leases",
            lambda result, error: results.append((result, error)),
        )
        sim.run_for(2.0)
        result, error = results[1]
        assert error is None and result.columns == ["n"]

    def test_push_is_dropped_and_logged(self, env):
        sim, router, _station, client = env
        pushes = []
        subscribed = []
        client.subscribe(
            "SELECT * FROM leases",
            interval=1.0,
            on_push=pushes.append,
            on_subscribed=lambda sub_id, error: subscribed.append(error),
        )
        sim.run_for(0.5)
        assert subscribed == [None]
        fill_leases(router)
        # Listen on the package logger itself: the CLI's logging set-up
        # stops it propagating to the root logger.
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        package_logger = logging.getLogger("repro")
        package_logger.addHandler(handler)
        try:
            sim.run_for(2.0)
        finally:
            package_logger.removeHandler(handler)
        messages = [record.getMessage() for record in records]
        assert pushes == []
        assert any("too large" in message for message in messages)
        assert not any("callback failed" in message for message in messages)
        # The run goes on, and the gateway still answers.
        results = []
        client.query("SELECT count(*) AS n FROM leases", lambda r, e: results.append(e))
        sim.run_for(2.0)
        assert results == [None]
