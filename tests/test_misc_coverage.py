"""Edge-case coverage across smaller surfaces."""

import pytest

from repro import HomeworkRouter, RouterConfig, Simulator
from repro.core.errors import ConfigError, HwdbError
from repro.hwdb.types import BOOLEAN, INTEGER, REAL, TIMESTAMP
from repro.nox.controller import Controller
from repro.openflow.channel import SecureChannel
from repro.openflow.datapath import Datapath
from repro.openflow.flow_table import FlowEntry
from repro.openflow.match import Match
from repro.openflow.actions import output
from repro.openflow.messages import (
    FlowRemoved,
    PortDescription,
    RR_IDLE_TIMEOUT,
    StatsReply,
    STATS_FLOW,
    next_xid,
)
from repro.ui.bandwidth_view import BandwidthView

from tests.conftest import join_device


class TestTypesCoercion:
    def test_boolean_variants(self):
        for value in (True, 1, "true", "T", "yes", "1"):
            assert BOOLEAN.coerce(value) is True
        for value in (False, 0, "false", "f", "no", "0"):
            assert BOOLEAN.coerce(value) is False

    def test_boolean_garbage(self):
        with pytest.raises(HwdbError):
            BOOLEAN.coerce("maybe")

    def test_numeric_coercions(self):
        assert INTEGER.coerce("42") == 42
        assert REAL.coerce("2.5") == 2.5
        assert TIMESTAMP.coerce(3) == 3.0

    def test_numeric_garbage(self):
        with pytest.raises(HwdbError):
            INTEGER.coerce("forty-two")


class TestMessages:
    def test_xids_monotonic(self):
        a, b = next_xid(), next_xid()
        assert b > a

    def test_flow_removed_from_entry(self):
        entry = FlowEntry(Match(tp_dst=80), output(1), cookie=7, created_at=1.0)
        entry.touch(5.0, 100)
        msg = FlowRemoved.from_entry(entry, RR_IDLE_TIMEOUT)
        assert msg.cookie == 7
        assert msg.duration == 4.0
        assert msg.byte_count == 100

    def test_port_description_repr(self):
        assert "eth0" in repr(PortDescription(1, "eth0"))


class TestControllerDispatchPaths:
    def _wired(self):
        sim = Simulator(seed=501)
        dp = Datapath(sim)
        channel = SecureChannel(sim, latency=0.0)
        controller = Controller(sim)
        channel.connect(dp, controller.receive)
        controller.connect(channel)
        return sim, dp, controller, channel

    def test_channel_disconnect_blocks_both_ways(self):
        sim, dp, controller, channel = self._wired()
        channel.disconnect()
        before = channel.registry.value("openflow.channel_to_switch_total")
        controller.send(StatsReply(STATS_FLOW, []))  # silently dropped
        assert channel.registry.value("openflow.channel_to_switch_total") == before


class TestRouterFacade:
    def test_duplicate_device_rejected(self):
        sim = Simulator(seed=502)
        router = HomeworkRouter(sim)
        router.add_device("tv", "02:aa:00:00:00:01")
        with pytest.raises(ConfigError):
            router.add_device("tv", "02:aa:00:00:00:02")

    def test_device_lookup_and_link(self):
        sim = Simulator(seed=503)
        router = HomeworkRouter(sim)
        host = router.add_device("tv", "02:aa:00:00:00:01")
        assert router.device("tv") is host
        assert router.device_link("tv") is not None
        assert router.devices() == [host]

    def test_deny_by_name(self):
        sim = Simulator(seed=504)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        host = join_device(router, "tv", "02:aa:00:00:00:01")
        router.deny("tv")
        assert router.dhcp.policy.state_of(host.mac) == "denied"

    def test_start_stop_idempotent(self):
        sim = Simulator(seed=505)
        router = HomeworkRouter(sim)
        router.start()
        router.start()
        router.stop()
        router.stop()

    def test_repr(self):
        sim = Simulator(seed=506)
        router = HomeworkRouter(sim)
        assert "devices=0" in repr(router)


class TestCloudServeHook:
    def test_on_serve_callback(self):
        sim = Simulator(seed=507)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        host = join_device(router, "laptop", "02:aa:00:00:00:01")
        served = []
        router.cloud.on_serve = served.append
        target = router.cloud.lookup("bbc.co.uk")
        conn = host.tcp_connect(target, 80)
        conn.on_connect = lambda: conn.send(b"GET 100 /x")
        sim.run_for(3.0)
        assert len(served) == 1


class TestBandwidthViewEdges:
    def test_live_mode_requires_sim(self):
        sim = Simulator(seed=508)
        router = HomeworkRouter(sim)
        view = BandwidthView(router.aggregator, sim=None)
        with pytest.raises(RuntimeError):
            view.start()

    def test_detail_for_unknown_device(self):
        sim = Simulator(seed=509)
        router = HomeworkRouter(sim)
        view = BandwidthView(router.aggregator, sim)
        view.refresh()
        view.select_device("02:ff:00:00:00:01")
        assert "no activity" in view.render()


class TestCqlEdges:
    def _db(self):
        from repro.core.clock import SimulatedClock
        from repro.hwdb.database import HomeworkDatabase

        clock = SimulatedClock()
        db = HomeworkDatabase(clock)
        db.create_table("t", [("x", "real")])
        for i in range(10):
            clock.advance(1.0)
            db.insert("t", [float(i)])
        return db

    def test_limit_zero(self):
        db = self._db()
        assert db.query("SELECT x FROM t LIMIT 0").rows == []

    def test_stddev(self):
        db = self._db()
        value = db.query("SELECT stddev(x) FROM t").scalar()
        assert value == pytest.approx(3.0276, abs=1e-3)

    def test_stddev_single_value(self):
        db = self._db()
        assert db.query("SELECT stddev(x) FROM t [NOW]").scalar() == 0.0

    def test_since_window_on_join(self):
        db = self._db()
        db.create_table("u", [("y", "real")])
        db.insert("u", [1.0])
        result = db.query(
            "SELECT count(*) FROM t [SINCE 8] a, u b WHERE a.x >= b.y"
        )
        assert result.scalar() == 3  # x in {7,8,9} all >= 1

    def test_rows_window_zero(self):
        db = self._db()
        assert db.query("SELECT x FROM t [ROWS 0]").rows == []

    def test_avg_of_empty_is_null(self):
        db = self._db()
        assert db.query("SELECT avg(x) FROM t WHERE x > 100").scalar() is None
