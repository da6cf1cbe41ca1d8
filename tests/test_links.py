"""Port, wired link, wireless link and radio environment tests."""

import pytest

from repro.core.errors import SimulationError
from repro.sim.link import Link, Port, WirelessLink
from repro.sim.simulator import Simulator
from repro.sim.wireless import PathLossModel, RadioEnvironment


@pytest.fixture
def sim():
    return Simulator(seed=3)


class _DuplicateEveryFrame:
    """Fault hook that delivers two copies of every frame, as the
    fuzzer's duplicate fault does."""

    def plan(self, sim, frame):
        return (0.0, 0.0)


def _pair(sim, link_cls=Link, **kwargs):
    a, b = Port("a"), Port("b")
    received = {"a": [], "b": []}
    a.on_receive(lambda data, port: received["a"].append(data))
    b.on_receive(lambda data, port: received["b"].append(data))
    link = link_cls(sim, a, b, **kwargs)
    return a, b, link, received


class TestPort:
    def test_send_without_link_fails(self):
        port = Port("lonely")
        assert port.send(b"data") is False

    def test_down_port_sends_nothing(self, sim):
        a, b, _link, received = _pair(sim)
        a.up = False
        assert a.send(b"x") is False
        sim.run_for(1.0)
        assert received["b"] == []

    def test_down_port_receives_nothing(self, sim):
        a, b, _link, received = _pair(sim)
        b.up = False
        a.send(b"x")
        sim.run_for(1.0)
        assert received["b"] == []

    def test_counters(self, sim):
        a, b, _link, _received = _pair(sim)
        a.send(b"12345")
        sim.run_for(1.0)
        assert a.tx_packets == 1 and a.tx_bytes == 5
        assert b.rx_packets == 1 and b.rx_bytes == 5


class TestLink:
    def test_delivery(self, sim):
        a, b, _link, received = _pair(sim)
        a.send(b"hello")
        sim.run_for(1.0)
        assert received["b"] == [b"hello"]
        assert received["a"] == []

    def test_bidirectional(self, sim):
        a, b, _link, received = _pair(sim)
        a.send(b"ping")
        b.send(b"pong")
        sim.run_for(1.0)
        assert received["b"] == [b"ping"]
        assert received["a"] == [b"pong"]

    def test_latency_applied(self, sim):
        a, b, _link, _ = _pair(sim, latency=0.5, bandwidth_bps=1e9)
        arrival = []
        b.on_receive(lambda data, port: arrival.append(sim.now))
        a.send(b"x")
        sim.run_for(1.0)
        assert arrival[0] == pytest.approx(0.5, abs=1e-3)

    def test_serialization_delay(self, sim):
        # 1000 bytes at 8 kbit/s = 1 second of serialization.
        a, b, _link, _ = _pair(sim, latency=0.0, bandwidth_bps=8000.0)
        arrival = []
        b.on_receive(lambda data, port: arrival.append(sim.now))
        a.send(b"\x00" * 1000)
        sim.run_for(2.0)
        assert arrival[0] == pytest.approx(1.0, rel=1e-6)

    def test_back_to_back_frames_queue(self, sim):
        a, b, _link, _ = _pair(sim, latency=0.0, bandwidth_bps=8000.0)
        arrival = []
        b.on_receive(lambda data, port: arrival.append(sim.now))
        a.send(b"\x00" * 1000)
        a.send(b"\x00" * 1000)
        sim.run_for(3.0)
        assert arrival == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_directions_queue_separately(self, sim):
        # 1000 bytes at 8 kbit/s = 1 second on the medium, each way.
        a, b, _link, _ = _pair(sim, latency=0.0, bandwidth_bps=8000.0)
        arrival = {"a": [], "b": []}
        a.on_receive(lambda data, port: arrival["a"].append(sim.now))
        b.on_receive(lambda data, port: arrival["b"].append(sim.now))
        a.send(b"\x00" * 1000)
        b.send(b"\x00" * 1000)
        b.send(b"\x00" * 1000)
        sim.run_for(3.0)
        assert arrival["b"] == [pytest.approx(1.0)]
        assert arrival["a"] == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_in_order_delivery(self, sim):
        a, b, _link, received = _pair(sim)
        for i in range(20):
            a.send(bytes([i]))
        sim.run_for(1.0)
        assert received["b"] == [bytes([i]) for i in range(20)]

    def test_port_reuse_rejected(self, sim):
        a, b, _link, _ = _pair(sim)
        c = Port("c")
        with pytest.raises(SimulationError):
            Link(sim, a, c)

    def test_bad_parameters(self, sim):
        with pytest.raises(SimulationError):
            Link(sim, Port("x"), Port("y"), latency=-1)
        with pytest.raises(SimulationError):
            Link(sim, Port("p"), Port("q"), bandwidth_bps=0)

    def test_peer(self, sim):
        a, b, link, _ = _pair(sim)
        assert link.peer(a) is b
        assert link.peer(b) is a
        with pytest.raises(SimulationError):
            link.peer(Port("stranger"))

    def test_byte_counters(self, sim):
        a, _b, link, _ = _pair(sim)
        a.send(b"12345")
        sim.run_for(1.0)
        assert link.frames_carried == 1
        assert link.bytes_carried == 5

    def test_duplicate_fault_delivers_each_copy_as_its_own_event(self, sim):
        a, b, link, _ = _pair(sim)
        link.fault = _DuplicateEveryFrame()
        arrivals = []
        b.on_receive(lambda data, port: arrivals.append((sim.now, data)))
        a.send(b"first")
        a.send(b"second")
        assert sim.run_for(1.0) == 4
        assert [data for _, data in arrivals] == [b"first", b"first", b"second", b"second"]
        assert arrivals[0][0] == arrivals[1][0] < arrivals[2][0] == arrivals[3][0]
        assert link.frames_carried == 2


class TestWirelessLink:
    def test_good_signal_low_loss(self, sim):
        _a, _b, link, _ = _pair(sim, WirelessLink, rssi_dbm=-45.0)
        assert link.loss_probability() < 0.01

    def test_terrible_signal_high_loss(self, sim):
        _a, _b, link, _ = _pair(sim, WirelessLink, rssi_dbm=-95.0)
        assert link.loss_probability() > 0.9

    def test_loss_monotone_in_rssi(self, sim):
        _a, _b, link, _ = _pair(sim, WirelessLink)
        losses = []
        for rssi in (-50, -65, -75, -85, -95):
            link.set_rssi(rssi)
            losses.append(link.loss_probability())
        assert losses == sorted(losses)

    def test_delivery_with_good_signal(self, sim):
        a, _b, link, received = _pair(sim, WirelessLink, rssi_dbm=-45.0)
        for _ in range(50):
            a.send(b"frame")
        sim.run_for(5.0)
        assert len(received["b"]) == 50

    def test_retries_accumulate_with_poor_signal(self, sim):
        a, _b, link, received = _pair(sim, WirelessLink, rssi_dbm=-80.0)
        for _ in range(200):
            a.send(b"frame")
        sim.run_for(20.0)
        assert link.retries > 0
        assert link.retry_proportion() > 0.1
        # Link-level retries mean most frames still arrive.
        assert len(received["b"]) > 100

    def test_drops_when_unusable(self, sim):
        a, _b, link, received = _pair(sim, WirelessLink, rssi_dbm=-95.0, max_retries=2)
        for _ in range(100):
            a.send(b"frame")
        sim.run_for(20.0)
        assert link.frames_dropped > 50

    def test_retry_proportion_zero_initially(self, sim):
        _a, _b, link, _ = _pair(sim, WirelessLink)
        assert link.retry_proportion() == 0.0


class TestRadioEnvironment:
    def test_rssi_decreases_with_distance(self):
        env = RadioEnvironment(ap_position=(0, 0))
        near = env.rssi_at((1, 0))
        far = env.rssi_at((20, 0))
        assert near > far

    def test_wall_attenuates(self):
        env = RadioEnvironment(ap_position=(0, 0))
        free = env.rssi_at((10, 0))
        env.add_wall((5, -5), (5, 5))
        assert env.rssi_at((10, 0)) == pytest.approx(free - env.model.wall_loss_db)

    def test_wall_not_crossed_no_effect(self):
        env = RadioEnvironment(ap_position=(0, 0))
        env.add_wall((5, 1), (5, 5))  # off to the side
        assert env.walls_between((0, 0), (10, 0)) == 0

    def test_move_updates_link_rssi(self):
        sim = Simulator()
        a, b = Port("sta"), Port("ap")
        link = WirelessLink(sim, a, b)
        env = RadioEnvironment(ap_position=(0, 0))
        env.register("sta", link, (2, 0))
        near = link.rssi_dbm
        env.move("sta", (25, 0))
        assert link.rssi_dbm < near

    def test_move_unknown_station(self):
        env = RadioEnvironment()
        with pytest.raises(KeyError):
            env.move("ghost", (1, 1))

    def test_path_loss_model_reference_distance(self):
        model = PathLossModel(tx_power_dbm=20.0, pl0_db=40.0)
        assert model.rssi(1.0) == pytest.approx(-20.0)
        assert model.rssi(0.1) == pytest.approx(-20.0)  # clamped at d0

    def test_stations_listing(self):
        sim = Simulator()
        env = RadioEnvironment()
        link = WirelessLink(sim, Port("a"), Port("b"))
        env.register("kitchen-tablet", link, (1, 1))
        assert env.stations() == ["kitchen-tablet"]
        assert env.station_rssi("kitchen-tablet") == link.rssi_dbm
