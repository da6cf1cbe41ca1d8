"""NOX controller core and component model tests."""

import pytest

from repro.core.errors import ControllerError
from repro.net import ETH_TYPE_IPV4, PROTO_TCP
from repro.nox.component import CONTINUE, Component, STOP
from repro.nox.controller import Controller, EV_PACKET_IN
from repro.nox.l2_learning import L2LearningSwitch
from repro.openflow.channel import SecureChannel
from repro.openflow.datapath import Datapath
from repro.openflow.match import Match
from repro.openflow.messages import STATS_FLOW, StatsReply
from repro.openflow.actions import output
from repro.sim.host import Host
from repro.sim.link import Link
from repro.sim.simulator import Simulator

from tests.reference_codecs import Ethernet, IPv4, TCP


@pytest.fixture
def sim():
    return Simulator(seed=11)


@pytest.fixture
def wired(sim):
    """Datapath + controller over a zero-latency channel."""
    dp = Datapath(sim)
    channel = SecureChannel(sim, latency=0.0)
    controller = Controller(sim)
    channel.connect(dp, controller.receive)
    controller.connect(channel)
    return dp, controller


def frame(sport=1000):
    return Ethernet(
        "02:00:00:00:00:02",
        "02:00:00:00:00:01",
        ETH_TYPE_IPV4,
        IPv4("10.0.0.1", "10.0.0.2", proto=PROTO_TCP, payload=TCP(sport, 80)),
    ).pack()


class Recorder(Component):
    name = "recorder"

    def __init__(self, controller, priority=100, verdict=CONTINUE):
        super().__init__(controller)
        self.priority = priority
        self.verdict = verdict
        self.seen = []

    def install(self):
        self.register_handler(EV_PACKET_IN, self.on_packet, priority=self.priority)

    def on_packet(self, msg):
        self.seen.append(msg)
        return self.verdict


class TestControllerCore:
    def test_handshake_learns_dpid_and_ports(self, sim, wired):
        dp, controller = wired
        dp.add_port("eth1")
        controller.send(
            __import__("repro.openflow.messages", fromlist=["FeaturesRequest"]).FeaturesRequest()
        )
        assert controller.datapath_id == dp.datapath_id

    def test_packet_in_dispatch(self, wired):
        dp, controller = wired
        dp.add_port("eth1")
        recorder = controller.add_component(Recorder)
        dp.process_frame(frame(), 1)
        assert len(recorder.seen) == 1
        assert controller.packet_ins_handled == 1

    def test_priority_chain_and_stop(self, wired):
        dp, controller = wired
        dp.add_port("eth1")
        first = Recorder(controller, priority=10, verdict=STOP)
        first.name = "first"
        first.install()
        second = Recorder(controller, priority=20)
        second.name = "second"
        second.install()
        dp.process_frame(frame(), 1)
        assert len(first.seen) == 1
        assert len(second.seen) == 0  # STOP consumed the event

    def test_continue_passes_down(self, wired):
        dp, controller = wired
        dp.add_port("eth1")
        first = Recorder(controller, priority=10, verdict=CONTINUE)
        first.name = "a"
        first.install()
        second = Recorder(controller, priority=20)
        second.name = "b"
        second.install()
        dp.process_frame(frame(), 1)
        assert len(second.seen) == 1

    def test_broken_handler_does_not_break_chain(self, wired):
        dp, controller = wired
        dp.add_port("eth1")

        def broken(msg):
            raise RuntimeError("component bug")

        controller.register_handler(EV_PACKET_IN, broken, priority=1)
        recorder = controller.add_component(Recorder)
        dp.process_frame(frame(), 1)
        assert len(recorder.seen) == 1

    def test_duplicate_component_rejected(self, wired):
        _dp, controller = wired
        controller.add_component(Recorder)
        with pytest.raises(ControllerError):
            controller.add_component(Recorder)

    def test_component_lookup_and_remove(self, wired):
        dp, controller = wired
        dp.add_port("eth1")
        recorder = controller.add_component(Recorder)
        assert controller.component("recorder") is recorder
        controller.remove_component("recorder")
        with pytest.raises(ControllerError):
            controller.component("recorder")
        dp.process_frame(frame(), 1)
        assert recorder.seen == []  # handlers unregistered

    def test_install_flow_reaches_datapath(self, wired):
        dp, controller = wired
        controller.install_flow(Match(tp_dst=80), output(1))
        assert len(dp.table) == 1

    def test_remove_flows(self, wired):
        dp, controller = wired
        controller.install_flow(Match(tp_dst=80), output(1))
        controller.remove_flows(Match())
        assert len(dp.table) == 0

    def test_stats_callback(self, wired):
        dp, controller = wired
        results = []
        controller.request_stats(STATS_FLOW, results.append)
        assert len(results) == 1
        assert isinstance(results[0], StatsReply)

    def test_send_without_channel_raises(self, sim):
        controller = Controller(sim)
        with pytest.raises(ControllerError):
            controller.install_flow(Match(), output(1))


class TestL2Learning:
    def test_two_hosts_connect(self, sim, wired):
        dp, controller = wired
        controller.add_component(L2LearningSwitch)
        h1 = Host(sim, "h1", "02:00:00:00:00:11")
        h2 = Host(sim, "h2", "02:00:00:00:00:12")
        Link(sim, h1.port, dp.add_port("p1"))
        Link(sim, h2.port, dp.add_port("p2"))
        h1.configure_static("192.168.1.1", "255.255.255.0")
        h2.configure_static("192.168.1.2", "255.255.255.0")
        results = []
        h1.ping("192.168.1.2", lambda ok, rtt: results.append(ok))
        sim.run_for(2.0)
        assert results == [True]

    def test_flows_installed_after_learning(self, sim, wired):
        dp, controller = wired
        switch = controller.add_component(L2LearningSwitch)
        h1 = Host(sim, "h1", "02:00:00:00:00:11")
        h2 = Host(sim, "h2", "02:00:00:00:00:12")
        Link(sim, h1.port, dp.add_port("p1"))
        Link(sim, h2.port, dp.add_port("p2"))
        h1.configure_static("192.168.1.1", "255.255.255.0")
        h2.configure_static("192.168.1.2", "255.255.255.0")
        done = []
        h1.ping("192.168.1.2", lambda ok, rtt: done.append(ok))
        sim.run_for(2.0)
        assert switch.installs >= 1
        assert len(switch.mac_to_port) == 2
        # Second ping should ride installed flows (no new floods).
        floods_before = switch.floods
        h1.ping("192.168.1.2", lambda ok, rtt: done.append(ok))
        sim.run_for(2.0)
        assert done == [True, True]
        assert switch.floods == floods_before
