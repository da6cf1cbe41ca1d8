"""Failure injection: the system degrades gracefully, never crashes.

Scenarios: controller loss, hostile/malformed input at every boundary
(wire bytes, RPC datagrams, HTTP, USB keys), resource exhaustion, and
radio blackout.
"""

import pytest

from repro import HomeworkRouter, RouterConfig, Simulator
from repro.net.ethernet import ETH_TYPE_IPV4
from repro.services.udev.usbkey import UsbKey

from tests.conftest import join_device
from tests.reference_codecs import Ethernet, IPv4, UDP


class TestControllerLoss:
    def _up(self):
        sim = Simulator(seed=301)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        a = join_device(router, "a", "02:aa:00:00:00:01")
        b = join_device(router, "b", "02:aa:00:00:00:02")
        return sim, router, a, b

    def test_existing_flows_survive_controller_loss(self):
        sim, router, a, b = self._up()
        got = []
        b.udp_bind(7000, lambda data, src, sport: got.append(data))
        a.udp_send(b.ip, 7000, b"before", sport=12345)
        sim.run_for(2.0)
        assert len(got) == 1
        # NOX dies (secure channel drops). Installed flows keep working.
        router.channel.disconnect()
        a.udp_send(b.ip, 7000, b"after", sport=12345)
        sim.run_for(2.0)
        assert len(got) == 2

    def test_new_flows_fail_without_controller(self):
        sim, router, a, b = self._up()
        router.channel.disconnect()
        got = []
        b.udp_bind(7001, lambda data, src, sport: got.append(data))
        a.udp_send(b.ip, 7001, b"orphan", sport=12346)
        sim.run_for(2.0)
        assert got == []  # reactive setup impossible; packet dropped

    def test_no_crash_on_packet_without_channel(self):
        sim = Simulator(seed=302)
        from repro.openflow.datapath import Datapath

        dp = Datapath(sim)
        dp.add_port("p1")
        # No channel attached at all: misses are silently dropped.
        frame = Ethernet(
            "02:00:00:00:00:02",
            "02:00:00:00:00:01",
            ETH_TYPE_IPV4,
            IPv4("10.0.0.1", "10.0.0.2", payload=UDP(1, 2, b"x")),
        )
        dp.process_frame(frame.pack(), 1)
        assert dp.misses == 1


class TestHostileWireInput:
    def test_garbage_frames_ignored_by_datapath(self):
        sim = Simulator(seed=303)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        host = join_device(router, "h", "02:aa:00:00:00:01")
        # Inject raw garbage straight into the device's port.
        host.port.send(b"\x00\x01\x02")
        host.port.send(b"\xff" * 2000)
        sim.run_for(1.0)  # must not raise

    def test_truncated_dhcp_ignored_by_server(self):
        sim = Simulator(seed=304)
        router = HomeworkRouter(sim)
        router.start()
        host = router.add_device("h", "02:aa:00:00:00:01")
        sim.run_for(0.1)
        bad = Ethernet(
            "ff:ff:ff:ff:ff:ff",
            host.mac,
            ETH_TYPE_IPV4,
            IPv4(
                "0.0.0.0",
                "255.255.255.255",
                proto=17,
                payload=UDP(68, 67, b"\x01\x01\x06\x00short"),
            ),
        )
        host.send_frame(bad.pack())
        sim.run_for(1.0)
        assert router.dhcp.discovers == 0  # not parsed as DHCP, not crashed

    def test_malformed_dns_swallowed_by_proxy(self):
        sim = Simulator(seed=305)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        host = join_device(router, "h", "02:aa:00:00:00:01")
        host.udp_send(host.gateway, 53, b"\x00")  # 1-byte "DNS query"
        sim.run_for(1.0)
        assert router.dns_proxy.queries_seen == 0


class TestHwdbRobustness:
    def test_subscription_survives_table_drop(self):
        sim = Simulator(seed=306)
        from repro.hwdb.database import HomeworkDatabase

        db = HomeworkDatabase(sim.clock)
        db.attach_scheduler(sim)
        db.create_table("ephemeral", [("x", "integer")])
        db.insert("ephemeral", [1])
        deliveries = []
        sub = db.subscribe("SELECT * FROM ephemeral", 1.0, deliveries.append)
        sim.run_for(1.5)
        assert len(deliveries) == 1
        db.drop_table("ephemeral")
        sim.run_for(5.0)  # scheduler keeps running; sub self-cancels
        assert not sub.active
        assert len(deliveries) == 1

    def test_rpc_never_crashes_on_fuzz(self):
        sim = Simulator(seed=307)
        from repro.hwdb.database import HomeworkDatabase
        from repro.hwdb.rpc import RpcServer

        db = HomeworkDatabase(sim.clock)
        server = RpcServer(db)
        responses = []
        for payload in (
            b"",
            b"\x00\xff\xfe",
            b"QUERY SELECT FROM WHERE",
            b"SUBSCRIBE",
            b"UNSUBSCRIBE abc",
            b"Q" * 10000,
        ):
            server.handle_datagram(payload, responses.append)
        assert len(responses) == 6
        assert all(r.startswith(b"ERROR") for r in responses)


class TestControlApiRobustness:
    def test_fuzz_http_bytes(self):
        sim = Simulator(seed=308)
        router = HomeworkRouter(sim)
        router.start()
        for raw in (
            b"",
            b"\r\n\r\n",
            b"GET",
            b"GET /x HTTP/1.1\r\ncontent-length: nan\r\n\r\n",
            b"\xde\xad\xbe\xef" * 10,
        ):
            response = router.control_api.handle_bytes(raw)
            assert response.startswith(b"HTTP/1.1 4")  # 4xx, never a crash


class TestUsbRobustness:
    def test_malformed_policy_key_applies_nothing(self):
        sim = Simulator(seed=309)
        router = HomeworkRouter(sim)
        router.start()
        host = router.add_device("h", "02:aa:00:00:00:01")
        sim.run_for(0.1)
        key = UsbKey.unlock_key("k")
        key.write("homework/policy.json", "{broken json")
        key.write("homework/permit.txt", f"{host.mac}\n")
        router.udev.insert(key)
        # Rejected atomically: no unlock, no permit, nothing inserted.
        assert router.metrics.value("udev.rejected_total") == 1
        assert router.udev.inserted_keys() == []
        assert router.dhcp.policy.state_of(host.mac) == "pending"
        assert "k" not in router.policy_engine.inserted_keys

    def test_bad_mac_list_key_rejected(self):
        sim = Simulator(seed=310)
        router = HomeworkRouter(sim)
        router.start()
        key = UsbKey.unlock_key("k")
        key.write("homework/deny.txt", "not-a-mac\n")
        router.udev.insert(key)
        assert router.metrics.value("udev.rejected_total") == 1
        assert router.udev.inserted_keys() == []


class TestResourceLimits:
    def test_dhcp_pool_exhaustion_withholds_gracefully(self):
        sim = Simulator(seed=311)
        # /24 subnet → 63 /30s higher; use small one: /26 → 16 /30s, 1 reserved = 15.
        config = RouterConfig(
            subnet="192.168.0.0/24", default_permit=True, isolate_devices=True
        )
        router = HomeworkRouter(sim, config=config)
        router.start()
        hosts = []
        for i in range(70):  # more devices than /30 blocks (63 usable)
            host = router.add_device(f"d{i}", f"02:cc:00:00:{i:02x}:01")
            hosts.append(host)
        for host in hosts:
            host.start_dhcp(retry_interval=0)
        sim.run_for(10.0)
        bound = sum(1 for h in hosts if h.ip is not None)
        assert 0 < bound <= 63
        # The rest got nothing, but the router is still alive.
        results = []
        hosts[0].ping(hosts[0].gateway, lambda ok, rtt: results.append(ok))
        sim.run_for(2.0)
        assert results == [True]

    def test_radio_blackout_device_unreachable_but_router_fine(self):
        sim = Simulator(seed=312)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        far = router.add_device(
            "basement-cam", "02:aa:00:00:00:04", wireless=True, position=(500, 500)
        )
        near = router.add_device("laptop", "02:aa:00:00:00:05")
        far.start_dhcp(retry_interval=1.0)
        near.start_dhcp()
        sim.run_for(10.0)
        assert far.ip is None  # frames never survive the link
        assert near.ip is not None  # everyone else unaffected

    def test_flow_table_cap_enforced(self):
        from repro.core.errors import DatapathError
        from repro.openflow.datapath import Datapath
        from repro.openflow.flow_table import FlowEntry
        from repro.openflow.match import Match
        from repro.openflow.actions import output

        sim = Simulator(seed=313)
        dp = Datapath(sim)
        dp.table.max_entries = 10
        for i in range(10):
            dp.table.add(FlowEntry(Match(tp_dst=i), output(1)))
        with pytest.raises(DatapathError):
            dp.table.add(FlowEntry(Match(tp_dst=999), output(1)))
