"""End-to-end integration tests: the full Figure 5 pipeline.

These exercise the complete stack in one simulation: device join via
DHCP gating, DNS-proxied resolution, reactive flow setup with DNS
admission, measurement into hwdb, subscriptions pushing to UIs, and
policy changes biting live traffic.
"""

from repro.hwdb.persist import MemorySink
from repro.services.udev.usbkey import UsbKey
from repro.sim.traffic import VideoStreaming, WebBrowsing
from repro.ui.artifact import MODE_EVENTS, NetworkArtifact
from repro.ui.bandwidth_view import BandwidthView
from repro.ui.control_ui import ControlInterface
from repro.ui.policy_ui import PolicyInterface

from tests.helpers import join_device, make_permissive_router, make_router


class TestHouseholdScenario:
    """A morning in the Homework house."""

    def test_full_day_in_the_life(self):
        sim, router = make_router(seed=101)
        control = ControlInterface(router.control_api, router.bus)

        # 1. Three devices arrive; none can join yet (default deny).
        laptop = router.add_device(
            "toms-air", "02:aa:00:00:00:01", wireless=True, position=(4, 3)
        )
        tv = router.add_device("tv", "02:aa:00:00:00:02")
        ipad = router.add_device(
            "kids-ipad", "02:aa:00:00:00:03", wireless=True, position=(8, 2)
        )
        for host in (laptop, tv, ipad):
            host.start_dhcp()
        sim.run_for(2.0)
        assert all(h.ip is None for h in (laptop, tv, ipad))
        control.refresh()
        assert len(control.tabs["pending"]) == 3
        assert len(control.notifications) == 3

        # 2. The user drags each tab to permitted; leases follow.
        for host in (laptop, tv, ipad):
            control.drag(host.mac, "permitted")
        sim.run_for(8.0)
        assert all(h.ip is not None for h in (laptop, tv, ipad))

        # 3. Traffic flows; the bandwidth view shows it.
        web = WebBrowsing(laptop)
        video = VideoStreaming(tv)
        web.start(0.5)
        video.start(1.0)
        sim.run_for(30.0)
        view = BandwidthView(router.aggregator, sim, window=30.0)
        devices = view.refresh()
        names = [d.hostname for d in devices]
        assert "tv" in names and "toms-air" in names

        # 4. A policy gates the kids' iPad to facebook only.
        policy_ui = PolicyInterface(router.control_api, router.udev)
        strip = policy_ui.new_strip("kids: facebook only")
        strip.panel_who(ipad.mac)
        strip.panel_what("only_these_sites", ["facebook.com"])
        strip.panel_unless("usb_key", "parent-key")
        policy_ui.publish()

        blocked = []
        ipad.resolve("www.youtube.com", lambda ip, rc: blocked.append(ip))
        sim.run_for(2.0)
        assert blocked == [None]

        allowed = []
        ipad.resolve("facebook.com", lambda ip, rc: allowed.append(ip))
        sim.run_for(2.0)
        assert allowed[0] is not None

        # 5. Parent inserts the USB key; youtube unblocks.
        router.udev.insert(UsbKey.unlock_key("parent-key"))
        ipad.dns_cache.clear()
        unlocked = []
        ipad.resolve("www.youtube.com", lambda ip, rc: unlocked.append(ip))
        sim.run_for(2.0)
        assert unlocked[0] is not None

        # 6. Sanity across the measurement plane.
        stats = router.stats()
        assert stats["dhcp"]["ack_total"] >= 3
        assert stats["dnsproxy"]["query_total"] >= 3
        assert stats["routing"]["flow_install_total"] > 0
        assert stats["hwdb"]["insert_total"] > 0

    def test_denied_device_fully_cut_off(self):
        sim, router = make_permissive_router(seed=102)
        laptop = join_device(router, "laptop", "02:aa:00:00:00:01")
        # Working traffic first.
        done = []
        laptop.ping(router.cloud.ip, lambda ok, rtt: done.append(ok))
        sim.run_for(2.0)
        assert done == [True]
        # Deny: lease revoked, flows evicted, new traffic dropped.
        router.deny(laptop)
        sim.run_for(1.0)
        silent = []
        laptop.ping(router.cloud.ip, lambda ok, rtt: silent.append(ok))
        sim.run_for(3.0)
        assert silent == []

    def test_hwdb_subscription_drives_ui_live(self):
        sim, router = make_permissive_router(seed=103)
        laptop = join_device(router, "laptop", "02:aa:00:00:00:01")
        client = router.hwdb_client()
        sink = MemorySink()
        client.subscribe(
            "SELECT src_ip, sum(bytes) AS b FROM flows [RANGE 10 SECONDS] "
            "GROUP BY src_ip",
            interval=2.0,
            callback=sink,
        )
        web = WebBrowsing(laptop)
        web.start(0.1)
        sim.run_for(20.0)
        assert len(sink.deliveries) >= 3
        assert any(row[1] > 0 for row in sink.all_rows())

    def test_artifact_sees_join_events_live(self):
        sim, router = make_permissive_router(seed=104)
        artifact = NetworkArtifact(
            sim, router.bus, router.aggregator, radio=router.radio, db=router.db
        )
        artifact.set_mode(MODE_EVENTS)
        artifact.start()
        phone = router.add_device("phone", "02:aa:00:00:00:07")
        phone.start_dhcp()
        sim.run_for(3.0)
        labels = [label for _t, label in artifact.flash_history]
        assert "green" in labels

    def test_wireless_device_works_through_full_stack(self):
        sim, router = make_permissive_router(seed=105)
        tablet = join_device(
            router, "tablet", "02:aa:00:00:00:08", wireless=True, position=(6, 4)
        )
        results = []
        tablet.resolve("bbc.co.uk", lambda ip, rc: results.append(ip))
        sim.run_for(3.0)
        assert results[0] is not None
        conn = tablet.tcp_connect(results[0], 443)
        conn.on_connect = lambda: conn.send(b"GET 20000 /news")
        sim.run_for(10.0)
        assert conn.bytes_received >= 20000

    def test_two_routers_independent(self):
        """Two households in one process do not interfere."""
        sim_a, router_a = make_permissive_router(seed=106)
        sim_b, router_b = make_permissive_router(seed=107)
        host_a = join_device(router_a, "a", "02:aa:00:00:00:01")
        host_b = join_device(router_b, "b", "02:aa:00:00:00:01")  # same MAC, other house
        assert host_a.ip is not None and host_b.ip is not None
        assert len(router_a.dhcp.leases) == 1
        assert len(router_b.dhcp.leases) == 1

    def test_lease_churn_visible_in_hwdb(self):
        sim, router = make_permissive_router(seed=108, lease_time=8.0)
        laptop = join_device(router, "laptop", "02:aa:00:00:00:01")
        sim.run_for(30.0)  # several renewals
        renewed = router.db.query(
            "SELECT count(*) FROM leases WHERE action = 'renewed'"
        ).scalar()
        assert renewed >= 2

    def test_stats_snapshot_shape(self):
        sim, router = make_router(seed=109)
        stats = router.stats()
        for section in ("openflow", "dhcp", "dnsproxy", "routing", "hwdb"):
            assert section in stats
