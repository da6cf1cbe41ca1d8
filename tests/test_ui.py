"""UI tests: the four interfaces of the demo (Figures 1-4)."""

import pytest

from repro import HomeworkRouter, RouterConfig, Simulator
from repro.services.control_api.http import HttpError
from repro.services.udev.usbkey import UsbKey
from repro.sim.traffic import VideoStreaming, WebBrowsing
from repro.ui.artifact import (
    BLUE,
    GREEN,
    LedStrip,
    MODE_BANDWIDTH,
    MODE_EVENTS,
    MODE_SIGNAL,
    NetworkArtifact,
    OFF,
    RED,
    WHITE,
)
from repro.ui.bandwidth_view import BandwidthView
from repro.ui.control_ui import ControlInterface
from repro.ui.policy_ui import PolicyInterface
from repro.policy.cartoon import (
    UNLESS_USB_KEY,
    WHAT_ONLY_SITES,
    WHEN_ALWAYS,
)

from tests.conftest import join_device


@pytest.fixture
def env():
    sim = Simulator(seed=81)
    router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
    router.start()
    laptop = join_device(
        router, "laptop", "02:aa:00:00:00:01", wireless=True, position=(4, 3)
    )
    tv = join_device(router, "tv", "02:aa:00:00:00:02")
    return sim, router, laptop, tv


class TestLedStrip:
    def test_fill(self):
        strip = LedStrip(8)
        strip.fill(3)
        assert strip.lit_count() == 3
        assert strip.leds[0] == WHITE and strip.leds[3] == OFF

    def test_fill_clamps(self):
        strip = LedStrip(4)
        strip.fill(10)
        assert strip.lit_count() == 4
        strip.fill(-1)
        assert strip.lit_count() == 0

    def test_set_all_and_clear(self):
        strip = LedStrip(4)
        strip.set_all(RED)
        assert strip.lit_count() == 4
        strip.clear()
        assert strip.lit_count() == 0

    def test_render_colours(self):
        strip = LedStrip(4)
        strip.leds = [RED, GREEN, BLUE, OFF]
        assert strip.render() == "[RGB.]"

    def test_render_white(self):
        strip = LedStrip(2)
        strip.leds = [WHITE, OFF]
        assert strip.render() == "[#.]"


class TestBandwidthView:
    def test_device_list_screen(self, env):
        sim, router, laptop, tv = env
        video = VideoStreaming(tv)
        video.start(0.1)
        sim.run_for(12.0)
        view = BandwidthView(router.aggregator, sim, window=12.0)
        view.refresh()
        screen = view.render()
        assert "tv" in screen
        assert "Network usage" in screen

    def test_drill_down_and_back(self, env):
        sim, router, laptop, _tv = env
        web = WebBrowsing(laptop)
        web.start(0.1)
        sim.run_for(12.0)
        view = BandwidthView(router.aggregator, sim, window=12.0)
        view.refresh()
        view.select_device(laptop.mac)
        detail = view.render()
        assert "by protocol" in detail
        assert "https" in detail
        view.back()
        assert "Network usage" in view.render()

    def test_live_refresh(self, env):
        sim, router, _laptop, _tv = env
        view = BandwidthView(router.aggregator, sim, refresh_interval=1.0)
        view.start()
        sim.run_for(3.5)
        assert view.refreshes == 3
        view.stop()
        sim.run_for(3.0)
        assert view.refreshes == 3

    def test_empty_screen(self, env):
        sim, router, _laptop, _tv = env
        view = BandwidthView(router.aggregator, sim, window=0.001)
        view.refresh()
        assert "no activity" in view.render()

    def test_heaviest_first(self, env):
        sim, router, laptop, tv = env
        video = VideoStreaming(tv)
        video.start(0.1)
        web = WebBrowsing(laptop)
        web.start(0.2)
        sim.run_for(12.0)
        view = BandwidthView(router.aggregator, sim, window=12.0)
        devices = view.refresh()
        assert devices[0].bytes >= devices[-1].bytes


class TestArtifact:
    def make(self, env, **kwargs):
        sim, router, _laptop, _tv = env
        artifact = NetworkArtifact(
            sim,
            router.bus,
            router.aggregator,
            radio=router.radio,
            db=router.db,
            **kwargs,
        )
        return sim, router, artifact

    def test_mode1_more_leds_near_ap(self, env):
        sim, _router, artifact = self.make(env)
        artifact.set_mode(MODE_SIGNAL)
        artifact.move((1.0, 0.0))
        artifact.tick()
        near = artifact.strip.lit_count()
        artifact.move((30.0, 30.0))
        artifact.tick()
        far = artifact.strip.lit_count()
        assert near > far

    def test_mode1_full_strip_at_ap(self, env):
        _sim, _router, artifact = self.make(env)
        artifact.move((0.5, 0.0))
        artifact.tick()
        assert artifact.strip.lit_count() == artifact.strip.count

    def test_mode2_speed_tracks_utilisation(self, env):
        sim, router, artifact = self.make(env)
        artifact.set_mode(MODE_BANDWIDTH)
        artifact.start()
        sim.run_for(1.0)
        idle_speed = artifact.current_speed
        tv = router.device("tv")
        video = VideoStreaming(tv)
        video.start(0.1)
        sim.run_for(15.0)
        busy_speed = artifact.current_speed
        assert busy_speed > idle_speed
        assert artifact.strip.lit_count() == 3  # the comet

    def test_mode3_green_flash_on_grant(self, env):
        sim, router, artifact = self.make(env)
        artifact.set_mode(MODE_EVENTS)
        artifact.start()
        newcomer = router.add_device("phone", "02:aa:00:00:00:09")
        newcomer.start_dhcp()
        sim.run_for(2.0)
        assert ("green" in [label for _t, label in artifact.flash_history])

    def test_mode3_blue_flash_on_revoke(self, env):
        sim, router, artifact = self.make(env)
        artifact.set_mode(MODE_EVENTS)
        artifact.start()
        laptop = router.device("laptop")
        laptop.release_dhcp()
        sim.run_for(2.0)
        assert "blue" in [label for _t, label in artifact.flash_history]

    def test_mode3_flash_animation_toggles(self, env):
        sim, _router, artifact = self.make(env, tick_interval=0.1)
        artifact.set_mode(MODE_EVENTS)
        artifact._flash_queue.append((GREEN, 2))
        artifact.tick()
        assert artifact.strip.lit_count() == artifact.strip.count
        artifact.tick()
        assert artifact.strip.lit_count() == 0

    def test_mode3_red_on_high_retries(self, env):
        sim, router, artifact = self.make(env)
        artifact.set_mode(MODE_EVENTS)
        # Degrade the laptop's wireless link badly and generate traffic.
        router.radio.move("laptop", (40.0, 40.0))
        laptop = router.device("laptop")
        web = WebBrowsing(laptop)
        web.start(0.1)
        artifact.start()
        sim.run_for(20.0)
        assert "red" in [label for _t, label in artifact.flash_history]

    def test_bad_mode(self, env):
        _sim, _router, artifact = self.make(env)
        with pytest.raises(ValueError):
            artifact.set_mode(4)

    def test_render(self, env):
        _sim, _router, artifact = self.make(env)
        artifact.tick()
        assert artifact.render().startswith("artifact[signal]")

    def test_stop_cancels(self, env):
        sim, _router, artifact = self.make(env)
        artifact.start()
        sim.run_for(1.0)
        ticks = artifact.ticks
        artifact.stop()
        sim.run_for(1.0)
        assert artifact.ticks == ticks


class TestControlInterface:
    def test_categories_track_state(self, env):
        sim, router, laptop, tv = env
        ui = ControlInterface(router.control_api, router.bus)
        ui.refresh()
        assert len(ui.tabs["permitted"]) == 2  # default_permit router
        ui.drag(laptop.mac, "denied")
        assert [t.mac for t in ui.tabs["denied"]] == [str(laptop.mac)]

    def test_pending_notification(self):
        sim = Simulator(seed=82)
        router = HomeworkRouter(sim)  # default deny
        router.start()
        ui = ControlInterface(router.control_api, router.bus)
        newcomer = router.add_device("new-phone", "02:aa:00:00:00:05")
        newcomer.start_dhcp()
        sim.run_for(1.0)
        assert any("new-phone" in n for n in ui.notifications)
        ui.refresh()
        assert len(ui.tabs["pending"]) == 1
        # Dragging to permitted clears the notification.
        ui.drag(newcomer.mac, "permitted")
        assert ui.notifications == []
        sim.run_for(6.0)
        assert newcomer.ip is not None

    def test_drag_validation(self, env):
        _sim, router, laptop, _tv = env
        ui = ControlInterface(router.control_api)
        with pytest.raises(ValueError):
            ui.drag(laptop.mac, "pending")

    def test_interrogate(self, env):
        _sim, router, laptop, _tv = env
        ui = ControlInterface(router.control_api)
        detail = ui.interrogate(laptop.mac)
        assert detail["mac"] == str(laptop.mac)
        assert detail["ip"] is not None

    def test_interrogate_unknown(self, env):
        _sim, router, _laptop, _tv = env
        ui = ControlInterface(router.control_api)
        with pytest.raises(HttpError):
            ui.interrogate("02:ff:ff:ff:ff:ff")

    def test_supply_metadata(self, env):
        _sim, router, laptop, _tv = env
        ui = ControlInterface(router.control_api)
        ui.supply_metadata(laptop.mac, name="Tom's Mac Air", owner="Tom")
        ui.refresh()
        tabs = [t for t in ui.tabs["permitted"] if t.mac == str(laptop.mac)]
        assert tabs[0].display_name == "Tom's Mac Air"

    def test_render_columns(self, env):
        _sim, router, _laptop, _tv = env
        ui = ControlInterface(router.control_api)
        ui.refresh()
        screen = ui.render()
        assert "PENDING" in screen and "PERMITTED" in screen and "DENIED" in screen


class TestPolicyInterface:
    def test_draft_publish_cycle(self, env):
        sim, router, laptop, _tv = env
        ui = PolicyInterface(router.control_api, router.udev)
        strip = ui.new_strip("laptop fb only")
        strip.panel_who(laptop.mac)
        strip.panel_what(WHAT_ONLY_SITES, ["facebook.com"])
        strip.panel_when(WHEN_ALWAYS)
        assert "facebook.com" in ui.preview()
        published = ui.publish()
        assert published["name"] == "laptop fb only"
        assert ui.draft is None
        assert len(ui.published) == 1
        # The policy is live on the router.
        assert not router.dns_proxy.filter.permits(laptop.mac, "youtube.com")

    def test_publish_without_draft(self, env):
        _sim, router, _laptop, _tv = env
        ui = PolicyInterface(router.control_api)
        with pytest.raises(HttpError):
            ui.publish()

    def test_retract(self, env):
        sim, router, laptop, _tv = env
        ui = PolicyInterface(router.control_api, router.udev)
        strip = ui.new_strip("rule")
        strip.panel_who(laptop.mac).panel_what(WHAT_ONLY_SITES, ["facebook.com"])
        published = ui.publish()
        ui.retract(int(published["id"]))
        assert ui.published == []
        assert router.dns_proxy.filter.permits(laptop.mac, "youtube.com")

    def test_render_board(self, env):
        sim, router, laptop, _tv = env
        ui = PolicyInterface(router.control_api, router.udev)
        strip = ui.new_strip("gated rule")
        strip.panel_who(laptop.mac)
        strip.panel_what(WHAT_ONLY_SITES, ["facebook.com"])
        strip.panel_unless(UNLESS_USB_KEY, "parent-key")
        ui.publish()
        screen = ui.render()
        assert "gated rule" in screen
        assert "USB-gated" in screen
        assert "only: facebook.com" in screen
        router.udev.insert(UsbKey.unlock_key("parent-key"))
        assert "parent-usb" in ui.render()

    def test_preview_empty(self, env):
        _sim, router, _laptop, _tv = env
        ui = PolicyInterface(router.control_api)
        assert ui.preview() == "(no draft policy)"
