"""Policy subsystem: schedules, model, cartoon language, engine, USB keys."""

import pytest

from repro import HomeworkRouter, RouterConfig, Simulator
from repro.core.errors import PolicyError, ServiceError
from repro.core.events import EventBus
from repro.policy.cartoon import (
    CartoonStrip,
    DeviceGroup,
    UNLESS_USB_KEY,
    WHAT_BLOCK_SITES,
    WHAT_NO_NETWORK,
    WHAT_ONLY_SITES,
    WHEN_WEEKDAYS,
)
from repro.policy.engine import PolicyEngine
from repro.policy.model import (
    DNS_BLOCK,
    DNS_ONLY,
    NET_ALLOW,
    NET_DENY,
    Policy,
)
from repro.policy.schedule import (
    Schedule,
    SECONDS_PER_DAY,
    TimeWindow,
    day_of_week,
    parse_hhmm,
    time_of_day,
)
from repro.services.udev.usbkey import UsbKey

from tests.conftest import join_device

MAC1 = "02:aa:00:00:00:01"
MAC2 = "02:aa:00:00:00:02"


class TestSchedule:
    def test_day_of_week(self):
        assert day_of_week(0.0) == 0  # Monday
        assert day_of_week(SECONDS_PER_DAY * 5) == 5  # Saturday
        assert day_of_week(SECONDS_PER_DAY * 7) == 0

    def test_epoch_day_offset(self):
        assert day_of_week(0.0, epoch_day=3) == 3

    def test_time_of_day(self):
        assert time_of_day(SECONDS_PER_DAY + 3600.0) == 3600.0

    def test_parse_hhmm(self):
        assert parse_hhmm("17:30") == 17 * 3600 + 30 * 60
        assert parse_hhmm("9") == 9 * 3600
        with pytest.raises(ValueError):
            parse_hhmm("25:00")

    def test_window_contains(self):
        window = TimeWindow.parse("17:00", "22:00")
        assert window.contains(18 * 3600.0)
        assert not window.contains(8 * 3600.0)
        assert window.contains(17 * 3600.0)  # inclusive start
        assert not window.contains(22 * 3600.0)  # exclusive end

    def test_wrapping_window(self):
        window = TimeWindow.parse("22:00", "06:00")
        assert window.contains(23 * 3600.0)
        assert window.contains(2 * 3600.0)
        assert not window.contains(12 * 3600.0)

    def test_always(self):
        assert Schedule.always().matches(123456.0)

    def test_weekdays(self):
        schedule = Schedule.weekdays()
        assert schedule.matches(0.0)  # Monday
        assert not schedule.matches(SECONDS_PER_DAY * 5.5)  # Saturday

    def test_weekend(self):
        schedule = Schedule.weekend()
        assert not schedule.matches(0.0)
        assert schedule.matches(SECONDS_PER_DAY * 6.1)

    def test_days_and_window(self):
        schedule = Schedule.weekdays([TimeWindow.parse("17:00", "22:00")])
        monday_evening = 18 * 3600.0
        monday_morning = 8 * 3600.0
        saturday_evening = SECONDS_PER_DAY * 5 + 18 * 3600.0
        assert schedule.matches(monday_evening)
        assert not schedule.matches(monday_morning)
        assert not schedule.matches(saturday_evening)

    def test_bad_day(self):
        with pytest.raises(ValueError):
            Schedule(days=[7])

    def test_dict_roundtrip(self):
        schedule = Schedule.weekdays([TimeWindow.parse("17:00", "22:00")])
        restored = Schedule.from_dict(schedule.to_dict())
        assert restored.days == schedule.days
        assert restored.matches(18 * 3600.0)


class TestPolicyModel:
    def test_validation(self):
        with pytest.raises(PolicyError):
            Policy("p", [])  # no targets
        with pytest.raises(PolicyError):
            Policy("p", [MAC1], network="sometimes")
        with pytest.raises(PolicyError):
            Policy("p", [MAC1], dns_mode=DNS_ONLY)  # needs sites

    def test_applies_to(self):
        policy = Policy("p", [MAC1])
        assert policy.applies_to(MAC1)
        assert not policy.applies_to(MAC2)

    def test_active_respects_schedule(self):
        policy = Policy("p", [MAC1], schedule=Schedule.weekend())
        assert not policy.active(0.0)  # Monday
        assert policy.active(SECONDS_PER_DAY * 6)

    def test_usb_gate_suspends(self):
        policy = Policy("p", [MAC1], usb_gated=True, unlock_key_id="parent")
        assert policy.active(0.0)
        assert not policy.active(0.0, unlocked_keys={"parent"})
        assert policy.active(0.0, unlocked_keys={"other"})

    def test_disabled(self):
        policy = Policy("p", [MAC1])
        policy.enabled = False
        assert not policy.active(0.0)

    def test_dict_roundtrip(self):
        policy = Policy(
            "kids",
            [MAC1, MAC2],
            network=NET_ALLOW,
            dns_mode=DNS_ONLY,
            sites=["facebook.com"],
            schedule=Schedule.weekdays(),
            usb_gated=True,
            unlock_key_id="parent",
        )
        restored = Policy.from_dict(policy.to_dict())
        assert restored.id == policy.id
        assert restored.sites == ["facebook.com"]
        assert restored.usb_gated
        assert [str(t) for t in restored.targets] == [MAC1, MAC2]


class TestCartoon:
    def test_who_panel_with_group(self):
        kids = DeviceGroup("kids", [MAC1])
        kids.add(MAC2)
        strip = CartoonStrip("rule").panel_who(kids)
        assert len(strip.who) == 2
        kids.remove(MAC2)
        assert len(kids) == 1

    def test_only_sites_compiles_to_whitelist(self):
        strip = (
            CartoonStrip("fb only")
            .panel_who(MAC1)
            .panel_what(WHAT_ONLY_SITES, ["facebook.com"])
        )
        policy = strip.compile()
        assert policy.dns_mode == DNS_ONLY
        assert policy.network == NET_ALLOW
        assert policy.sites == ["facebook.com"]

    def test_block_sites(self):
        policy = (
            CartoonStrip("no yt")
            .panel_who(MAC1)
            .panel_what(WHAT_BLOCK_SITES, ["youtube.com"])
            .compile()
        )
        assert policy.dns_mode == DNS_BLOCK

    def test_no_network(self):
        policy = (
            CartoonStrip("offline")
            .panel_who(MAC1)
            .panel_what(WHAT_NO_NETWORK)
            .compile()
        )
        assert policy.network == NET_DENY

    def test_when_panel(self):
        policy = (
            CartoonStrip("weekdays")
            .panel_who(MAC1)
            .panel_when(WHEN_WEEKDAYS, "17:00", "22:00")
            .compile()
        )
        assert policy.schedule.days == (0, 1, 2, 3, 4)
        assert len(policy.schedule.windows) == 1

    def test_unless_panel(self):
        policy = (
            CartoonStrip("gated")
            .panel_who(MAC1)
            .panel_unless(UNLESS_USB_KEY, "parent-key")
            .compile()
        )
        assert policy.usb_gated
        assert policy.unlock_key_id == "parent-key"

    def test_empty_who_rejected(self):
        with pytest.raises(PolicyError):
            CartoonStrip("empty").compile()

    def test_sites_required(self):
        with pytest.raises(PolicyError):
            CartoonStrip("x").panel_who(MAC1).panel_what(WHAT_ONLY_SITES, [])

    def test_usb_key_id_required(self):
        with pytest.raises(PolicyError):
            CartoonStrip("x").panel_unless(UNLESS_USB_KEY, "")

    def test_describe_sentence(self):
        strip = CartoonStrip.kids_facebook_weekdays([MAC1])
        text = strip.describe()
        assert "facebook.com" in text
        assert "weekdays" in text
        assert "USB key" in text

    def test_paper_example_semantics(self):
        """'Kids can only use Facebook on weekdays after homework.'"""
        policy = CartoonStrip.kids_facebook_weekdays(
            [MAC1], homework_done_after="17:00"
        ).compile()
        # Monday 18:00: restriction active (only facebook).
        assert policy.active(18 * 3600.0)
        # Monday 18:00 with the parent key inserted: lifted.
        assert not policy.active(18 * 3600.0, unlocked_keys={"parent-key"})
        # Saturday: schedule does not match, restriction idle.
        assert not policy.active(SECONDS_PER_DAY * 5 + 18 * 3600.0)


class TestEngineCompilation:
    def make_engine(self):
        return PolicyEngine(EventBus())

    def test_no_policies_unrestricted(self):
        engine = self.make_engine()
        restrictions = engine.restrictions_for(MAC1, 0.0)
        assert restrictions.unrestricted

    def test_deny_network(self):
        engine = self.make_engine()
        engine.install(Policy("off", [MAC1], network=NET_DENY))
        assert not engine.restrictions_for(MAC1, 0.0).network_allowed

    def test_whitelists_intersect(self):
        engine = self.make_engine()
        engine.install(Policy("a", [MAC1], dns_mode=DNS_ONLY, sites=["a.com", "b.com"]))
        engine.install(Policy("b", [MAC1], dns_mode=DNS_ONLY, sites=["b.com", "c.com"]))
        restrictions = engine.restrictions_for(MAC1, 0.0)
        assert restrictions.dns_mode == DNS_ONLY
        assert restrictions.sites == ["b.com"]

    def test_blocklists_union(self):
        engine = self.make_engine()
        engine.install(Policy("a", [MAC1], dns_mode=DNS_BLOCK, sites=["a.com"]))
        engine.install(Policy("b", [MAC1], dns_mode=DNS_BLOCK, sites=["b.com"]))
        restrictions = engine.restrictions_for(MAC1, 0.0)
        assert restrictions.dns_mode == DNS_BLOCK
        assert restrictions.sites == ["a.com", "b.com"]

    def test_block_subtracts_from_whitelist(self):
        engine = self.make_engine()
        engine.install(Policy("only", [MAC1], dns_mode=DNS_ONLY, sites=["a.com", "b.com"]))
        engine.install(Policy("block", [MAC1], dns_mode=DNS_BLOCK, sites=["b.com"]))
        restrictions = engine.restrictions_for(MAC1, 0.0)
        assert restrictions.sites == ["a.com"]

    def test_key_suspends_gated_policy(self):
        engine = self.make_engine()
        engine.install(
            Policy("gated", [MAC1], network=NET_DENY, usb_gated=True, unlock_key_id="k")
        )
        assert not engine.restrictions_for(MAC1, 0.0).network_allowed
        engine.key_inserted("k")
        assert engine.restrictions_for(MAC1, 0.0).network_allowed
        engine.key_removed("k")
        assert not engine.restrictions_for(MAC1, 0.0).network_allowed

    def test_remove_policy(self):
        engine = self.make_engine()
        policy = engine.install(Policy("p", [MAC1], network=NET_DENY))
        engine.remove(policy.id)
        assert engine.restrictions_for(MAC1, 0.0).unrestricted
        with pytest.raises(PolicyError):
            engine.remove(policy.id)

    def test_unknown_policy_lookup(self):
        with pytest.raises(PolicyError):
            self.make_engine().get(404)


class TestEngineEnforcementLive:
    """Enforcement wired into a real router."""

    @pytest.fixture
    def env(self):
        sim = Simulator(seed=61)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        kid = join_device(router, "kids-ipad", "02:aa:00:00:00:03")
        return sim, router, kid

    def test_no_network_policy_denies_device(self, env):
        sim, router, kid = env
        policy = Policy("grounded", [kid.mac], network=NET_DENY)
        router.policy_engine.install(policy, sim.now)
        assert router.dhcp.policy.state_of(kid.mac) == "denied"
        # Lifting the policy restores access.
        router.policy_engine.remove(policy.id, sim.now)
        assert router.dhcp.policy.state_of(kid.mac) == "permitted"

    def test_dns_only_policy_sets_filter(self, env):
        sim, router, kid = env
        router.policy_engine.install(
            Policy("fb", [kid.mac], dns_mode=DNS_ONLY, sites=["facebook.com"]),
            sim.now,
        )
        assert not router.dns_proxy.filter.permits(kid.mac, "youtube.com")
        assert router.dns_proxy.filter.permits(kid.mac, "facebook.com")

    def test_end_to_end_usb_unlock(self, env):
        sim, router, kid = env
        strip = CartoonStrip.kids_facebook_weekdays([kid.mac], key_id="parent-key")
        # Schedule: weekdays 17:00-22:00; sim starts Monday 00:00, so
        # advance to Monday evening.
        sim.run_until(18 * 3600.0)
        router.policy_engine.install(strip.compile(), sim.now)

        blocked = []
        kid.resolve("www.youtube.com", lambda ip, rc: blocked.append(ip))
        sim.run_for(2.0)
        assert blocked == [None]

        key = UsbKey.unlock_key("parent-key")
        router.udev.insert(key)
        kid.dns_cache.clear()
        allowed = []
        kid.resolve("www.youtube.com", lambda ip, rc: allowed.append(ip))
        sim.run_for(2.0)
        assert allowed[0] is not None

        router.udev.remove(key.label)
        kid.dns_cache.clear()
        blocked_again = []
        kid.resolve("bbc.co.uk", lambda ip, rc: blocked_again.append(ip))
        sim.run_for(2.0)
        assert blocked_again == [None]


class TestUsbKeys:
    def test_unlock_key_layout(self):
        key = UsbKey.unlock_key("parent")
        assert key.is_homework_key
        assert key.key_id == "parent"
        assert key.policy_document() is None

    def test_non_homework_key(self):
        key = UsbKey({"music/song.mp3": b"..."}, label="random-stick")
        assert not key.is_homework_key
        with pytest.raises(ServiceError):
            _ = key.key_id

    def test_policy_key(self):
        key = UsbKey.policy_key(
            "parent",
            {"name": "p", "targets": [MAC1]},
            permit=[MAC1],
            deny=[MAC2],
        )
        assert key.policy_document()["name"] == "p"
        assert [str(m) for m in key.permit_list()] == [MAC1]
        assert [str(m) for m in key.deny_list()] == [MAC2]

    def test_mac_list_with_comments(self):
        key = UsbKey.unlock_key("k")
        key.write("homework/permit.txt", f"# my laptop\n{MAC1}\n\n")
        assert [str(m) for m in key.permit_list()] == [MAC1]

    def test_bad_mac_in_list(self):
        key = UsbKey.unlock_key("k")
        key.write("homework/deny.txt", "not-a-mac\n")
        with pytest.raises(ServiceError):
            key.deny_list()

    def test_bad_policy_json(self):
        key = UsbKey.unlock_key("k")
        key.write("homework/policy.json", "{broken")
        with pytest.raises(ServiceError):
            key.policy_document()


class TestUdevMonitor:
    @pytest.fixture
    def env(self):
        sim = Simulator(seed=62)
        router = HomeworkRouter(sim)
        router.start()
        host = router.add_device("laptop", "02:aa:00:00:00:01")
        host.start_dhcp()
        sim.run_for(1.0)
        return sim, router, host

    def test_rejects_non_homework_key(self, env):
        _sim, router, _host = env
        router.udev.insert(UsbKey({"foo.txt": b"x"}, label="stick"))
        assert router.metrics.value("udev.rejected_total") == 1
        assert router.udev.inserted_keys() == []

    def test_permit_list_applied(self, env):
        sim, router, host = env
        key = UsbKey.unlock_key("k")
        key.write("homework/permit.txt", f"{host.mac}\n")
        router.udev.insert(key)
        assert router.dhcp.policy.state_of(host.mac) == "permitted"

    def test_policy_installed_and_retracted_with_key(self, env):
        sim, router, host = env
        key = UsbKey.policy_key(
            "k", {"name": "offline", "targets": [str(host.mac)], "network": "deny"}
        )
        router.udev.insert(key)
        assert len(router.policy_engine.policies()) == 1
        router.udev.remove(key.label)
        assert router.policy_engine.policies() == []

    def test_double_insert_rejected(self, env):
        _sim, router, _host = env
        key = UsbKey.unlock_key("k")
        router.udev.insert(key)
        with pytest.raises(ServiceError):
            router.udev.insert(key)

    def test_remove_unknown(self, env):
        _sim, router, _host = env
        with pytest.raises(ServiceError):
            router.udev.remove("ghost")

    def test_events_emitted(self, env):
        sim, router, _host = env
        events = []
        router.bus.subscribe("udev.*", events.append)
        key = UsbKey.unlock_key("k")
        router.udev.insert(key)
        router.udev.remove(key.label)
        names = [e.name for e in events]
        assert "udev.key.inserted" in names
        assert "udev.key.removed" in names
