"""Discrete-event simulator tests."""

import pytest

from repro.core.errors import SimulationError
from repro.sim.simulator import Simulator

from tests.helpers import make_router


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run_until(10.0)
    assert order == ["a", "b", "c"]


def test_ties_break_in_scheduling_order():
    sim = Simulator()
    order = []
    for label in "abc":
        sim.schedule(1.0, lambda l=label: order.append(l))
    sim.run_until(2.0)
    assert order == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run_until(5.0)
    assert seen == [1.5]
    assert sim.now == 5.0


def test_run_until_stops_at_horizon():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, lambda: seen.append("late"))
    executed = sim.run_until(5.0)
    assert executed == 0
    assert seen == []
    sim.run_until(10.0)
    assert seen == ["late"]


def test_run_for_relative():
    sim = Simulator()
    sim.run_for(3.0)
    assert sim.now == 3.0
    sim.run_for(2.0)
    assert sim.now == 5.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(4.0, lambda: None)


@pytest.mark.parametrize("push", [
    pytest.param(lambda sim: sim.call_at(0.5, print, "never"), id="call_at-past"),
    pytest.param(lambda sim: sim.call_at(float("nan"), print, "never"), id="call_at-nan"),
    pytest.param(lambda sim: sim.schedule(float("nan"), lambda: None), id="schedule-nan"),
    pytest.param(lambda sim: sim.schedule_at(float("nan"), lambda: None), id="schedule_at-nan"),
    pytest.param(
        lambda sim: sim.schedule_periodic(1.0, lambda: None, first_delay=-0.5),
        id="periodic-first-firing-past",
    ),
])
def test_push_before_now_or_nan_rejected(push):
    """The run loop sets the clock to each entry's time unchecked, so no
    push may queue a time before now or one that compares false."""
    sim = Simulator(start_time=1.0)
    with pytest.raises(SimulationError, match="in the past"):
        push(sim)
    assert sim.pending() == 0


def test_run_backwards_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_until(4.0)


def test_run_until_nan_rejected():
    sim = Simulator(start_time=1.0)
    seen = []
    sim.schedule_at(2.0, lambda: seen.append(sim.now))
    with pytest.raises(SimulationError, match="backwards"):
        sim.run_until(float("nan"))
    assert seen == []
    assert sim.now == 1.0
    assert sim.pending() == 1


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, lambda: seen.append(1))
    handle.cancel()
    sim.run_until(2.0)
    assert seen == []


def test_periodic_fires_repeatedly():
    sim = Simulator()
    seen = []
    sim.schedule_periodic(1.0, lambda: seen.append(sim.now))
    sim.run_until(5.5)
    assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_periodic_first_delay():
    sim = Simulator()
    seen = []
    sim.schedule_periodic(2.0, lambda: seen.append(sim.now), first_delay=0.5)
    sim.run_until(5.0)
    assert seen == [0.5, 2.5, 4.5]


def test_periodic_cancel_stops_series():
    sim = Simulator()
    seen = []
    handle = sim.schedule_periodic(1.0, lambda: seen.append(sim.now))
    sim.run_until(2.5)
    handle.cancel()
    sim.run_until(10.0)
    assert seen == [1.0, 2.0]


def test_periodic_bad_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_periodic(0.0, lambda: None)


@pytest.mark.parametrize("interval", [float("nan"), float("inf"), 1e-300, -1.0])
def test_periodic_interval_must_advance_the_clock(interval):
    """NaN slips past ``<= 0``, and 1e-300 added to 1.0 is 1.0: either
    series would fire forever at one instant."""
    sim = Simulator(start_time=1.0)
    with pytest.raises(SimulationError, match="advance the clock"):
        sim.schedule_periodic(interval, lambda: None)


def test_events_can_schedule_events():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(1.0, lambda: seen.append(sim.now))

    sim.schedule(1.0, first)
    sim.run_until(5.0)
    assert seen == [2.0]


def test_pending_counts_uncancelled():
    sim = Simulator()
    a = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    a.cancel()
    assert sim.pending() == 1


def test_determinism_same_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        values = []
        sim.schedule_periodic(0.5, lambda: values.append(sim.random.random()))
        sim.run_until(5.0)
        return values

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_router_boot_deterministic():
    """A whole router boot replays identically from the same seed — the
    property the fuzzer's byte-identical trace hashes are built on."""

    def boot(seed):
        sim, router = make_router(seed=seed)
        sim.run_until(5.0)
        return (sim.now, sim.events_executed, repr(router.stats()))

    assert boot(7) == boot(7)


def test_events_executed_counter():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run_until(3.0)
    assert sim.events_executed == 2


def test_clock_stays_a_float_after_an_int_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(2, lambda: seen.append(sim.now))
    sim.call_at(3, lambda arg: seen.append(sim.now), None)
    sim.run_until(4)
    assert seen == [2.0, 3.0]
    assert [type(now) for now in seen] == [float, float]
    assert type(sim.now) is float


class TestCallAt:
    """``call_at`` entries share the heap and its sequence counter with
    timers."""

    def test_runs_fn_with_arg_at_its_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.5, lambda arg: seen.append((sim.now, arg)), "frame")
        assert sim.run_until(2.0) == 1
        assert seen == [(1.5, "frame")]
        assert sim.events_executed == 1

    def test_same_instant_as_a_timer_runs_in_push_order(self):
        sim = Simulator()
        order = []
        sim.call_at(1.0, order.append, "delivery-1")
        sim.schedule_at(1.0, lambda: order.append("timer-1"))
        sim.call_at(1.0, order.append, "delivery-2")
        sim.schedule(1.0, lambda: order.append("timer-2"))
        sim.call_at(0.5, order.append, "earlier")
        sim.run_until(1.0)
        assert order == ["earlier", "delivery-1", "timer-1", "delivery-2", "timer-2"]

    def test_pushed_by_a_timer_at_now_runs_after_queued_peers(self):
        sim = Simulator()
        order = []

        def timer():
            order.append("timer")
            sim.call_at(sim.now, order.append, "pushed-at-now")

        sim.schedule_at(1.0, timer)
        sim.call_at(1.0, order.append, "queued")
        sim.run_until(1.0)
        assert order == ["timer", "queued", "pushed-at-now"]

    def test_raising_entry_leaves_later_entries_for_the_next_run(self):
        sim = Simulator()
        order = []

        def boom(arg):
            order.append(arg)
            raise RuntimeError("delivery failed")

        sim.call_at(1.0, order.append, "a")
        sim.call_at(1.0, boom, "boom")
        sim.call_at(1.0, order.append, "b")
        sim.schedule(2.0, lambda: order.append("c"))
        with pytest.raises(RuntimeError, match="delivery failed"):
            sim.run_until(5.0)
        assert order == ["a", "boom"]
        assert sim.events_executed == 2
        assert sim.now == 1.0
        assert sim.pending() == 2
        assert sim.run_until(5.0) == 2
        assert order == ["a", "boom", "b", "c"]
        assert sim.events_executed == 4
        assert sim.now == 5.0

    def test_pending_counts_call_at_entries(self):
        sim = Simulator()
        sim.call_at(1.0, print, "x")
        sim.call_at(2.0, print, "y")
        timer = sim.schedule(1.0, lambda: None)
        assert sim.pending() == 3
        timer.cancel()
        assert sim.pending() == 2


def test_raising_callback_leaves_later_events_for_the_next_run():
    sim = Simulator()
    order = []

    def boom():
        order.append("boom")
        sim.schedule(0.0, lambda: order.append("queued-by-boom"))
        raise RuntimeError("callback failed")

    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(1.0, boom)
    sim.schedule(1.0, lambda: order.append("b"))
    sim.schedule(2.0, lambda: order.append("c"))
    with pytest.raises(RuntimeError, match="callback failed"):
        sim.run_until(5.0)
    assert order == ["a", "boom"]
    assert sim.events_executed == 2
    assert sim.now == 1.0
    assert sim.run_until(5.0) == 3
    assert order == ["a", "boom", "b", "queued-by-boom", "c"]
    assert sim.events_executed == 5
    assert sim.now == 5.0


class TestHeapCompaction:
    """Cancelled entries stay on the heap until a pop skips them; however
    many pile up, the live events keep their order and their ticks."""

    def test_execution_order_unchanged_by_compaction(self):
        sim = Simulator()
        order = []
        events = [
            sim.schedule(i + 1.0, lambda i=i: order.append(i))
            for i in range(200)
        ]
        for event in events[::2]:
            event.cancel()
        assert sim.pending() == 100
        sim.run_until(300.0)
        assert order == [i for i in range(200) if i % 2 == 1]
        assert sim.pending() == 0

    def test_periodic_reschedule_survives_compaction(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(1.0, lambda: ticks.append(sim.now))
        doomed = [sim.schedule(500.0 + i, lambda: None) for i in range(100)]
        for event in doomed:
            event.cancel()
        assert sim.pending() == 1
        sim.run_until(5.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
