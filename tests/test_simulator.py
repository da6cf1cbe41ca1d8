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


def test_run_backwards_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_until(4.0)


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


def test_run_drains_oneshot_queue():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(1))
    sim.schedule(2.0, lambda: seen.append(2))
    executed = sim.run()
    assert executed == 2
    assert seen == [1, 2]


def test_run_stops_at_periodic():
    sim = Simulator()
    sim.schedule_periodic(1.0, lambda: None)
    executed = sim.run(max_events=100)
    assert executed == 0  # periodic events are not drained


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
    """Cancelled entries are purged once they dominate the heap."""

    def test_compaction_triggers_above_threshold(self):
        sim = Simulator()
        keep = [sim.schedule(1000.0 + i, lambda: None) for i in range(10)]
        doomed = [sim.schedule(i + 1.0, lambda: None) for i in range(60)]
        assert len(sim._queue) == 70
        # The 36th cancellation crosses the >half threshold (72 > 70)
        # and purges every cancelled entry accumulated so far.
        for event in doomed[:35]:
            event.cancel()
        assert sim.compactions == 0
        doomed[35].cancel()
        assert sim.compactions == 1
        assert len(sim._queue) == 34
        assert sim._cancelled_in_queue == 0
        assert sim.pending() == len(keep) + len(doomed) - 36

    def test_no_compaction_below_min_size(self):
        sim = Simulator()
        events = [sim.schedule(i + 1.0, lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        assert sim.compactions == 0

    def test_execution_order_unchanged_by_compaction(self):
        def run(compact: bool) -> list:
            sim = Simulator()
            order = []
            events = [
                sim.schedule(i + 1.0, lambda i=i: order.append(i))
                for i in range(200)
            ]
            for event in events[::2]:
                event.cancel()
            if not compact:
                # Rebuild the simulator's view as if nothing was purged.
                assert sim.compactions >= 0
            sim.run_until(300.0)
            return order

        baseline = run(compact=False)
        assert baseline == run(compact=True)
        assert baseline == [i for i in range(200) if i % 2 == 1]

    def test_popped_cancelled_events_decrement_counter(self):
        sim = Simulator()
        events = [sim.schedule(i + 1.0, lambda: None) for i in range(63)]
        # Below COMPACT_MIN_SIZE + ratio, so no compaction: cancelled
        # events drain through the pop path instead.
        for event in events[:31]:
            event.cancel()
        assert sim.compactions == 0
        sim.run_until(100.0)
        assert sim._cancelled_in_queue == 0
        assert len(sim._queue) == 0

    def test_periodic_reschedule_survives_compaction(self):
        sim = Simulator()
        ticks = []
        sim.schedule_periodic(1.0, lambda: ticks.append(sim.now))
        doomed = [sim.schedule(500.0 + i, lambda: None) for i in range(100)]
        for event in doomed:
            event.cancel()
        assert sim.compactions == 1
        sim.run_until(5.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]
