"""Discrete-event simulation engine.

The reproduction substitutes the paper's physical testbed (a small
form-factor PC bridging the home's wired and wireless segments) with a
deterministic discrete-event simulator.  Every component — links, host
stacks, the OpenFlow datapath, DHCP lease timers, hwdb collectors, the
artifact's animation — schedules work on this engine and reads time from
its :class:`~repro.core.clock.SimulatedClock`.
"""

from __future__ import annotations

import itertools
import math
import random
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from ..core.clock import SimulatedClock
from ..core.errors import SimulationError
from ..core.events import EventBus

Action = Callable[[], Any]


class ScheduledEvent:
    """Handle for a timer; supports cancellation.

    ``when`` is the next firing time; ``interval`` is 0.0 for a one-shot
    timer, else the series' period.
    """

    __slots__ = ("when", "action", "interval", "cancelled")

    def __init__(self, when: float, action: Action, interval: float = 0.0):
        self.when = when
        self.action = action
        self.interval = interval
        self.cancelled = False

    def cancel(self) -> None:
        """Cancelled timers stay on the heap until a pop skips them."""
        self.cancelled = True


class Simulator:
    """A deterministic event-driven simulator.

    Callbacks fire in timestamp order; ties break in scheduling order, so
    runs are reproducible given the same seed.  The simulator owns the
    :class:`SimulatedClock` and an :class:`EventBus` shared by all
    simulated components.

    The heap holds two kinds of ``(when, seq, fn, arg)`` entry: a
    delivery from :meth:`call_at` runs ``fn(arg)``, and a timer has
    ``fn`` None and its :class:`ScheduledEvent` as ``arg``.  ``seq``
    comes from one counter for both and is unique, so ``heapq`` orders
    entries by comparing two numbers in C and never reaches the rest.
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0):
        self.clock = SimulatedClock(start_time)
        self.bus = EventBus()
        self.random = random.Random(seed)
        self._queue: List[Tuple[float, int, Any, Any]] = []
        self._seq = itertools.count()
        self.events_executed = 0

    @property
    def now(self) -> float:
        return self.clock.now()

    def schedule(self, delay: float, action: Action) -> ScheduledEvent:
        """Run ``action`` after ``delay`` seconds of simulated time."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self.schedule_at(self.now + delay, action)

    def schedule_at(self, when: float, action: Action) -> ScheduledEvent:
        """Run ``action`` at absolute simulated time ``when``."""
        event = ScheduledEvent(when, action)
        # A timer is the heap entry whose ``fn`` is None.
        self.call_at(when, None, event)
        return event

    def call_at(self, when: float, fn: Optional[Callable[[Any], Any]], arg: Any) -> None:
        """Run ``fn(arg)`` at absolute simulated time ``when``.

        A one-shot entry with no handle, so it cannot be cancelled: the
        form every link copy and channel message takes, so that a
        delivery builds no :class:`ScheduledEvent` and no closure.  It
        keeps its place among timers at the same instant, in push order.
        """
        if not when >= self.clock._now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self.now}")
        heappush(self._queue, (float(when), next(self._seq), fn, arg))

    def schedule_periodic(
        self, interval: float, action: Action, first_delay: Optional[float] = None
    ) -> ScheduledEvent:
        """Run ``action`` every ``interval`` seconds until cancelled.

        Returns the handle for the *series*; cancelling it stops future
        firings.  ``interval`` must be finite and advance the clock from
        now, or the series would never let time pass.
        """
        if not (math.isfinite(interval) and self.now + interval > self.now):
            raise SimulationError(
                f"periodic interval must be finite and advance the clock: {interval!r}"
            )
        delay = interval if first_delay is None else first_delay
        event = ScheduledEvent(self.now + delay, action, interval)
        self.call_at(event.when, None, event)
        return event

    def run_until(self, when: float) -> int:
        """Execute events up to and including time ``when``.

        The clock always lands on ``when`` afterwards (even if the queue
        drains early).  Returns the number of events executed.  A
        callback that raises propagates out with the clock at its time;
        the events after it stay queued for the next call.

        The loop sets the clock straight to each entry's time: every
        push refuses a time before now (or NaN), so the heap's minimum
        never lies behind the clock.
        """
        if not when >= self.now:
            raise SimulationError(f"cannot run backwards to {when}")
        queue = self._queue
        clock = self.clock
        seq = self._seq
        before = self.events_executed
        while queue and queue[0][0] <= when:
            at, _, fn, arg = heappop(queue)
            if fn is not None:
                clock._now = at
                self.events_executed += 1
                fn(arg)
            elif not arg.cancelled:
                clock._now = at
                self.events_executed += 1
                arg.action()
                if arg.interval and not arg.cancelled:
                    arg.when = at = at + arg.interval
                    heappush(queue, (at, next(seq), None, arg))
        clock.advance_to(when)
        return self.events_executed - before

    def run_for(self, duration: float) -> int:
        """Execute events for the next ``duration`` seconds."""
        return self.run_until(self.now + duration)

    def pending(self) -> int:
        """Number of queued deliveries and uncancelled timers."""
        return sum(1 for _, _, fn, arg in self._queue if fn is not None or not arg.cancelled)
