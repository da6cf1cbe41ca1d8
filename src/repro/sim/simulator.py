"""Discrete-event simulation engine.

The reproduction substitutes the paper's physical testbed (a small
form-factor PC bridging the home's wired and wireless segments) with a
deterministic discrete-event simulator.  Every component — links, host
stacks, the OpenFlow datapath, DHCP lease timers, hwdb collectors, the
artifact's animation — schedules work on this engine and reads time from
its :class:`~repro.core.clock.SimulatedClock`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import Any, Callable, List, Optional, Tuple

from ..core.clock import SimulatedClock
from ..core.errors import SimulationError
from ..core.events import EventBus

Action = Callable[[], Any]


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("when", "seq", "action", "cancelled", "periodic", "interval")

    def __init__(
        self,
        when: float,
        seq: int,
        action: Action,
        periodic: bool = False,
        interval: float = 0.0,
    ):
        self.when = when
        self.seq = seq
        self.action = action
        self.cancelled = False
        self.periodic = periodic
        self.interval = interval

    def cancel(self) -> None:
        """Cancelled events stay on the heap until a pop skips them."""
        self.cancelled = True


class Simulator:
    """A deterministic event-driven simulator.

    Callbacks fire in timestamp order; ties break in scheduling order, so
    runs are reproducible given the same seed.  The simulator owns the
    :class:`SimulatedClock` and an :class:`EventBus` shared by all
    simulated components.

    The heap holds ``(when, seq, event)`` tuples.  ``seq`` is unique, so
    ``heapq`` orders entries by comparing two numbers in C and never
    reaches the event itself.
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0):
        self.clock = SimulatedClock(start_time)
        self.bus = EventBus()
        self.random = random.Random(seed)
        self._queue: List[Tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self._running = False
        self.events_executed = 0

    @property
    def now(self) -> float:
        return self.clock.now()

    def schedule(self, delay: float, action: Action) -> ScheduledEvent:
        """Run ``action`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        event = ScheduledEvent(self.now + delay, next(self._seq), action)
        heapq.heappush(self._queue, (event.when, event.seq, event))
        return event

    def schedule_at(self, when: float, action: Action) -> ScheduledEvent:
        """Run ``action`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self.now}")
        event = ScheduledEvent(when, next(self._seq), action)
        heapq.heappush(self._queue, (when, event.seq, event))
        return event

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
        event = ScheduledEvent(
            self.now + delay,
            next(self._seq),
            action,
            periodic=True,
            interval=interval,
        )
        heapq.heappush(self._queue, (event.when, event.seq, event))
        return event

    def _pop_due(self, horizon: float) -> Optional[ScheduledEvent]:
        queue = self._queue
        while queue:
            if queue[0][0] > horizon:
                return None
            event = heapq.heappop(queue)[2]
            if not event.cancelled:
                return event
        return None

    def _execute(self, event: ScheduledEvent) -> None:
        self.clock.advance_to(event.when)
        self.events_executed += 1
        event.action()
        if event.periodic and not event.cancelled:
            event.when += event.interval
            event.seq = next(self._seq)
            heapq.heappush(self._queue, (event.when, event.seq, event))

    def run_until(self, when: float) -> int:
        """Execute events up to and including time ``when``.

        The clock always lands on ``when`` afterwards (even if the queue
        drains early).  Returns the number of events executed.  A
        callback that raises propagates out with the clock at its time;
        the events after it stay queued for the next call.
        """
        if when < self.now:
            raise SimulationError(f"cannot run backwards to {when}")
        executed = 0
        while True:
            event = self._pop_due(when)
            if event is None:
                break
            self._execute(event)
            executed += 1
        self.clock.advance_to(when)
        return executed

    def run_for(self, duration: float) -> int:
        """Execute events for the next ``duration`` seconds."""
        return self.run_until(self.now + duration)

    def pending(self) -> int:
        """Number of scheduled, uncancelled events."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)
