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
from typing import Any, Callable, List, Optional

from ..core.clock import SimulatedClock
from ..core.errors import SimulationError
from ..core.events import EventBus

Action = Callable[[], Any]


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("when", "seq", "action", "cancelled", "periodic", "interval", "owner")

    def __init__(
        self,
        when: float,
        seq: int,
        action: Action,
        periodic: bool = False,
        interval: float = 0.0,
        owner: Optional["Simulator"] = None,
    ):
        self.when = when
        self.seq = seq
        self.action = action
        self.cancelled = False
        self.periodic = periodic
        self.interval = interval
        self.owner = owner

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self.owner is not None:
                self.owner._note_cancelled()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


class Simulator:
    """A deterministic event-driven simulator.

    Callbacks fire in timestamp order; ties break in scheduling order, so
    runs are reproducible given the same seed.  The simulator owns the
    :class:`SimulatedClock` and an :class:`EventBus` shared by all
    simulated components.
    """

    #: Compaction threshold: rebuild the heap once more than half of it
    #: is lazily-deleted (cancelled) entries.  Small heaps are left alone
    #: — rebuilding 30 entries costs more bookkeeping than it saves.
    COMPACT_MIN_SIZE = 64

    def __init__(self, seed: int = 0, start_time: float = 0.0):
        self.clock = SimulatedClock(start_time)
        self.bus = EventBus()
        self.random = random.Random(seed)
        self._queue: List[ScheduledEvent] = []
        self._seq = itertools.count()
        self._running = False
        self.events_executed = 0
        self._cancelled_in_queue = 0
        self.compactions = 0

    @property
    def now(self) -> float:
        return self.clock.now()

    def schedule(self, delay: float, action: Action) -> ScheduledEvent:
        """Run ``action`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        event = ScheduledEvent(self.now + delay, next(self._seq), action, owner=self)
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, when: float, action: Action) -> ScheduledEvent:
        """Run ``action`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self.now}")
        event = ScheduledEvent(when, next(self._seq), action, owner=self)
        heapq.heappush(self._queue, event)
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
            owner=self,
        )
        heapq.heappush(self._queue, event)
        return event

    def _note_cancelled(self) -> None:
        """A handle we issued was cancelled; compact once garbage dominates.

        Cancelled entries stay in the heap (lazy deletion) until either a
        pop skips them or this threshold rebuild drops them wholesale —
        without it, long runs that cancel many timers (DHCP renewals, NAT
        sweeps, fault windows) bloat the heap and slow every push/pop.
        """
        self._cancelled_in_queue += 1
        if (
            len(self._queue) >= self.COMPACT_MIN_SIZE
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Heap order among live events is fully determined by
        ``(when, seq)``, so dropping garbage never changes which event
        runs next — determinism is unaffected.  The rebuild is in place:
        a cancel inside a running callback can land here, and the queue
        stays the one list object that every push and pop uses.
        """
        self._queue[:] = [event for event in self._queue if not event.cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0
        self.compactions += 1

    def _pop_due(self, horizon: float) -> Optional[ScheduledEvent]:
        while self._queue:
            head = self._queue[0]
            if head.when > horizon:
                return None
            heapq.heappop(self._queue)
            if head.cancelled:
                if self._cancelled_in_queue > 0:
                    self._cancelled_in_queue -= 1
                continue
            return head
        return None

    def _execute(self, event: ScheduledEvent) -> None:
        self.clock.advance_to(event.when)
        self.events_executed += 1
        event.action()
        if event.periodic and not event.cancelled:
            event.when += event.interval
            event.seq = next(self._seq)
            heapq.heappush(self._queue, event)

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

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the whole queue (one-shot events), up to ``max_events``."""
        executed = 0
        while self._queue and executed < max_events:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                if self._cancelled_in_queue > 0:
                    self._cancelled_in_queue -= 1
                continue
            if event.periodic:
                # Draining with periodic events would never terminate;
                # re-queue and stop at this timestamp instead.
                heapq.heappush(self._queue, event)
                break
            self._execute(event)
            executed += 1
        return executed

    def pending(self) -> int:
        """Number of scheduled, uncancelled events."""
        return sum(1 for e in self._queue if not e.cancelled)
