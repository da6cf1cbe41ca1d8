"""Clock abstraction.

Everything in the reproduction reads time through a :class:`Clock` so the
whole router can run under the discrete-event simulator (deterministic,
faster than real time) or against the wall clock. hwdb timestamps, DHCP
lease expiry, policy schedules and the artifact's animation all consume
the same clock instance.
"""

from __future__ import annotations

import time
from typing import Callable


class Clock:
    """Abstract time source; seconds since an arbitrary epoch."""

    def now(self) -> float:
        raise NotImplementedError

    def __call__(self) -> float:
        return self.now()


class WallClock(Clock):
    """Real time via ``time.monotonic`` offset to a fixed epoch."""

    def __init__(self) -> None:
        self._epoch = time.time() - time.monotonic()

    def now(self) -> float:
        return self._epoch + time.monotonic()


class SimulatedClock(Clock):
    """Manually advanced time, driven by the event simulator.

    The simulator's run loop writes ``_now`` itself, once per event; it
    refuses to queue anything before now, so time still never goes
    backwards.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance_to(self, when: float) -> None:
        """Move time forward to ``when``; time never goes backwards."""
        if when < self._now:
            raise ValueError(
                f"clock cannot go backwards: {when} < {self._now}"
            )
        self._now = float(when)

    def advance(self, delta: float) -> None:
        """Move time forward by ``delta`` seconds."""
        if delta < 0:
            raise ValueError(f"negative clock advance: {delta}")
        self._now += float(delta)


ClockSource = Callable[[], float]
