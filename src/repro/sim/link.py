"""Ports and links: the physical layer of the simulated home network.

A :class:`Port` belongs to a node (host or switch); a :class:`Link`
connects two ports with latency and bandwidth.  :class:`WirelessLink`
adds the RSSI/retry behaviour the paper's artifact Mode 1 and Mode 3
visualise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.errors import SimulationError
from ..net.port import Port, ReceiveHandler
from ..net.trace import TraceContext, trace_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator

__all__ = ["Link", "Port", "ReceiveHandler", "WirelessLink"]


class Link:
    """A full-duplex wired link between two ports.

    Serialisation delay is ``len(frame) / bandwidth`` plus fixed
    ``latency``.  Frames on one direction are delivered in order.
    """

    def __init__(
        self,
        sim: "Simulator",
        a: Port,
        b: Port,
        latency: float = 0.0002,
        bandwidth_bps: float = 1_000_000_000.0,
    ):
        if a.link is not None or b.link is not None:
            raise SimulationError("port already attached to a link")
        if latency < 0 or bandwidth_bps <= 0:
            raise SimulationError("bad link parameters")
        self.sim = sim
        self.a = a
        self.b = b
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        a.link = self
        b.link = self
        self.frames_carried = 0
        self.bytes_carried = 0
        self.frames_dropped = 0
        # Busy-until time per direction, [from a, from b], so
        # back-to-back frames queue.
        self._busy_until = [0.0, 0.0]
        # Optional fault-injection hook (repro.check): when set, every
        # transmission asks the fault for a delivery plan — a sequence of
        # extra-latency offsets.  () drops the frame, (0.0,) is a normal
        # delivery, (0.0, 0.0) duplicates, (delta,) reorders past frames
        # queued behind it.
        self.fault = None
        # Packet-lineage flight recorder; the router injects its Tracer
        # (None = tracing off).  A drop mints a lineage from it for a
        # frame that arrives without one.
        self.tracer = None

    def peer(self, port: Port) -> Port:
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise SimulationError("port not on this link")

    def _lineage(self, from_port: Port, frame: bytes) -> Optional[TraceContext]:
        """The lineage ``frame`` carries, minted late at this drop site
        for an untraced frame; its root names ``from_port``."""
        ctx = trace_of(frame)
        if ctx is None and self.tracer is not None:
            ctx = self.tracer.late(frame, from_port)
        return ctx

    def transmit(self, from_port: Port, frame: bytes) -> None:
        """Schedule delivery of ``frame`` at the far end."""
        self._carry(from_port, self.peer(from_port), frame, 1)

    def _carry(
        self, from_port: Port, destination: Port, frame: bytes, attempts: int
    ) -> None:
        """Put ``frame`` on the medium for ``attempts`` serialisations and
        deliver each copy the fault plan asks for, or drop it.  Each copy
        is one :meth:`Simulator.call_at` entry."""
        sim = self.sim
        fault = self.fault
        if fault is not None:
            plan = fault.plan(sim, frame)
            if not plan:
                self.frames_dropped += 1
                ctx = self._lineage(from_port, frame)
                if ctx is not None:
                    # A drop always publishes its lineage (sampling bypassed).
                    ctx.finish("link", "drop", decision="drop", cause="link_fault")
                return
        ctx = trace_of(frame)
        if ctx is not None and ctx.active:
            ctx.hop("link", "deliver", cause=self._deliver_cause(destination, attempts))
        now = sim.now
        busy_until = self._busy_until
        side = from_port is self.b
        start = busy_until[side]
        if start < now:
            start = now
        done = start + attempts * (len(frame) * 8.0 / self.bandwidth_bps)
        busy_until[side] = done
        self.frames_carried += 1
        self.bytes_carried += len(frame)
        arrival = done + self.latency
        if fault is None:
            sim.call_at(arrival, destination.deliver, frame)
        else:
            for extra in plan:
                sim.call_at(arrival + extra, destination.deliver, frame)

    def _deliver_cause(self, destination: Port, attempts: int) -> str:
        """The cause of a traced frame's deliver hop."""
        return f"wired dst={destination.name}"

    def __repr__(self) -> str:
        return f"Link({self.a.name} <-> {self.b.name})"


class WirelessLink(Link):
    """An 802.11-style link with signal-dependent loss and retries.

    Loss probability is derived from the receiver's RSSI (set via
    :meth:`set_rssi`, typically by :class:`~repro.sim.wireless.RadioEnvironment`).
    Each lost transmission is retried up to ``max_retries`` times, and the
    retry count is observable — the artifact's Mode 3 flashes red when the
    retry proportion is high.
    """

    def __init__(
        self,
        sim: "Simulator",
        a: Port,
        b: Port,
        latency: float = 0.002,
        bandwidth_bps: float = 54_000_000.0,
        rssi_dbm: float = -50.0,
        max_retries: int = 7,
    ):
        super().__init__(sim, a, b, latency=latency, bandwidth_bps=bandwidth_bps)
        self.rssi_dbm = rssi_dbm
        self.max_retries = max_retries
        self.retries = 0
        self.transmissions = 0

    def set_rssi(self, rssi_dbm: float) -> None:
        self.rssi_dbm = float(rssi_dbm)

    def loss_probability(self) -> float:
        """Per-attempt loss probability as a function of RSSI.

        Piecewise model: clean above -60 dBm, unusable below -90 dBm,
        linear in between — a standard simplification of 802.11 rate/
        error behaviour.
        """
        if self.rssi_dbm >= -60.0:
            return 0.001
        if self.rssi_dbm <= -90.0:
            return 0.95
        span = (-60.0 - self.rssi_dbm) / 30.0
        return 0.001 + span * (0.95 - 0.001)

    def retry_proportion(self) -> float:
        """Fraction of transmissions that were retries (Mode 3 input)."""
        if self.transmissions == 0:
            return 0.0
        return self.retries / self.transmissions

    def transmit(self, from_port: Port, frame: bytes) -> None:
        """Draw the attempts ``frame`` takes; past ``max_retries`` it is
        dropped, else it is carried as on a wire, each attempt taking the
        medium for one serialisation."""
        destination = self.peer(from_port)
        loss = self.loss_probability()
        attempts = 1
        while attempts <= self.max_retries and self.sim.random.random() < loss:
            attempts += 1
        self.transmissions += attempts
        self.retries += attempts - 1
        if attempts > self.max_retries:
            self.frames_dropped += 1
            ctx = self._lineage(from_port, frame)
            if ctx is not None:
                ctx.finish(
                    "link",
                    "drop",
                    decision="drop",
                    cause=f"retries_exceeded rssi={self.rssi_dbm:.1f}dBm",
                )
            return
        self._carry(from_port, destination, frame, attempts)

    def _deliver_cause(self, destination: Port, attempts: int) -> str:
        return f"wireless rssi={self.rssi_dbm:.1f}dBm retries={attempts - 1}"

    def __repr__(self) -> str:
        return (
            f"WirelessLink({self.a.name} <-> {self.b.name}, "
            f"rssi={self.rssi_dbm:.1f} dBm)"
        )
