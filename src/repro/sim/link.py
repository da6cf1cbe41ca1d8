"""Ports and links: the physical layer of the simulated home network.

A :class:`Port` belongs to a node (host or switch); a :class:`Link`
connects two ports with latency and bandwidth.  :class:`WirelessLink`
adds the RSSI/retry behaviour the paper's artifact Mode 1 and Mode 3
visualise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.errors import SimulationError
from ..net.port import Port, ReceiveHandler
from ..net.trace import trace_of

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
        # Track per-direction busy-until time so back-to-back frames queue.
        self._busy_until = {id(a): 0.0, id(b): 0.0}
        # Optional fault-injection hook (repro.check): when set, every
        # transmission asks the fault for a delivery plan — a sequence of
        # extra-latency offsets.  () drops the frame, (0.0,) is a normal
        # delivery, (0.0, 0.0) duplicates, (delta,) reorders past frames
        # queued behind it.
        self.fault = None

    def peer(self, port: Port) -> Port:
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise SimulationError("port not on this link")

    def _serialization_delay(self, frame: bytes) -> float:
        return len(frame) * 8.0 / self.bandwidth_bps

    def _delivery_plan(self, frame: bytes):
        """Extra-latency offsets for each copy to deliver (fault hook)."""
        if self.fault is None:
            return (0.0,)
        return self.fault.plan(self.sim, frame)

    def _schedule_delivery(self, destination: Port, arrival: float, frame: bytes) -> None:
        """Deliver ``frame`` to ``destination`` at ``arrival``: one
        simulator event per delivered copy."""
        self.sim.schedule_at(arrival, lambda: destination.deliver(frame))

    def transmit(self, from_port: Port, frame: bytes) -> None:
        """Schedule delivery of ``frame`` at the far end."""
        destination = self.peer(from_port)
        plan = self._delivery_plan(frame)
        ctx = trace_of(frame)
        if not plan:
            self.frames_dropped += 1
            if ctx is not None:
                # A drop always publishes its lineage (sampling bypassed).
                ctx.finish("link", "drop", decision="drop", cause="link_fault")
            return
        if ctx is not None and ctx.active:
            ctx.hop("link", "deliver", cause=f"wired dst={destination.name}")
        start = max(self.sim.now, self._busy_until[id(from_port)])
        done = start + self._serialization_delay(frame)
        self._busy_until[id(from_port)] = done
        self.frames_carried += 1
        self.bytes_carried += len(frame)
        for extra in plan:
            arrival = done + self.latency + extra
            self._schedule_delivery(destination, arrival, frame)

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
        destination = self.peer(from_port)
        loss = self.loss_probability()
        attempts = 1
        while attempts <= self.max_retries and self.sim.random.random() < loss:
            attempts += 1
        self.transmissions += attempts
        self.retries += attempts - 1
        ctx = trace_of(frame)
        if attempts > self.max_retries:
            self.frames_dropped += 1
            if ctx is not None:
                ctx.finish(
                    "link",
                    "drop",
                    decision="drop",
                    cause=f"retries_exceeded rssi={self.rssi_dbm:.1f}dBm",
                )
            return
        plan = self._delivery_plan(frame)
        if not plan:
            self.frames_dropped += 1
            if ctx is not None:
                ctx.finish("link", "drop", decision="drop", cause="link_fault")
            return
        if ctx is not None and ctx.active:
            ctx.hop(
                "link",
                "deliver",
                cause=f"wireless rssi={self.rssi_dbm:.1f}dBm retries={attempts - 1}",
            )
        start = max(self.sim.now, self._busy_until[id(from_port)])
        done = start + attempts * self._serialization_delay(frame)
        self._busy_until[id(from_port)] = done
        self.frames_carried += 1
        self.bytes_carried += len(frame)
        for extra in plan:
            arrival = done + self.latency + extra
            self._schedule_delivery(destination, arrival, frame)

    def __repr__(self) -> str:
        return (
            f"WirelessLink({self.a.name} <-> {self.b.name}, "
            f"rssi={self.rssi_dbm:.1f} dBm)"
        )
