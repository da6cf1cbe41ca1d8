"""The secure channel between the datapath and the NOX controller.

On the Homework router both run on the same box, so the channel is a
low-latency local TCP connection; we model it as an ordered message pipe
with configurable one-way latency, letting benches measure how channel
latency dominates the flow-setup path (experiment T2).

Each message is one :meth:`~repro.sim.simulator.Simulator.call_at`
entry on the simulator's heap, due one latency after it is sent (no
timer handle, no closure); messages sent at the same instant arrive in
send order because the simulator breaks timestamp ties by push order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..core.errors import SimulationError
from ..core.metrics import MetricsRegistry
from ..net.trace import trace_of
from .messages import Hello, OpenFlowMessage, PacketIn

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulator import Simulator
    from .datapath import Datapath

ControllerSink = Callable[[OpenFlowMessage], None]

class SecureChannel:
    """Ordered, bidirectional OpenFlow message pipe with latency."""

    def __init__(
        self,
        sim: "Simulator",
        latency: float = 0.0005,
        registry: Optional[MetricsRegistry] = None,
    ):
        if latency < 0:
            raise SimulationError(f"channel latency must be >= 0: {latency}")
        self.sim = sim
        self.latency = latency
        self.datapath: Optional["Datapath"] = None
        self._controller_sink: Optional[ControllerSink] = None
        self.connected = False
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_to_controller = self.registry.counter("openflow.channel_to_controller_total")
        self._m_to_switch = self.registry.counter("openflow.channel_to_switch_total")
        self._m_disconnects = self.registry.counter("openflow.channel_disconnect_total")
        self._m_reconnects = self.registry.counter("openflow.channel_reconnect_total")

    def connect(self, datapath: "Datapath", controller_sink: ControllerSink) -> None:
        """Wire both ends and exchange Hello messages."""
        self.datapath = datapath
        self._controller_sink = controller_sink
        datapath.attach_channel(self)
        self.connected = True
        self.to_controller(Hello())
        self.to_switch(Hello())

    def disconnect(self) -> None:
        """Drop the connection; future messages are lost (in-flight ones
        were already serialised onto the wire and still arrive)."""
        if self.connected:
            self._m_disconnects.inc()
        self.connected = False

    def reconnect(self) -> None:
        """Re-establish a dropped connection (new Hello exchange).

        Models the switch's reconnect loop after a controller restart:
        messages lost while down stay lost, so reactive state (pending
        packet-ins) must be re-driven by retransmissions from the hosts.
        """
        if self.connected or self.datapath is None or self._controller_sink is None:
            return
        self.connected = True
        self._m_reconnects.inc()
        self.to_controller(Hello())
        self.to_switch(Hello())

    def _send(self, deliver: ControllerSink, msg: OpenFlowMessage) -> None:
        """Deliver ``msg`` after one channel latency, as its own event."""
        if self.latency <= 0:
            deliver(msg)
            return
        self.sim.call_at(self.sim.now + self.latency, deliver, msg)

    def to_controller(self, msg: OpenFlowMessage) -> None:
        """Switch → controller delivery after one channel latency."""
        ctx = trace_of(msg.data) if isinstance(msg, PacketIn) else None
        if not self.connected or self._controller_sink is None:
            if ctx is not None:
                ctx.finish("channel", "drop", decision="drop", cause="disconnected")
            return
        self._m_to_controller.inc()
        if ctx is not None:
            ctx.hop("channel", "deliver", cause=f"latency={self.latency}")
        self._send(self._controller_sink, msg)

    def to_switch(self, msg: OpenFlowMessage) -> None:
        """Controller → switch delivery after one channel latency."""
        if not self.connected or self.datapath is None:
            return
        self._m_to_switch.inc()
        self._send(self.datapath.handle_message, msg)
