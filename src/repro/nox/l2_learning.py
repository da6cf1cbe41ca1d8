"""Reference L2-learning switch component (NOX's classic ``pyswitch``).

Not used on the Homework router itself — its switching component routes
through the controller deliberately — but included as the baseline NOX
application for the flow-setup benchmarks (experiment T2) and as the
canonical example of the component API.
"""

from __future__ import annotations

import logging
from typing import Dict

from ..net.addresses import MACAddress
from ..openflow.actions import flood, output
from ..openflow.match import Match, extract_key
from ..openflow.messages import NO_BUFFER, PacketIn
from .component import CONTINUE, Component, STOP
from .controller import EV_PACKET_IN

logger = logging.getLogger(__name__)


class L2LearningSwitch(Component):
    """Learn source MACs; install exact flows toward known destinations."""

    name = "l2_learning"

    def __init__(self, controller, idle_timeout: float = 5.0, install_flows: bool = True):
        super().__init__(controller)
        self.idle_timeout = idle_timeout
        self.install_flows = install_flows
        self.mac_to_port: Dict[MACAddress, int] = {}
        self.floods = 0
        self.installs = 0

    def install(self) -> None:
        self.register_handler(EV_PACKET_IN, self.handle_packet_in, priority=200)

    def handle_packet_in(self, msg: PacketIn) -> int:
        key = extract_key(msg.data, msg.in_port)
        if key is None:
            return CONTINUE
        # Learn the sender's port.
        self.mac_to_port[key.dl_src] = msg.in_port

        if key.dl_dst.is_broadcast or key.dl_dst.is_multicast:
            self._flood(msg)
            return STOP

        out_port = self.mac_to_port.get(key.dl_dst)
        if out_port is None:
            self._flood(msg)
            return STOP

        if self.install_flows:
            self.installs += 1
            self.controller.install_flow(
                Match.from_key(key),
                output(out_port),
                idle_timeout=self.idle_timeout,
                buffer_id=msg.buffer_id,
            )
            if msg.buffer_id == NO_BUFFER:
                self.controller.send_packet(
                    msg.data, output(out_port), in_port=msg.in_port
                )
        else:
            self.controller.send_packet(
                b"" if msg.buffer_id != NO_BUFFER else msg.data,
                output(out_port),
                in_port=msg.in_port,
                buffer_id=msg.buffer_id,
            )
        return STOP

    def _flood(self, msg: PacketIn) -> None:
        self.floods += 1
        self.controller.send_packet(
            b"" if msg.buffer_id != NO_BUFFER else msg.data,
            flood(),
            in_port=msg.in_port,
            buffer_id=msg.buffer_id,
        )
