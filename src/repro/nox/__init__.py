"""NOX-like OpenFlow controller: event chains and the component model."""

from .component import CONTINUE, Component, STOP
from .controller import (
    Controller,
    EV_FLOW_REMOVED,
    EV_PACKET_IN,
)
from .l2_learning import L2LearningSwitch

__all__ = [
    "CONTINUE",
    "STOP",
    "Component",
    "Controller",
    "EV_PACKET_IN",
    "EV_FLOW_REMOVED",
    "L2LearningSwitch",
]
