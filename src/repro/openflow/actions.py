"""OpenFlow actions.

The paper: "There are four basic types of action, ranging from simply
dropping or forwarding the packet, to forwarding it to the controller for
further processing, to forwarding it through the switch's normal
processing pipeline.  Packets can be modified as they are forwarded."

An empty action list drops; :data:`PORT_CONTROLLER` punts to NOX;
:data:`PORT_NORMAL` hands the frame to the switch's learning pipeline;
``Set*`` actions rewrite headers in flight (how the router rewrites MACs
when routing between the per-device /30 networks, and how NAT rewrites
addresses and ports).  They edit the frame's bytes at fixed offsets
(:mod:`repro.net.rewrite`); the frame is never unpacked.
"""

from __future__ import annotations

from typing import List, Union

from ..net import rewrite
from ..net.addresses import IPv4Address, MACAddress

# Reserved port numbers, per OpenFlow 1.0.
PORT_MAX = 0xFF00
PORT_IN_PORT = 0xFFF8
PORT_TABLE = 0xFFF9
PORT_NORMAL = 0xFFFA
PORT_FLOOD = 0xFFFB
PORT_ALL = 0xFFFC
PORT_CONTROLLER = 0xFFFD
PORT_LOCAL = 0xFFFE
PORT_NONE = 0xFFFF

RESERVED_PORT_NAMES = {
    PORT_IN_PORT: "IN_PORT",
    PORT_TABLE: "TABLE",
    PORT_NORMAL: "NORMAL",
    PORT_FLOOD: "FLOOD",
    PORT_ALL: "ALL",
    PORT_CONTROLLER: "CONTROLLER",
    PORT_LOCAL: "LOCAL",
    PORT_NONE: "NONE",
}


class Action:
    """Base class; actions either forward (Output) or rewrite (Set*)."""

    def apply(self, buf: bytearray) -> None:
        """Edit the frame bytes in ``buf`` in place (no-op for Output)."""

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == getattr(
            other, "__dict__", None
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class Output(Action):
    """Forward out a port (physical number or reserved constant)."""

    def __init__(self, port: int):
        self.port = int(port)

    def __repr__(self) -> str:
        name = RESERVED_PORT_NAMES.get(self.port, str(self.port))
        return f"Output({name})"


class SetDlSrc(Action):
    """Rewrite the Ethernet source address."""

    def __init__(self, mac: Union[str, MACAddress]):
        self.mac = MACAddress(mac)

    def apply(self, buf: bytearray) -> None:
        rewrite.set_dl_src(buf, self.mac.packed)

    def __repr__(self) -> str:
        return f"SetDlSrc({self.mac})"


class SetDlDst(Action):
    """Rewrite the Ethernet destination address."""

    def __init__(self, mac: Union[str, MACAddress]):
        self.mac = MACAddress(mac)

    def apply(self, buf: bytearray) -> None:
        rewrite.set_dl_dst(buf, self.mac.packed)

    def __repr__(self) -> str:
        return f"SetDlDst({self.mac})"


class SetNwSrc(Action):
    """Rewrite the IPv4 source address (NAT-style)."""

    def __init__(self, ip: Union[str, IPv4Address]):
        self.ip = IPv4Address(ip)

    def apply(self, buf: bytearray) -> None:
        rewrite.set_nw_src(buf, self.ip.packed)

    def __repr__(self) -> str:
        return f"SetNwSrc({self.ip})"


class SetNwDst(Action):
    """Rewrite the IPv4 destination address."""

    def __init__(self, ip: Union[str, IPv4Address]):
        self.ip = IPv4Address(ip)

    def apply(self, buf: bytearray) -> None:
        rewrite.set_nw_dst(buf, self.ip.packed)

    def __repr__(self) -> str:
        return f"SetNwDst({self.ip})"


class SetTpSrc(Action):
    """Rewrite the TCP/UDP source port."""

    def __init__(self, port: int):
        self.port = int(port)

    def apply(self, buf: bytearray) -> None:
        rewrite.set_tp_src(buf, self.port)

    def __repr__(self) -> str:
        return f"SetTpSrc({self.port})"


class SetTpDst(Action):
    """Rewrite the TCP/UDP destination port."""

    def __init__(self, port: int):
        self.port = int(port)

    def apply(self, buf: bytearray) -> None:
        rewrite.set_tp_dst(buf, self.port)

    def __repr__(self) -> str:
        return f"SetTpDst({self.port})"


ActionList = List[Action]


def drop() -> ActionList:
    """The drop action list (empty, per OpenFlow semantics)."""
    return []


def output(port: int) -> ActionList:
    return [Output(port)]


def to_controller() -> ActionList:
    return [Output(PORT_CONTROLLER)]


def normal() -> ActionList:
    return [Output(PORT_NORMAL)]


def flood() -> ActionList:
    return [Output(PORT_FLOOD)]


def route_rewrite(
    src_mac: Union[str, MACAddress],
    dst_mac: Union[str, MACAddress],
    out_port: int,
) -> ActionList:
    """The router's standard L3 rewrite: new MACs, then output."""
    return [SetDlSrc(src_mac), SetDlDst(dst_mac), Output(out_port)]
