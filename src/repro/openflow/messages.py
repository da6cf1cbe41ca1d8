"""OpenFlow protocol messages.

"An OpenFlow switch has three parts: a datapath, a secure channel
connecting to a controller, and the OpenFlow protocol used by the
controller to talk to the switch."  These are the protocol messages that
cross the secure channel: the OpenFlow 1.0 message types the router's
controller and datapath exchange.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from ..net.rewrite import FlowKeyTuple
from .actions import ActionList
from .flow_table import DEFAULT_PRIORITY, FlowEntry
from .match import Match

_xid_counter = itertools.count(1)


def next_xid() -> int:
    return next(_xid_counter)


class OpenFlowMessage:
    """Base class; every message carries a transaction id."""

    def __init__(self, xid: Optional[int] = None):
        self.xid = xid if xid is not None else next_xid()


class Hello(OpenFlowMessage):
    """Version negotiation greeting."""


class FeaturesRequest(OpenFlowMessage):
    """Controller asks the switch what it is."""


class PortDescription:
    """One physical port in a features reply."""

    __slots__ = ("number", "name", "hw_addr", "up")

    def __init__(self, number: int, name: str, hw_addr: str = "", up: bool = True):
        self.number = number
        self.name = name
        self.hw_addr = hw_addr
        self.up = up

    def __repr__(self) -> str:
        return f"PortDescription({self.number}, {self.name!r}, up={self.up})"


class FeaturesReply(OpenFlowMessage):
    def __init__(
        self,
        datapath_id: int,
        ports: List[PortDescription],
        n_tables: int = 1,
        xid: Optional[int] = None,
    ):
        super().__init__(xid)
        self.datapath_id = datapath_id
        self.ports = list(ports)
        self.n_tables = n_tables


# Packet-in reasons.
REASON_NO_MATCH = 0
REASON_ACTION = 1


class PacketIn(OpenFlowMessage):
    """A packet punted to the controller (table miss or explicit action).

    ``key`` is the flow key the datapath read off ``data`` at the punt
    (:func:`repro.net.rewrite.flow_key`), so no handler reads the headers
    again; None for a frame shorter than an Ethernet header.
    """

    def __init__(
        self,
        buffer_id: int,
        in_port: int,
        reason: int,
        data: bytes,
        key: Optional[FlowKeyTuple],
        xid: Optional[int] = None,
    ):
        super().__init__(xid)
        self.buffer_id = buffer_id
        self.in_port = in_port
        self.reason = reason
        self.data = data
        self.key = key


NO_BUFFER = 0xFFFFFFFF


class PacketOut(OpenFlowMessage):
    """Controller-originated packet injection."""

    def __init__(
        self,
        actions: ActionList,
        data: bytes = b"",
        buffer_id: int = NO_BUFFER,
        in_port: int = 0xFFFF,
        xid: Optional[int] = None,
    ):
        super().__init__(xid)
        self.actions = list(actions)
        self.data = data
        self.buffer_id = buffer_id
        self.in_port = in_port


# Flow-mod commands: OpenFlow 1.0's OFPFC_ADD and OFPFC_DELETE, the two
# the router sends.  The datapath refuses the others (modify, strict
# modify, strict delete) with ``bad_flow_mod``.
FC_ADD = 0
FC_DELETE = 3


class FlowMod(OpenFlowMessage):
    """Add rules to, or loosely delete them from, the datapath's flow
    table."""

    def __init__(
        self,
        command: int,
        match: Match,
        actions: Optional[ActionList] = None,
        priority: int = DEFAULT_PRIORITY,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        cookie: int = 0,
        send_flow_removed: bool = False,
        buffer_id: int = NO_BUFFER,
        xid: Optional[int] = None,
    ):
        super().__init__(xid)
        self.command = command
        self.match = match
        self.actions = list(actions or [])
        self.priority = priority
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.cookie = cookie
        self.send_flow_removed = send_flow_removed
        self.buffer_id = buffer_id

    @classmethod
    def add(cls, match: Match, actions: ActionList, **kwargs) -> "FlowMod":
        return cls(FC_ADD, match, actions, **kwargs)

    @classmethod
    def delete(cls, match: Match, **kwargs) -> "FlowMod":
        """Remove every rule ``match`` covers (a loose delete)."""
        return cls(FC_DELETE, match, **kwargs)


# Flow-removed reasons.
RR_IDLE_TIMEOUT = 0
RR_HARD_TIMEOUT = 1
RR_DELETE = 2


class FlowRemoved(OpenFlowMessage):
    """Switch notification that a rule left the table."""

    def __init__(
        self,
        match: Match,
        priority: int,
        reason: int,
        cookie: int,
        duration: float,
        packet_count: int,
        byte_count: int,
        idle_timeout: float = 0.0,
        xid: Optional[int] = None,
    ):
        super().__init__(xid)
        self.match = match
        self.priority = priority
        self.reason = reason
        self.cookie = cookie
        self.duration = duration
        self.packet_count = packet_count
        self.byte_count = byte_count
        self.idle_timeout = idle_timeout

    @classmethod
    def from_entry(cls, entry: FlowEntry, reason: int) -> "FlowRemoved":
        return cls(
            match=entry.match,
            priority=entry.priority,
            reason=reason,
            cookie=entry.cookie,
            duration=entry.duration,
            packet_count=entry.packet_count,
            byte_count=entry.byte_count,
            idle_timeout=entry.idle_timeout,
        )


# Stats request/reply kinds.
STATS_FLOW = 1


class StatsRequest(OpenFlowMessage):
    """Ask for stats of one kind; a flow-stats reply covers every entry."""

    def __init__(self, kind: int, xid: Optional[int] = None):
        super().__init__(xid)
        self.kind = kind


class FlowStats:
    """Stats for a single flow entry (one element of a STATS_FLOW reply)."""

    __slots__ = (
        "match",
        "priority",
        "cookie",
        "duration",
        "packet_count",
        "byte_count",
        "idle_timeout",
        "hard_timeout",
    )

    def __init__(self, entry: FlowEntry, now: float):
        self.match = entry.match
        self.priority = entry.priority
        self.cookie = entry.cookie
        self.duration = now - entry.created_at
        self.packet_count = entry.packet_count
        self.byte_count = entry.byte_count
        self.idle_timeout = entry.idle_timeout
        self.hard_timeout = entry.hard_timeout


class StatsReply(OpenFlowMessage):
    def __init__(self, kind: int, body: list, xid: Optional[int] = None):
        super().__init__(xid)
        self.kind = kind
        self.body = list(body)


class ErrorMessage(OpenFlowMessage):
    def __init__(self, error_type: str, detail: str = "", xid: Optional[int] = None):
        super().__init__(xid)
        self.error_type = error_type
        self.detail = detail

    def __repr__(self) -> str:
        return f"ErrorMessage({self.error_type!r}, {self.detail!r})"
