"""hwdb RPC over real (simulated) UDP datagrams.

The paper's satellite devices — the iPhone display, the Arduino artifact
— speak to hwdb over its UDP RPC (port 987).  The in-process
:class:`~repro.hwdb.rpc.LocalTransport` covers most uses; this module
provides the genuine wire path for when fidelity matters:

* :class:`HwdbUdpGateway` binds the RPC server to UDP port 987 on a
  simulated host (a management station co-located with the router);
* :class:`RemoteHwdbClient` runs on any other host and issues
  queries/subscriptions as UDP datagrams routed through the network —
  pushes arrive asynchronously at the subscriber's port.

Result payloads carry the ``@executed_at`` preamble emitted by
:func:`~repro.hwdb.rpc.pack_resultset`, so remote subscribers learn
*when* each answer was computed; ``EXPLAIN [ANALYZE]`` statements need
no dedicated verb — they travel as ordinary ``QUERY`` requests and come
back as a one-column result set of plan lines.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

from ..core.errors import RpcError
from ..net.addresses import IPv4Address
from ..net.packet import PacketError
from ..net.udp import PORT_HWDB_RPC
from .cql.executor import ResultSet
from .rpc import RpcServer, unpack_resultset

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.host import Host

logger = logging.getLogger(__name__)

QueryCallback = Callable[[Optional[ResultSet], Optional[str]], None]
PushCallback = Callable[[ResultSet], None]


class HwdbUdpGateway:
    """Expose an :class:`RpcServer` on a host's UDP port 987."""

    def __init__(self, host: Host, server: RpcServer, port: int = PORT_HWDB_RPC):
        self.host = host
        self.server = server
        self.port = port
        self.datagrams_handled = 0
        host.udp_bind(port, self._on_datagram)

    def close(self) -> None:
        self.host.udp_unbind(self.port)

    def _on_datagram(self, data: bytes, src_ip: IPv4Address, sport: int) -> None:
        self.datagrams_handled += 1

        def reply(payload: bytes) -> None:
            try:
                try:
                    self.host.udp_send(src_ip, sport, payload, sport=self.port)
                except PacketError as exc:  # larger than one datagram
                    if payload.startswith(b"PUSH "):
                        raise
                    # Answer the request anyway, so the client's callback
                    # fires and its next request is accepted.
                    error = f"ERROR reply not sent: {exc}".encode("utf-8")
                    self.host.udp_send(src_ip, sport, error, sport=self.port)
            except (ConnectionError, PacketError) as exc:
                logger.warning("hwdb reply undeliverable to %s:%d: %s", src_ip, sport, exc)

        self.server.handle_datagram(data, reply)


class RemoteHwdbClient:
    """Issue hwdb RPC requests from a host across the network.

    All operations are asynchronous (this is UDP over a simulated
    network): callbacks fire when the response datagram arrives.
    """

    def __init__(
        self,
        host: Host,
        server_ip: Union[str, IPv4Address],
        server_port: int = PORT_HWDB_RPC,
    ):
        self.host = host
        self.server_ip = IPv4Address(server_ip)
        self.server_port = server_port
        self._local_port: Optional[int] = None
        self._pending: Optional[QueryCallback] = None
        self._pending_subscribe: Optional[Callable[[Optional[int], Optional[str]], None]] = None
        self._push_callbacks: Dict[int, PushCallback] = {}
        self.responses_received = 0

    def _ensure_bound(self) -> int:
        if self._local_port is None:
            self._local_port = self.host._ephemeral_port()
            self.host.udp_bind(self._local_port, self._on_datagram)
        return self._local_port

    def _send(self, payload: str) -> None:
        sport = self._ensure_bound()
        self.host.udp_send(
            self.server_ip, self.server_port, payload.encode("utf-8"), sport=sport
        )

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def query(self, text: str, callback: QueryCallback) -> None:
        """``callback(result, error)`` when the response arrives."""
        if self._pending is not None:
            raise RpcError("a query is already in flight on this client")
        self._pending = callback
        self._send(f"QUERY {text}")

    def subscribe(
        self,
        text: str,
        interval: float,
        on_push: PushCallback,
        on_subscribed: Optional[Callable[[Optional[int], Optional[str]], None]] = None,
    ) -> None:
        """Register a continuous query; pushes arrive as datagrams."""
        if self._pending_subscribe is not None:
            raise RpcError("a subscribe is already in flight on this client")

        def bookkeeping(sub_id: Optional[int], error: Optional[str]) -> None:
            if sub_id is not None:
                self._push_callbacks[sub_id] = on_push
            if on_subscribed is not None:
                on_subscribed(sub_id, error)

        self._pending_subscribe = bookkeeping
        self._send(f"SUBSCRIBE {interval} {text}")

    def unsubscribe(self, sub_id: int) -> None:
        self._push_callbacks.pop(sub_id, None)
        self._send(f"UNSUBSCRIBE {sub_id}")

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------

    def _on_datagram(self, data: bytes, _src: IPv4Address, _sport: int) -> None:
        self.responses_received += 1
        text = data.decode("utf-8", "replace")
        head, _, body = text.partition("\n")
        if head.startswith("PUSH "):
            try:
                sub_id = int(head.split(" ", 1)[1])
            except ValueError:
                return
            callback = self._push_callbacks.get(sub_id)
            if callback is not None:
                callback(unpack_resultset(body))
            return
        if head.startswith("SUBSCRIBED "):
            pending = self._pending_subscribe
            self._pending_subscribe = None
            if pending is not None:
                pending(int(head.split(" ", 1)[1]), None)
            return
        if head.startswith("UNSUBSCRIBED"):
            return
        if head == "OK":
            pending_query = self._pending
            self._pending = None
            if pending_query is not None:
                pending_query(unpack_resultset(body), None)
            return
        # An error answers whichever request is outstanding.
        error = head[len("ERROR "):] if head.startswith("ERROR ") else head
        if self._pending is not None:
            pending_query = self._pending
            self._pending = None
            pending_query(None, error)
        elif self._pending_subscribe is not None:
            pending_subscribe = self._pending_subscribe
            self._pending_subscribe = None
            pending_subscribe(None, error)
