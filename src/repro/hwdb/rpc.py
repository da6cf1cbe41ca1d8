"""hwdb's UDP-based RPC interface.

"The database supports a simple UDP-based RPC interface enabling
applications to subscribe to query results."  The wire protocol is a
compact text format (one datagram per request/response/push):

Requests::

    QUERY <cql>
    SUBSCRIBE <interval-seconds> <cql>
    UNSUBSCRIBE <id>
    PING

Responses::

    OK\\n<resultset>
    SUBSCRIBED <id>
    UNSUBSCRIBED <id>
    PONG
    ERROR <message>

Asynchronous pushes to subscribers::

    PUSH <id>\\n<resultset>

A result set is a header line of tab-separated column names followed by
one line per row; values carry a one-character type tag so they
round-trip exactly (``i:``/``f:``/``s:``/``b:`` and ``\\N`` for null).

The server is transport-agnostic: :meth:`RpcServer.handle_datagram`
takes request bytes plus a reply callable, so the same code serves the
in-process transport used by the UIs and a real UDP socket bound on the
router (port 987).
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import HwdbError, RpcError
from .cql.executor import ResultSet
from .database import HomeworkDatabase

logger = logging.getLogger(__name__)

ReplyFn = Callable[[bytes], None]

_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {"\\\\": "\\", "\\t": "\t", "\\n": "\n", "\\r": "\r"}


def _escape(text: str) -> str:
    if (
        "\\" not in text
        and "\t" not in text
        and "\n" not in text
        and "\r" not in text
    ):
        return text
    for raw, escaped in _ESCAPES.items():
        text = text.replace(raw, escaped)
    return text


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            pair = text[i : i + 2]
            if pair in _UNESCAPES:
                out.append(_UNESCAPES[pair])
                i += 2
                continue
        out.append(text[i])
        i += 1
    return "".join(out)


def _encode_value(value) -> str:
    # Exact types first: nearly every value is one of these.  bool is
    # not exactly int, so it still reaches its own "b:" branch.
    kind = type(value)
    if kind is str:
        return "s:" + _escape(value)
    if kind is int:
        return f"i:{value}"
    if kind is float:
        return f"f:{value!r}"
    if value is None:
        return "\\N"
    if isinstance(value, bool):
        return "b:1" if value else "b:0"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value!r}"
    return "s:" + _escape(str(value))


def _decode_value(token: str):
    tag = token[:2]
    if tag == "s:":
        return _unescape(token[2:])
    if tag == "i:":
        return int(token[2:])
    if tag == "f:":
        return float(token[2:])
    if tag == "b:":
        return token[2:] == "1"
    if token == "\\N":
        return None
    if len(token) < 2 or token[1] != ":":
        raise RpcError(f"malformed value token {token!r}")
    raise RpcError(f"unknown value tag {token[0]!r}")


def pack_resultset(result: ResultSet) -> str:
    """Serialise a result set to the wire text form.

    The first line carries the query's execution time as ``@<repr>``
    (``@`` cannot start a column name, which is always an identifier or
    a dotted/qualified identifier), so subscribers see *when* the
    answer was computed, not just what it was.
    """
    lines = [f"@{result.executed_at!r}"]
    lines.append("\t".join(_escape(c) for c in result.columns))
    for row in result.rows:
        lines.append("\t".join(map(_encode_value, row)))
    return "\n".join(lines)


def unpack_resultset(text: str) -> ResultSet:
    """Parse the wire text form back into a :class:`ResultSet`.

    Accepts payloads with or without the leading ``@executed_at`` line
    (older peers omit it; ``executed_at`` is then 0.0, the
    :class:`ResultSet` default).
    """
    lines = text.split("\n")
    executed_at = 0.0
    if lines and lines[0].startswith("@"):
        stamp = lines.pop(0)[1:]
        try:
            executed_at = float(stamp)
        except ValueError:
            raise RpcError(f"malformed execution timestamp {stamp!r}") from None
    if not lines or not lines[0]:
        return ResultSet([], [], executed_at=executed_at)
    columns = [_unescape(c) for c in lines[0].split("\t")]
    rows: List[Tuple] = []
    for line in lines[1:]:
        if not line:
            continue
        rows.append(tuple(map(_decode_value, line.split("\t"))))
    return ResultSet(columns, rows, executed_at=executed_at)


class RpcServer:
    """Serves the hwdb RPC protocol over any datagram transport.

    The server keeps no subscription state of its own: the database's
    subscriptions are the record, so a subscription that cancels itself
    (its query can no longer run) is gone for UNSUBSCRIBE too.
    """

    def __init__(self, db: HomeworkDatabase):
        self.db = db
        # The server counts into its database's registry.
        self._m_requests = db.registry.counter("rpc.request_total")
        self._m_pushes = db.registry.counter("rpc.push_total")
        self._m_errors = db.registry.counter("rpc.internal_error_total")

    def handle_datagram(self, data: bytes, reply: ReplyFn) -> None:
        """Process one request datagram, replying via ``reply``."""
        self._m_requests.inc()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            reply(b"ERROR request is not valid UTF-8")
            return
        try:
            response = self._dispatch(text.strip(), reply)
        except HwdbError as exc:  # the request's fault, not the server's
            response = f"ERROR {exc}"
        except Exception as exc:  # noqa: BLE001 - never kill the server
            logger.exception("rpc request failed")
            self._m_errors.inc()
            response = f"ERROR internal: {exc}"
        reply(response.encode("utf-8"))

    def _dispatch(self, text: str, reply: ReplyFn) -> str:
        if text == "PING":
            return "PONG"
        verb, _, rest = text.partition(" ")
        if verb == "QUERY":
            if not rest:
                raise RpcError("QUERY needs a statement")
            result = self.db.query(rest)
            return "OK\n" + pack_resultset(result)
        if verb == "SUBSCRIBE":
            interval_s, _, query_text = rest.partition(" ")
            try:
                interval = float(interval_s)
            except ValueError:
                raise RpcError(f"bad interval {interval_s!r}") from None
            if not query_text:
                raise RpcError("SUBSCRIBE needs a query")

            def push(result: ResultSet) -> None:
                # The first fire comes an interval after subscribe()
                # returns, so ``subscription`` is bound by then.
                self._m_pushes.inc()
                payload = f"PUSH {subscription.id}\n" + pack_resultset(result)
                reply(payload.encode("utf-8"))

            subscription = self.db.subscribe(query_text, interval, push)
            return f"SUBSCRIBED {subscription.id}"
        if verb == "UNSUBSCRIBE":
            try:
                sub_id = int(rest)
            except ValueError:
                raise RpcError(f"bad subscription id {rest!r}") from None
            # Raises "no subscription N" for an id the database no longer has.
            self.db.subscription(sub_id).cancel()
            return f"UNSUBSCRIBED {sub_id}"
        raise RpcError(f"unknown request verb {verb!r}")


class LocalTransport:
    """In-process request/reply pipe pairing a client with a server.

    The paper's satellite devices speak RPC over UDP; the UIs in this
    reproduction run in-process, so this transport hands datagrams
    straight to :meth:`RpcServer.handle_datagram` with zero copies.
    """

    def __init__(self, server: RpcServer):
        self.server = server
        self._push_handler: Optional[Callable[[bytes], None]] = None

    def on_push(self, handler: Callable[[bytes], None]) -> None:
        self._push_handler = handler

    def request(self, data: bytes) -> bytes:
        responses: List[bytes] = []

        def reply(payload: bytes) -> None:
            if payload.startswith(b"PUSH ") and self._push_handler is not None:
                self._push_handler(payload)
            else:
                responses.append(payload)

        self.server.handle_datagram(data, reply)
        if not responses:
            raise RpcError("server sent no response")
        return responses[0]


class HwdbClient:
    """Client-side API over any transport with ``request(bytes) -> bytes``."""

    def __init__(self, transport: LocalTransport):
        self.transport = transport
        self._push_callbacks: Dict[int, Callable[[ResultSet], None]] = {}
        transport.on_push(self._on_push)

    def ping(self) -> bool:
        return self.transport.request(b"PING") == b"PONG"

    def query(self, text: str) -> ResultSet:
        response = self.transport.request(b"QUERY " + text.encode("utf-8"))
        head, _, body = response.decode("utf-8").partition("\n")
        if head != "OK":
            raise RpcError(head)
        return unpack_resultset(body)

    def subscribe(
        self, text: str, interval: float, callback: Callable[[ResultSet], None]
    ) -> int:
        request = f"SUBSCRIBE {interval} {text}".encode("utf-8")
        response = self.transport.request(request).decode("utf-8")
        if not response.startswith("SUBSCRIBED "):
            raise RpcError(response)
        sub_id = int(response.split(" ", 1)[1])
        self._push_callbacks[sub_id] = callback
        return sub_id

    def unsubscribe(self, sub_id: int) -> None:
        # Forget the callback whatever the answer: an id the server no
        # longer has will never push again.
        self._push_callbacks.pop(sub_id, None)
        response = self.transport.request(
            f"UNSUBSCRIBE {sub_id}".encode("utf-8")
        ).decode("utf-8")
        if not response.startswith("UNSUBSCRIBED"):
            raise RpcError(response)

    def _on_push(self, payload: bytes) -> None:
        text = payload.decode("utf-8")
        head, _, body = text.partition("\n")
        try:
            sub_id = int(head.split(" ", 1)[1])
        except (IndexError, ValueError):
            logger.warning("malformed push: %r", head)
            return
        callback = self._push_callbacks.get(sub_id)
        if callback is not None:
            callback(unpack_resultset(body))
