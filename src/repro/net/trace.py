"""Packet-lineage trace context: the `trace` field that rides a frame.

This module is the shared vocabulary of the flight recorder (DESIGN.md
§16).  It lives in :mod:`repro.net` — the bottom of the layer DAG — so
every layer that touches a frame (links, the datapath, the controller,
the NOX services) can annotate the packet's causal chain without
importing upward.  The :class:`~repro.obs.trace.Tracer` that mints
contexts, samples, and publishes finished lineages to hwdb lives in
:mod:`repro.obs`; nothing here knows about it beyond duck typing.

A :class:`TraceContext` is a bounded append-only list of
:class:`TraceHop` records.  Context travels *on the frame bytes
themselves*: :func:`with_trace` wraps ``bytes`` in a
:class:`TracedBytes` subclass carrying a ``trace`` attribute, so the
context survives buffering in the datapath, PacketIn/PacketOut ``data``
fields and the link's scheduled deliveries — all of those move the
*object*, never a copy.  Any code that re-serialises a frame
(``frame.pack()`` after a NAT rewrite, a DNS reply built from a query)
must re-attach the context with :func:`with_trace`.

Only a sampled frame carries a context from the moment it is sent.  The
others travel as plain ``bytes`` until a slow path or a drop meets them;
that site mints the lineage (``Tracer.late``) and, if the frame goes on,
sends the tagged copy.
"""

from __future__ import annotations

from typing import List, Optional

#: Registered trace components — repro-lint's ``trace-event`` rule
#: rejects hop records naming a component outside this set, keeping the
#: ``trace.<component>.<verb>`` vocabulary closed and greppable.
TRACE_COMPONENTS = frozenset(
    {
        "host",
        "link",
        "datapath",
        "channel",
        "controller",
        "policy",
        "nat",
        "dhcp",
        "dns",
        "router",
    }
)

#: Hard cap on hops per context; a forwarding loop must not grow memory.
MAX_HOPS = 32

#: Terminal decisions that force publication regardless of sampling.
DROP_DECISIONS = frozenset({"drop", "deny", "blocked"})


class TraceHop:
    """One structured record in a packet's causal chain."""

    __slots__ = ("seq", "parent", "component", "verb", "decision", "cause", "t")

    def __init__(
        self,
        seq: int,
        parent: Optional[int],
        component: str,
        verb: str,
        decision: str,
        cause: str,
        t: float,
    ):
        self.seq = seq
        self.parent = parent
        self.component = component
        self.verb = verb
        self.decision = decision
        self.cause = cause
        self.t = t

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "parent": self.parent,
            "component": self.component,
            "verb": self.verb,
            "decision": self.decision,
            "cause": self.cause,
            "t": self.t,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceHop({self.seq}, {self.component}.{self.verb},"
            f" decision={self.decision!r}, cause={self.cause!r})"
        )


class TraceContext:
    """The lineage of one packet, appended to as it traverses the stack.

    ``sampled`` is True for a context minted at transmit, which the
    tracer's deterministic counter chose (no RNG draws — golden-trace
    digests must not move), and False for one minted late, where a slow
    path or a drop first met the frame.  ``active`` starts equal to
    ``sampled`` and flips to True when a terminal drop/deny decision
    forces publication; hot-path call sites gate per-hop work on it,
    slow paths (already paying a controller round trip) record
    unconditionally so a later drop still has its prefix.
    """

    __slots__ = ("mint", "sampled", "active", "forced", "ended", "_hops", "clock", "tracer", "ordinal")

    def __init__(self, mint: int, sampled: bool, clock, tracer=None):
        self.mint = mint
        self.sampled = sampled
        self.active = sampled
        self.forced = False
        self.ended = False
        # Allocated on first hop: an unsampled packet that is never
        # dropped (the overwhelming majority) records nothing.
        self._hops: Optional[List[TraceHop]] = None
        self.clock = clock
        self.tracer = tracer
        self.ordinal = -1

    @property
    def trace_id(self) -> str:
        """The packet's id, formatted lazily — minting is hot-path work
        (one context per sampled packet), rendering is not.  Sampled and
        late mints count separately; the ``L`` prefix keeps the two id
        spaces apart."""
        return f"{self.mint:08x}" if self.sampled else f"L{self.mint:07x}"

    @property
    def hops(self) -> List[TraceHop]:
        return self._hops if self._hops is not None else []

    def hop(
        self,
        component: str,
        verb: str,
        decision: str = "",
        cause: str = "",
        parent: Optional[int] = None,
    ) -> Optional[int]:
        """Append one hop; returns its seq (None once the cap is hit).

        ``parent`` defaults to the previous hop, rendering a linear
        chain; fan-out call sites may pass an earlier seq explicitly.
        """
        hops = self._hops
        if hops is None:
            hops = self._hops = []
        if self.ended or len(hops) >= MAX_HOPS:
            return None
        seq = len(hops)
        if parent is None:
            parent = seq - 1 if seq else None
        hops.append(
            TraceHop(seq, parent, component, verb, decision, cause, self.clock())
        )
        return seq

    def force(self) -> None:
        """Publish this lineage regardless of sampling (drops/denials)."""
        self.forced = True
        self.active = True

    def finish(
        self,
        component: str,
        verb: str,
        decision: str = "",
        cause: str = "",
    ) -> None:
        """Record the terminal hop and hand the context to the tracer.

        Idempotent: broadcast frames reach several hosts and only the
        first delivery ends the trace.
        """
        if self.ended:
            return
        if decision in DROP_DECISIONS:
            self.force()
        self.hop(component, verb, decision, cause)
        self.ended = True
        if self.tracer is not None and self.active:
            self.tracer.publish(self)

    @property
    def outcome(self) -> str:
        """``decision`` of the terminal hop ('' while in flight)."""
        if not self.ended or not self._hops:
            return ""
        return self._hops[-1].decision

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "sampled": self.sampled,
            "forced": self.forced,
            "outcome": self.outcome,
            "hops": [h.to_dict() for h in self.hops],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TraceContext({self.trace_id}, hops={len(self.hops)}, outcome={self.outcome!r})"


class TracedBytes(bytes):
    """Frame bytes carrying a ``trace`` attribute.

    ``isinstance(frame, bytes)`` stays true and every parser/len/struct
    path is untouched; only attribute storage is added.  ``bytes``
    subclasses cannot use ``__slots__``, so instances carry a dict —
    acceptable because only sampled frames and frames whose lineage was
    minted late (at a slow path or a drop) are ever wrapped.
    """

    trace: Optional[TraceContext]


def with_trace(raw: bytes, ctx: Optional[TraceContext]) -> bytes:
    """Return ``raw`` tagged with ``ctx`` (or unchanged when ctx is None)."""
    if ctx is None:
        return raw
    tagged = TracedBytes(raw)
    tagged.trace = ctx
    return tagged


def trace_of(frame: bytes) -> Optional[TraceContext]:
    """The context riding on ``frame``, if any."""
    return getattr(frame, "trace", None)
