"""The flight recorder: mints trace contexts and publishes lineages.

The :class:`Tracer` owns policy — whether tracing is on, which packets
are sampled, how many finished lineages stay resident — while the
per-packet mechanics (hop records, the ``trace`` field on frame bytes)
live in :mod:`repro.net.trace`.  Three consumers share its output:

* the hwdb ``Traces`` stream table, fed through the metrics flusher's
  collector road so lineage is queryable over CQL and subscribable over
  UDP RPC like every other table;
* ``python -m repro trace`` (``last`` / ``explain`` / ``drops``), the
  human-readable causal-chain CLI;
* the fuzzer, which runs an in-memory, publish-free tracer so invariant
  failures can attach the offending packet's lineage to ddmin repro
  files without perturbing hwdb insert counts (and hence run digests).

Sampling is a deterministic modulo counter, *not* an RNG draw: enabling
tracing must never advance ``sim.random``, or the 50-seed golden-trace
digests would move.  The counter is kept as a countdown to the next
sampled transmission, which a transmitting host decrements inline
(:attr:`Tracer.countdown`); only the transmission that takes it to zero
calls the tracer, and only a sampled one gets a context.  Every other
frame travels as plain bytes, and the first slow-path or drop site that
meets it mints its lineage there (:meth:`Tracer.late`).  Dropped/denied
packets bypass sampling entirely — their contexts are force-published
from the decision point (DESIGN.md §16, "always trace the bad news").
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from ..core.metrics import MetricsRegistry
from ..net.trace import TraceContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.port import Port

#: hwdb stream table receiving one row per hop (see hwdb.schema).
TRACES_TABLE = "traces"

#: The countdown while no transmission can be sampled (tracing off, or
#: sample 0): more transmissions than any run makes.  Reaching zero
#: anyway just re-arms it.
_IDLE_COUNTDOWN = 1 << 62


class Tracer:
    """Mints trace ids, samples deterministically, retains lineages."""

    def __init__(
        self,
        clock: Callable[[], float],
        sample: float = 0.01,
        enabled: bool = False,
        buffer: int = 256,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.clock = clock
        self.publish_enabled = True
        # The sampling counter counts transmissions while tracing is on.
        # It is kept as ``_armed_at`` (its value when last armed) plus
        # how far ``countdown`` has fallen since, so hosts can advance
        # it without a call.  The late mints have their own id counter;
        # the two never meet.
        self._enabled = False
        self._period = 0
        self._armed_at = 0
        self._armed_gap = _IDLE_COUNTDOWN
        #: Transmissions left until the next sampled one.  A host
        #: decrements it once per frame and calls :meth:`sampled` only
        #: when it reaches zero.
        self.countdown = _IDLE_COUNTDOWN
        self.sample = 0.0
        self.set_sample(sample)
        self.enabled = enabled
        self.finished: deque = deque(maxlen=buffer)
        self._late_seq = 0
        self._finish_ordinal = 0
        self._export_cursor = 0
        registry = registry if registry is not None else MetricsRegistry()
        #: Contexts actually minted: sampled transmissions (sampled)
        #: plus late mints (late).  Unsampled transmissions mint nothing.
        self._m_started = registry.counter("trace.contexts_started_total")
        self._m_published = registry.counter("trace.lineages_published_total")
        self._m_evicted = registry.counter("trace.lineages_evicted_total")

    # ------------------------------------------------------------------
    # Policy knobs
    # ------------------------------------------------------------------

    def set_sample(self, sample: float) -> None:
        """Sampling rate in [0, 1]: every ``round(1 / sample)``-th
        transmission gets a full lineage (none at 0)."""
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"trace_sample must be within [0, 1]: {sample}")
        counted = self._counted()
        self.sample = sample
        # Deterministic counter sampling: every Nth transmission is sampled.
        self._period = 0 if sample <= 0.0 else max(1, round(1.0 / sample))
        self._arm(counted)

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, on: bool) -> None:
        counted = self._counted()
        self._enabled = bool(on)
        self._arm(counted)

    def _counted(self) -> int:
        """Transmissions counted so far (only those made while enabled)."""
        if not self._enabled:
            return self._armed_at
        return self._armed_at + self._armed_gap - self.countdown

    def _arm(self, counted: int) -> None:
        """Point the countdown at the first transmission after ``counted``
        that the modulo counter samples."""
        self._armed_at = counted
        if self._enabled and self._period:
            self._armed_gap = self._period - counted % self._period
        else:
            self._armed_gap = _IDLE_COUNTDOWN
        self.countdown = self._armed_gap

    def enable(self, sample: Optional[float] = None, publish: bool = True) -> None:
        """Turn tracing on (the fuzzer passes ``publish=False``)."""
        self.enabled = True
        self.publish_enabled = publish
        if sample is not None:
            self.set_sample(sample)

    # ------------------------------------------------------------------
    # Mint / collect
    # ------------------------------------------------------------------

    def begin(self) -> Optional[TraceContext]:
        """Count one transmission: its context when it is sampled, else
        None.  :meth:`Host.send_frame <repro.sim.host.Host.send_frame>`
        does the same inline, calling :meth:`sampled` only at zero; this
        one-call form is kept for tests that count transmissions without
        a host."""
        self.countdown -= 1
        if self.countdown:
            return None
        return self.sampled()

    def sampled(self) -> Optional[TraceContext]:
        """The context for the transmission that took :attr:`countdown`
        to zero, and the countdown re-armed for the next one.

        Only sampled transmissions get one: every transmission while
        tracing is on advances the counter, and every ``period``-th is
        sampled.  An unsampled frame travels as plain bytes and records
        no ``host tx`` hop; if it later meets a slow path or a drop, that
        site mints its lineage (:meth:`late`).  The id string is
        formatted lazily.  None when the countdown ran out without a
        sample due (tracing off, or sample 0).
        """
        counted = self._counted()
        self._arm(counted)
        if not self._enabled or not self._period:
            return None
        self._m_started.inc()
        return TraceContext(mint=counted, sampled=True, clock=self.clock, tracer=self)

    def late(self, frame: bytes, sender: Optional["Port"]) -> Optional[TraceContext]:
        """A lineage for an untraced ``frame``, minted where a slow path
        or a drop meets it; None while tracing is off.

        The root hop is back-filled from what the minting site knows: the
        port that sent the frame and its ethertype, at the mint time.  Its
        component is ``host`` only when a host's port (number 0) sent the
        frame; a frame the datapath forwarded, or one with no known
        sender, is rooted at ``datapath``.  A late context is unsampled
        (it publishes only when a drop forces it), takes its id from its
        own counter and leaves the sampling counter alone, so it never
        collides with a sampled id nor shifts which transmissions are
        sampled.
        """
        if not self.enabled:
            return None
        self._late_seq += 1
        self._m_started.inc()
        ctx = TraceContext(mint=self._late_seq, sampled=False, clock=self.clock, tracer=self)
        port = sender.name if sender is not None else "none"
        if len(frame) >= 14:
            cause = f"port={port} ethertype={int.from_bytes(frame[12:14], 'big'):#06x}"
        else:
            cause = f"port={port} len={len(frame)}"
        if sender is not None and sender.number == 0:
            ctx.hop("host", "tx", cause=cause)
        else:
            ctx.hop("datapath", "tx", cause=cause)
        return ctx

    def publish(self, ctx: TraceContext) -> None:
        """Called by ``TraceContext.finish`` for sampled/forced lineages."""
        if self.finished.maxlen is not None and len(self.finished) == self.finished.maxlen:
            self._m_evicted.inc()
        ctx.ordinal = self._finish_ordinal
        self._finish_ordinal += 1
        self.finished.append(ctx)
        self._m_published.inc()

    # ------------------------------------------------------------------
    # Consumers
    # ------------------------------------------------------------------

    def recent(self, limit: int = 10) -> List[TraceContext]:
        """Most recently finished lineages, newest last."""
        items = list(self.finished)
        return items[-limit:]

    def drops(self, limit: int = 10) -> List[TraceContext]:
        """Most recent dropped/denied/blocked lineages, newest last."""
        bad = [ctx for ctx in self.finished if ctx.forced]
        return bad[-limit:]

    def export_rows(self) -> List[dict]:
        """Hop rows finished since the last export (the flusher road).

        The cursor walks finish ordinals so a lineage is exported once
        even though the retention deque also serves the CLI; lineages
        evicted before a flush are simply lost, like any bounded stream.
        """
        rows: List[dict] = []
        for ctx in self.finished:
            if ctx.ordinal < self._export_cursor:
                continue
            for h in ctx.hops:
                rows.append(
                    {
                        "trace_id": ctx.trace_id,
                        "seq": h.seq,
                        "parent": -1 if h.parent is None else h.parent,
                        "component": h.component,
                        "verb": h.verb,
                        "decision": h.decision,
                        "cause": h.cause,
                        "t": h.t,
                    }
                )
        self._export_cursor = self._finish_ordinal
        return rows


# ----------------------------------------------------------------------
# Rendering (shared by the CLI and the fuzzer's repro files)
# ----------------------------------------------------------------------


def render_lineage(trace_id: str, rows: Iterable[dict]) -> str:
    """A human-readable causal chain from hop rows (dicts or CQL rows).

    Accepts the dict shape produced by :meth:`Tracer.export_rows` /
    ``TraceHop.to_dict``; rows are sorted by ``seq`` so CQL result
    ordering does not matter.
    """
    hops = sorted(rows, key=lambda r: r["seq"])
    if not hops:
        return f"trace {trace_id}: no hop records"
    last = hops[-1]
    outcome = last.get("decision") or "in-flight"
    lines = [f"trace {trace_id} — {len(hops)} hops, outcome: {outcome}"]
    for h in hops:
        event = f"{h['component']}.{h['verb']}"
        detail = " ".join(p for p in (h.get("decision"), h.get("cause")) if p)
        lines.append(f"  [{h['seq']:>2}] t={h['t']:>10.6f}  {event:<22} {detail}".rstrip())
    return "\n".join(lines)


def render_context(ctx: TraceContext) -> str:
    """Render a live :class:`TraceContext` (in-memory consumers)."""
    return render_lineage(ctx.trace_id, [h.to_dict() for h in ctx.hops])
