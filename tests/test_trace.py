"""The flight recorder: causal packet lineage end to end.

The acceptance criterion is *exact hop chains*: for a policy-denied
packet, a NAT-translated flow and a DNS-filter redirect, the recorded
lineage must name every component the packet traversed, in order, with
the decision each one took.  Plus the operating rules: drops and
denials are traced at any sampling rate (including 0), the hwdb Traces
table reconstructs the same chain over CQL that the in-memory tracer
holds, and with tracing disabled no trace machinery touches the frame
path at all.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HomeworkRouter, RouterConfig, Simulator
from repro.check.faults import LinkFault
from repro.net.trace import TracedBytes, trace_of, with_trace
from repro.obs.trace import Tracer, render_lineage
from repro.openflow.actions import drop
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod
from repro.services.dnsproxy.filter import DeviceRule, MODE_ALLOW
from repro.sim.traffic import WebBrowsing

from tests.conftest import join_device

pytestmark = pytest.mark.tier1


def build_router(trace_sample=1.0, trace_enabled=True, **config):
    sim = Simulator(seed=42)
    router = HomeworkRouter(
        sim,
        RouterConfig(
            default_permit=True,
            trace_enabled=trace_enabled,
            trace_sample=trace_sample,
            **config,
        ),
    )
    router.start()
    return sim, router


def count_send(tracer):
    """Count one transmission as ``Host.send_frame`` does: its context
    when it is sampled, else None."""
    tracer.countdown -= 1
    return None if tracer.countdown else tracer.sampled()


def chain(ctx):
    """The (component, verb, decision) spine of a lineage."""
    return [(h.component, h.verb, h.decision) for h in ctx.hops]


def finished_since(tracer, mark):
    return [ctx for ctx in tracer.finished if ctx.ordinal >= mark]


def find_chain(tracer, mark, expected):
    """The first newly finished lineage matching ``expected`` exactly."""
    candidates = finished_since(tracer, mark)
    for ctx in candidates:
        if chain(ctx) == expected:
            return ctx
    raise AssertionError(
        "no lineage matched\n  expected: %r\n  got: %s"
        % (expected, "\n       ".join(repr(chain(c)) for c in candidates))
    )


class TestExactChains:
    def test_policy_denied_packet_chain(self):
        sim, router = build_router()
        tv = join_device(router, "tv", "02:aa:00:00:00:02")
        router.dhcp.policy.set_state(tv.mac, "denied")
        mark = router.tracer._finish_ordinal
        tv.udp_send(router.config.upstream_ip, 9, b"denied-datagram")
        sim.run_for(2.0)
        ctx = find_chain(
            router.tracer,
            mark,
            [
                ("host", "tx", ""),
                ("link", "deliver", ""),
                ("datapath", "lookup", "miss"),
                ("datapath", "punt", "to_controller"),
                ("channel", "deliver", ""),
                ("controller", "packet_in", ""),
                ("policy", "verdict", "deny"),
                ("router", "drop", "drop"),
            ],
        )
        assert ctx.forced and ctx.outcome == "drop"
        assert "device_denied" in ctx.hops[-1].cause

    def test_nat_translated_flow_chain(self):
        sim, router = build_router(nat_enabled=True)
        tv = join_device(router, "tv", "02:aa:00:00:00:02")
        site = router.cloud.lookup("bbc.co.uk")
        mark = router.tracer._finish_ordinal
        tv.udp_send(site, 9, b"nat-datagram")
        sim.run_for(2.0)
        ctx = find_chain(
            router.tracer,
            mark,
            [
                ("host", "tx", ""),
                ("link", "deliver", ""),
                ("datapath", "lookup", "miss"),
                ("datapath", "punt", "to_controller"),
                ("channel", "deliver", ""),
                ("controller", "packet_in", ""),
                ("policy", "verdict", "permit"),
                ("dns", "flow_check", "allowed"),
                ("nat", "translate", "bind"),
                ("router", "flow_install", "forward"),
                ("link", "deliver", ""),
                ("host", "rx", "delivered"),
            ],
        )
        assert ctx.outcome == "delivered"
        nat_hop = next(h for h in ctx.hops if h.component == "nat")
        assert str(router.router_core.nat.external_ip) in nat_hop.cause

    def test_dns_filter_redirect_chain(self):
        sim, router = build_router()
        tv = join_device(router, "tv", "02:aa:00:00:00:02")
        router.dns_proxy.filter.set_rule(
            tv.mac, DeviceRule(MODE_ALLOW, blocked=["youtube.com"])
        )
        answers = []
        mark = router.tracer._finish_ordinal
        tv.resolve("youtube.com", lambda address, rcode: answers.append(address))
        sim.run_for(2.0)
        ctx = find_chain(
            router.tracer,
            mark,
            [
                ("host", "tx", ""),
                ("link", "deliver", ""),
                ("datapath", "lookup", "miss"),
                ("datapath", "punt", "to_controller"),
                ("channel", "deliver", ""),
                ("controller", "packet_in", ""),
                ("dns", "query", ""),
                ("dns", "answer", "blocked"),
                ("link", "deliver", ""),
                ("host", "rx", "delivered"),
            ],
        )
        assert ctx.forced, "a DNS-filter block must be traced at any sample"
        assert answers, "the redirect answer never reached the device"


SAMPLES = (0.0, 0.01, 0.1, 0.25, 0.3, 0.4, 0.5, 1.0)


class ModuloCounter:
    """The sampling rule as a plain counter: while enabled, every send
    counts, and every ``round(1 / sample)``-th send is sampled under
    its count."""

    def __init__(self, sample, enabled):
        self.enabled = enabled
        self.seq = 0
        self.set_sample(sample)

    def set_sample(self, sample):
        self.period = 0 if sample <= 0.0 else max(1, round(1.0 / sample))

    def send(self):
        if not self.enabled:
            return None
        self.seq += 1
        if not self.period or self.seq % self.period:
            return None
        return self.seq


class TestSamplingRules:
    def test_drops_traced_at_sample_zero(self):
        sim, router = build_router(trace_sample=0.0)
        tv = join_device(router, "tv", "02:aa:00:00:00:02")
        router.dhcp.policy.set_state(tv.mac, "denied")
        mark = router.tracer._finish_ordinal
        tv.udp_send(router.config.upstream_ip, 9, b"denied-datagram")
        sim.run_for(2.0)
        drops = [ctx for ctx in finished_since(router.tracer, mark) if ctx.forced]
        assert drops, "denial not traced at sample=0"
        assert drops[-1].outcome == "drop"
        assert not drops[-1].sampled
        # Nothing else was published: every lineage present is a drop.
        assert all(ctx.forced for ctx in finished_since(router.tracer, mark))

    def test_sampling_is_a_deterministic_counter(self):
        sim, router = build_router(trace_sample=0.5)
        # Only sampled transmissions get a context; the others get None.
        sampled = [count_send(router.tracer) is not None for _ in range(8)]
        assert sampled == [False, True] * 4

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(SAMPLES),
        st.booleans(),
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(("send", "late", "on", "off"))),
                st.tuples(st.just("sample"), st.sampled_from(SAMPLES)),
                st.tuples(st.just("burst"), st.integers(1, 40)),
            ),
            max_size=60,
        ),
    )
    def test_countdown_samples_as_a_modulo_counter(self, sample, enabled, ops):
        """Whatever the sequence of enable, set_sample, late mints and
        sends, the countdown samples exactly the sends a plain modulo
        counter samples, under the same ids."""
        tracer = Tracer(clock=lambda: 0.0, sample=sample, enabled=enabled)
        model = ModuloCounter(sample, enabled)

        got, expected = [], []
        for op, *arg in ops:
            if op in ("send", "burst"):
                for _ in range(arg[0] if arg else 1):
                    got.append(count_send(tracer))
                    expected.append(model.send())
            elif op == "late":
                tracer.late(b"\x00" * 14, None)
            elif op == "sample":
                tracer.set_sample(arg[0])
                model.set_sample(arg[0])
            else:
                tracer.enabled = model.enabled = op == "on"
        assert [ctx and ctx.trace_id for ctx in got] == [
            seq and f"{seq:08x}" for seq in expected
        ]
        assert all(ctx.sampled for ctx in got if ctx is not None)

    def test_disabled_tracer_leaves_frames_untouched(self):
        sim, router = build_router(trace_enabled=False)
        seen = []
        router.datapath.taps.append(lambda raw, in_port: seen.append(raw))
        tv = join_device(router, "tv", "02:aa:00:00:00:02")
        tv.udp_send(router.config.upstream_ip, 9, b"plain-datagram")
        sim.run_for(2.0)
        assert seen, "no frames traversed the datapath"
        assert not any(isinstance(raw, TracedBytes) for raw in seen)
        assert count_send(router.tracer) is None
        assert len(router.db.table("traces")) == 0

    def test_with_trace_none_is_identity(self):
        raw = b"frame"
        assert with_trace(raw, None) is raw


class TestTracesTable:
    def test_explain_chain_reconstructed_over_cql(self):
        sim, router = build_router()
        tv = join_device(router, "tv", "02:aa:00:00:00:02")
        router.dhcp.policy.set_state(tv.mac, "denied")
        tv.udp_send(router.config.upstream_ip, 9, b"denied-datagram")
        sim.run_for(2.0)
        drop_ctx = router.tracer.drops(1)[-1]
        # Ride the flusher road into the Traces stream table.
        sim.run_for(2 * router.config.metrics_flush_interval)
        result = router.hwdb_client().query(
            "SELECT seq, parent, component, verb, decision, cause, t "
            f"FROM traces WHERE trace_id = '{drop_ctx.trace_id}'"
        )
        rows = [
            dict(zip(("seq", "parent", "component", "verb", "decision", "cause", "t"), row))
            for row in result.rows
        ]
        assert [(r["component"], r["verb"], r["decision"]) for r in sorted(rows, key=lambda r: r["seq"])] == chain(drop_ctx)
        # parent links form the causal spine: each hop's parent is the
        # previous seq, the root's is -1.
        for row in rows:
            assert row["parent"] == row["seq"] - 1 if row["seq"] else row["parent"] == -1
        rendered = render_lineage(drop_ctx.trace_id, rows)
        assert f"trace {drop_ctx.trace_id}" in rendered
        assert "outcome: drop" in rendered
        assert "policy.verdict" in rendered

    def test_rows_exported_once(self):
        sim, router = build_router()
        tv = join_device(router, "tv", "02:aa:00:00:00:02")
        router.dhcp.policy.set_state(tv.mac, "denied")
        tv.udp_send(router.config.upstream_ip, 9, b"denied-datagram")
        sim.run_for(2.0)
        first = router.tracer.export_rows()
        assert first
        assert router.tracer.export_rows() == []


# ----------------------------------------------------------------------
# Mint on demand: untraced frames get a lineage where they drop
# ----------------------------------------------------------------------

TV_MAC = "02:aa:00:00:00:02"


def late_drops(router, mark):
    """Forced lineages finished since ``mark``; each must be a late mint
    with its own id."""
    drops = [ctx for ctx in finished_since(router.tracer, mark) if ctx.forced]
    ids = [ctx.trace_id for ctx in drops]
    assert len(set(ids)) == len(ids), ids
    assert all(not ctx.sampled and ctx.trace_id.startswith("L") for ctx in drops)
    return drops


def warm_router():
    """Sample 0, one wired device with its upstream flow in place."""
    sim, router = build_router(trace_sample=0.0)
    tv = join_device(router, "tv", TV_MAC)
    sport = tv.udp_send(router.config.upstream_ip, 9, b"warm-up")
    sim.run_for(1.0)
    return sim, router, tv, sport


class TestLateMint:
    def test_link_fault_roots_at_host_tx(self):
        sim, router, tv, sport = warm_router()
        router.device_link("tv").fault = LinkFault(drop=1.0)
        mark = router.tracer._finish_ordinal
        tv.udp_send(router.config.upstream_ip, 9, b"lost", sport=sport)
        sent_at = sim.now
        sim.run_for(1.0)
        (ctx,) = late_drops(router, mark)
        assert chain(ctx) == [("host", "tx", ""), ("link", "drop", "drop")]
        root = ctx.hops[0]
        assert root.t == sent_at
        assert root.cause == "port=tv.eth0 ethertype=0x0800"
        assert ctx.hops[-1].cause == "link_fault"

    def test_wireless_retries_exhausted_roots_at_host_tx(self):
        sim, router = build_router(trace_sample=0.0)
        cam = join_device(router, "cam", "02:aa:00:00:00:07", wireless=True)
        sport = cam.udp_send(router.config.upstream_ip, 9, b"warm-up")
        sim.run_for(1.0)
        router.device_link("cam").loss_probability = lambda: 1.0
        mark = router.tracer._finish_ordinal
        cam.udp_send(router.config.upstream_ip, 9, b"lost", sport=sport)
        sim.run_for(1.0)
        (ctx,) = late_drops(router, mark)
        assert chain(ctx) == [("host", "tx", ""), ("link", "drop", "drop")]
        assert ctx.hops[-1].cause.startswith("retries_exceeded")

    def test_link_drop_after_datapath_forward_is_not_rooted_at_a_host(self):
        sim, router, tv, sport = warm_router()
        misses = router.metrics.value("openflow.miss_total")
        router.upstream_link.fault = LinkFault(drop=1.0)
        mark = router.tracer._finish_ordinal
        tv.udp_send(router.config.upstream_ip, 9, b"forwarded", sport=sport)
        sim.run_for(1.0)
        # Forwarded by the installed flow, with no slow path to mint at.
        assert router.metrics.value("openflow.miss_total") == misses
        (ctx,) = late_drops(router, mark)
        assert chain(ctx) == [("datapath", "tx", ""), ("link", "drop", "drop")]
        upstream = router.datapath.port(router.upstream_port)
        assert ctx.hops[0].cause == f"port={upstream.name} ethertype=0x0800"

    def test_drop_flow_on_table_hit_and_on_cache_hit(self):
        sim, router, tv, sport = warm_router()
        router.datapath.handle_message(
            FlowMod.add(Match(dl_src=TV_MAC), drop(), priority=0xFFFF)
        )
        hits = router.metrics.value("openflow.cache_hit_total")
        mark = router.tracer._finish_ordinal
        tv.udp_send(router.config.upstream_ip, 9, b"table-hit", sport=sport)
        sim.run_for(0.5)
        tv.udp_send(router.config.upstream_ip, 9, b"cache-hit", sport=sport)
        sim.run_for(0.5)
        assert router.metrics.value("openflow.cache_hit_total") == hits + 1
        drops = late_drops(router, mark)
        assert [chain(ctx) for ctx in drops] == [
            [("host", "tx", ""), ("datapath", "drop", "drop")]
        ] * 2
        assert [ctx.hops[-1].cause for ctx in drops] == ["drop_flow"] * 2

    def test_frame_under_fourteen_bytes(self):
        sim, router, tv, _sport = warm_router()
        mark = router.tracer._finish_ordinal
        tv.port.send(b"\x00" * 10)
        sim.run_for(0.5)
        (ctx,) = late_drops(router, mark)
        assert chain(ctx) == [("host", "tx", ""), ("datapath", "drop", "drop")]
        assert ctx.hops[0].cause == "port=tv.eth0 len=10"
        assert ctx.hops[-1].cause == "unparseable"

    def test_punt_with_no_channel(self):
        sim, router, tv, _sport = warm_router()
        router.datapath.channel = None
        mark = router.tracer._finish_ordinal
        tv.udp_send(router.config.upstream_ip, 9, b"new-flow")
        sim.run_for(0.5)
        (ctx,) = late_drops(router, mark)
        assert chain(ctx) == [
            ("host", "tx", ""),
            ("datapath", "lookup", "miss"),
            ("datapath", "drop", "drop"),
        ]
        assert ctx.hops[-1].cause == "no_channel"

    def test_channel_disconnected_after_the_punt(self):
        sim, router, tv, _sport = warm_router()
        router.channel.disconnect()
        mark = router.tracer._finish_ordinal
        tv.udp_send(router.config.upstream_ip, 9, b"new-flow")
        sim.run_for(0.5)
        (ctx,) = late_drops(router, mark)
        assert chain(ctx) == [
            ("host", "tx", ""),
            ("datapath", "lookup", "miss"),
            ("datapath", "punt", "to_controller"),
            ("channel", "drop", "drop"),
        ]

    def test_policy_deny(self):
        sim, router, tv, _sport = warm_router()
        router.dhcp.policy.set_state(tv.mac, "denied")
        mark = router.tracer._finish_ordinal
        tv.udp_send(router.config.upstream_ip, 9, b"denied-datagram")
        sim.run_for(2.0)
        (ctx,) = late_drops(router, mark)
        assert chain(ctx) == [
            ("host", "tx", ""),
            ("datapath", "lookup", "miss"),
            ("datapath", "punt", "to_controller"),
            ("channel", "deliver", ""),
            ("controller", "packet_in", ""),
            ("policy", "verdict", "deny"),
            ("router", "drop", "drop"),
        ]

    def test_late_mints_leave_the_sampled_set_alone(self):
        sim, router = build_router(trace_sample=0.5)
        tracer = router.tracer
        started = router.metrics.value("trace.contexts_started_total")
        got, late = [], []
        for _ in range(8):
            late.append(tracer.late(b"\x00" * 14, None))
            got.append(count_send(tracer))
        assert [ctx is not None for ctx in got] == [False, True] * 4
        assert [ctx.trace_id for ctx in got if ctx] == [
            "00000002", "00000004", "00000006", "00000008"
        ]
        assert [ctx.trace_id for ctx in late] == [f"L{n:07x}" for n in range(1, 9)]
        assert [chain(ctx) for ctx in late] == [[("datapath", "tx", "")]] * 8
        # Minted contexts only: four sampled, eight late.
        assert router.metrics.value("trace.contexts_started_total") == started + 12


class TestUnsampledFramesStayPlain:
    def test_only_sampled_or_late_minted_frames_are_tagged(self):
        sim, router = build_router(trace_sample=0.01)
        seen = []
        for name, mac in (("laptop", "02:aa:00:00:00:01"), ("tv", TV_MAC)):
            host = join_device(router, name, mac)
            link = router.device_link(name)
            original = link.transmit

            def tap(from_port, frame, original=original):
                seen.append((from_port.number, frame))
                original(from_port, frame)

            link.transmit = tap
            WebBrowsing(host).start(0.2)
        sim.run_for(20.0)
        sent = [frame for number, frame in seen if number == 0]
        received = [frame for number, frame in seen if number != 0]
        assert len(sent) > 300 and received
        for frame in sent:
            ctx = trace_of(frame)
            # A host tags a frame only when the counter sampled it.
            assert ctx is None or (ctx.sampled and chain(ctx)[0] == ("host", "tx", ""))
        for frame in received:
            ctx = trace_of(frame)
            # Towards a host: sampled at its sender, or minted at the
            # table miss that sent it to the controller.
            assert ctx is None or ctx.sampled or ("datapath", "lookup", "miss") in chain(ctx)
        tagged = sum(isinstance(frame, TracedBytes) for frame in sent)
        assert 0 < tagged < len(sent) // 20
