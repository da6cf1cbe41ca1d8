"""Hot-path microbenchmarks: the three kernels DESIGN.md §14 optimises.

Each bench times a tight loop with an injectable :class:`Clock` (the
gate-trip test injects a deliberately slow fake; production use passes a
:class:`WallClock`) and reports operations/second plus the structural
numbers the regression gate's *ratio floors* check — most importantly
the indexed-vs-linear flow-lookup speedup, which is machine-independent
and therefore gated hard while absolute throughputs get a generous
tolerance band.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.clock import Clock, WallClock
from ..hwdb.database import HomeworkDatabase
from ..measurement.aggregator import BandwidthAggregator
from ..net import ETH_TYPE_IPV4, PROTO_TCP, PROTO_UDP
from ..net.addresses import IPv4Address, MACAddress
from ..net.ethernet import Ethernet
from ..net.ipv4 import IPv4
from ..net.trace import with_trace
from ..net.udp import UDP
from ..obs.trace import Tracer
from ..openflow.actions import PORT_NONE, output
from ..openflow.datapath import Datapath
from ..openflow.flow_table import FlowEntry, FlowTable, LinearFlowTable
from ..openflow.match import FlowKey, Match
from ..sim.simulator import Simulator

#: Entry count at which the acceptance criterion's speedup is measured.
FLOW_TABLE_ENTRIES = 512

#: (iterations per bench) for full and --quick runs.
FULL_ITERATIONS = {
    "flow_lookup": 200_000,
    "sim_dispatch": 200_000,
    "classify": 200_000,
    "trace": 50_000,
}
QUICK_ITERATIONS = {
    "flow_lookup": 20_000,
    "sim_dispatch": 20_000,
    "classify": 20_000,
    "trace": 5_000,
}

#: Sampling rate the trace-overhead ratio is measured at (the default
#: production setting; the gated acceptance criterion's operating point).
TRACE_BENCH_SAMPLE = 0.01

#: Linear-scan lookups are ~50x slower; cap their loop so a full run
#: doesn't spend most of its wall time inside the reference path.
LINEAR_ITERATION_CAP = 20_000


def _timed_ops(fn: Callable[[int], None], iterations: int, clock: Clock, repeats: int = 3) -> Dict[str, float]:
    """Best-of-``repeats`` throughput of ``fn(iterations)`` in ops/sec."""
    best: Optional[float] = None
    for _ in range(repeats):
        start = clock.now()
        fn(iterations)
        elapsed = clock.now() - start
        if best is None or elapsed < best:
            best = elapsed
    elapsed = max(best if best is not None else 0.0, 1e-9)
    return {
        "iterations": iterations,
        "seconds": elapsed,
        "ops_per_sec": iterations / elapsed,
    }


def _build_flow_tables(entries: int = FLOW_TABLE_ENTRIES):
    """Identical rule sets in the indexed and reference linear tables.

    A realistic mix: half host/flow rules wildcarding only the untracked
    fields (one masked bucket), a quarter fully-concrete 9-field rules
    (the exact index), and a quarter port-only wildcards (a second
    bucket), spread over several priorities.
    """
    indexed, linear = FlowTable(), LinearFlowTable()
    keys = []
    for i in range(entries):
        mac = MACAddress(f"02:bb:00:00:{(i >> 8) & 0xFF:02x}:{i & 0xFF:02x}")
        ip = IPv4Address(f"10.2.{(i >> 8) & 0xFF}.{i & 0xFF}")
        port = 10_000 + i
        if i % 4 == 3:
            match = Match(nw_proto=PROTO_TCP, tp_dst=port)
        elif i % 4 == 1:
            match = Match(
                in_port=1,
                dl_src=mac,
                dl_dst=MACAddress("02:bb:00:00:00:aa"),
                dl_type=ETH_TYPE_IPV4,
                nw_src=IPv4Address("10.2.0.1"),
                nw_dst=ip,
                nw_proto=PROTO_TCP,
                tp_src=40_000,
                tp_dst=port,
            )
        else:
            match = Match(dl_src=mac, nw_dst=ip, nw_proto=PROTO_TCP, tp_dst=port)
        for table in (indexed, linear):
            table.add(FlowEntry(match, output(2), priority=10 + (i % 37)))
        keys.append(
            FlowKey(
                in_port=1,
                dl_src=mac,
                dl_dst=MACAddress("02:bb:00:00:00:aa"),
                dl_type=ETH_TYPE_IPV4,
                nw_src=IPv4Address("10.2.0.1"),
                nw_dst=ip,
                nw_proto=PROTO_TCP,
                tp_src=40_000,
                tp_dst=port,
            )
        )
    return indexed, linear, keys


def bench_flow_lookup(iterations: int, clock: Clock) -> Dict[str, object]:
    """Indexed vs reference linear lookup over the same 512 rules."""
    indexed, linear, keys = _build_flow_tables()
    nkeys = len(keys)

    def loop(table):
        def run(count: int) -> None:
            lookup = table.lookup
            for i in range(count):
                lookup(keys[i % nkeys])

        return run

    indexed_stats = _timed_ops(loop(indexed), iterations, clock)
    linear_stats = _timed_ops(
        loop(linear), min(iterations, LINEAR_ITERATION_CAP), clock
    )
    speedup = indexed_stats["ops_per_sec"] / max(linear_stats["ops_per_sec"], 1e-9)
    return {
        "entries": FLOW_TABLE_ENTRIES,
        "indexed": indexed_stats,
        "linear": linear_stats,
        "speedup": speedup,
        "index": indexed.index_stats(),
    }


def bench_sim_dispatch(iterations: int, clock: Clock) -> Dict[str, object]:
    """Plain event dispatch throughput (events/sec).

    Each event is scheduled, popped and run on its own.  Callbacks land
    100 to an instant (a traffic burst arriving at one port), so ties
    break on scheduling order throughout.
    """

    def run(count: int) -> None:
        sim = Simulator(seed=1)
        timestamps = max(count // 100, 1)
        noop = _noop
        for i in range(count):
            sim.schedule_at(float(i % timestamps + 1), noop)
        sim.run_until(float(timestamps + 1))

    stats = _timed_ops(run, iterations, clock)
    return {"events": stats}


def _noop() -> None:
    return None


def bench_classify(iterations: int, clock: Clock) -> Dict[str, object]:
    """Memoized protocol classification over a realistic triple mix."""
    db = HomeworkDatabase(Simulator(seed=1).clock)
    aggregator = BandwidthAggregator(db)
    triples = [
        (PROTO_TCP, 40_000 + (i % 64), (80, 443, 22, 53, 1935, 8080)[i % 6])
        for i in range(256)
    ] + [(PROTO_UDP, 5_004, 53), (PROTO_UDP, 5_004, 123)]
    ntriples = len(triples)

    def run(count: int) -> None:
        protocol_of = aggregator._protocol_of
        for i in range(count):
            proto, sport, dport = triples[i % ntriples]
            protocol_of(proto, sport, dport)

    stats = _timed_ops(run, iterations, clock)
    return {"classify": stats, "memo_entries": len(aggregator._classify_memo)}


def bench_trace(iterations: int, clock: Clock) -> Dict[str, object]:
    """Datapath fast-path cost of lineage tracing at the default sample.

    The loop is the microflow-cache hit path — the hottest packet path
    in the system — once untraced and once with a Tracer minting a
    context per packet at ``TRACE_BENCH_SAMPLE``.  The gated number is
    the ratio: traced throughput must stay ≥ 90% of untraced.
    """

    def build_datapath() -> Datapath:
        sim = Simulator(seed=1)
        dp = Datapath(sim)
        # A concrete UDP flow whose action is Output(PORT_NONE): the
        # frame matches (cache hit after the first packet) and then
        # vanishes, so the bench needs no ports, links or controller.
        dp.table.add(
            FlowEntry(
                Match(dl_type=ETH_TYPE_IPV4, nw_proto=PROTO_UDP, tp_dst=9),
                output(PORT_NONE),
                priority=100,
            )
        )
        return dp

    raw = Ethernet(
        dst="02:bb:00:00:00:aa",
        src="02:bb:00:00:00:01",
        ethertype=ETH_TYPE_IPV4,
        payload=IPv4(
            src="10.2.0.5",
            dst="10.2.0.6",
            proto=PROTO_UDP,
            payload=UDP(sport=40_000, dport=9, payload=b"x" * 32),
        ),
    ).pack()

    dp_plain = build_datapath()

    def run_untraced(count: int) -> None:
        process = dp_plain.process_frame
        for _ in range(count):
            process(raw, 1)

    dp_traced = build_datapath()
    tracer = Tracer(
        clock=dp_traced.sim.clock.now, sample=TRACE_BENCH_SAMPLE, enabled=True
    )

    def run_traced(count: int) -> None:
        process = dp_traced.process_frame
        begin = tracer.begin
        for _ in range(count):
            ctx = begin()
            process(with_trace(raw, ctx), 1)

    # The gated number is a ratio of two timed loops.  CI machines drift
    # on a seconds scale (frequency scaling, noisy neighbours), so timing
    # the phases back-to-back in alternation — rather than best-of on two
    # separated phases — ensures both sides sample the same noise windows
    # before best-of collapses them.
    repeats = 7
    best_untraced: Optional[float] = None
    best_traced: Optional[float] = None
    for _ in range(repeats):
        start = clock.now()
        run_untraced(iterations)
        elapsed = clock.now() - start
        if best_untraced is None or elapsed < best_untraced:
            best_untraced = elapsed
        start = clock.now()
        run_traced(iterations)
        elapsed = clock.now() - start
        if best_traced is None or elapsed < best_traced:
            best_traced = elapsed
    untraced_stats = {
        "iterations": iterations,
        "seconds": max(best_untraced, 1e-9),
        "ops_per_sec": iterations / max(best_untraced, 1e-9),
    }
    traced_stats = {
        "iterations": iterations,
        "seconds": max(best_traced, 1e-9),
        "ops_per_sec": iterations / max(best_traced, 1e-9),
    }
    ratio = traced_stats["ops_per_sec"] / max(untraced_stats["ops_per_sec"], 1e-9)
    return {
        "sample": TRACE_BENCH_SAMPLE,
        "untraced": untraced_stats,
        "traced": traced_stats,
        "overhead_ratio": ratio,
    }


def run_hotpath(quick: bool = False, clock: Optional[Clock] = None) -> Dict[str, object]:
    """Run all hot-path microbenches; returns the results section of the
    ``repro.bench/1`` report."""
    clock = clock if clock is not None else WallClock()
    budget = QUICK_ITERATIONS if quick else FULL_ITERATIONS
    flow = bench_flow_lookup(budget["flow_lookup"], clock)
    dispatch = bench_sim_dispatch(budget["sim_dispatch"], clock)
    classify = bench_classify(budget["classify"], clock)
    trace = bench_trace(budget["trace"], clock)
    return {
        "flow_lookup_indexed_512": flow["indexed"]["ops_per_sec"],
        "flow_lookup_linear_512": flow["linear"]["ops_per_sec"],
        "flow_lookup_speedup_512": flow["speedup"],
        "sim_dispatch_events": dispatch["events"]["ops_per_sec"],
        "classify_memoized": classify["classify"]["ops_per_sec"],
        "trace_untraced_pps": trace["untraced"]["ops_per_sec"],
        "trace_sampled_pps": trace["traced"]["ops_per_sec"],
        "trace_overhead_ratio_sampled": trace["overhead_ratio"],
        "detail": {
            "flow_lookup": flow,
            "sim_dispatch": dispatch,
            "classify": classify,
            "trace": trace,
        },
    }
