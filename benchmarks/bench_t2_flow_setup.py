"""Experiment T2 — datapath lookup tiers and flow-setup cost.

The OVS-style architecture's defining shape: the kernel exact-match
cache is far cheaper than the userspace wildcard table, which is far
cheaper than a controller round trip.  Reports per-path packet cost and
the two-tier-vs-single-table ablation called out in DESIGN.md §5.

Run under pytest-benchmark for statistics, or directly —
``PYTHONPATH=src python benchmarks/bench_t2_flow_setup.py`` — to write a
``BENCH_T2.json`` summary with histogram percentiles per lookup tier.
"""

import itertools
import json
import time

import pytest

from repro.obs import Histogram, MetricsRegistry

from repro.net import ETH_TYPE_IPV4, IPv4Address, MACAddress
from repro.net.ethernet import ethernet_frame
from repro.net.ipv4 import PROTO_TCP, ipv4_packet
from repro.net.tcp import ACK, tcp_segment
from repro.nox.controller import Controller
from repro.nox.l2_learning import L2LearningSwitch
from repro.openflow.actions import output
from repro.openflow.channel import SecureChannel
from repro.openflow.datapath import Datapath
from repro.openflow.flow_table import FlowEntry
from repro.openflow.match import Match
from repro.sim.simulator import Simulator

_sport = itertools.count(20000)


def frame_bytes(sport=50000, dport=443):
    src, dst = int(IPv4Address("10.2.0.6")), int(IPv4Address("31.13.72.36"))
    return ethernet_frame(
        MACAddress("02:00:00:00:00:02").packed,
        MACAddress("02:00:00:00:00:01").packed,
        ETH_TYPE_IPV4,
        ipv4_packet(src, dst, PROTO_TCP, tcp_segment(src, dst, sport, dport, 0, 0, ACK)),
    )


def make_datapath(enable_cache=True, wildcard_rules=0):
    sim = Simulator(seed=1)
    dp = Datapath(sim, enable_cache=enable_cache)
    dp.add_port("in")
    dp.add_port("out")
    # Distractor wildcard rules so the linear scan has work to do.
    for i in range(wildcard_rules):
        dp.table.add(
            FlowEntry(Match(tp_dst=10000 + i), output(2), priority=100 + i)
        )
    return sim, dp


def test_t2_exact_cache_hit(benchmark):
    sim, dp = make_datapath(wildcard_rules=100)
    dp.handle_message_rule = dp.table.add(
        FlowEntry(Match(tp_dst=443), output(2), priority=50)
    )
    raw = frame_bytes()
    dp.process_frame(raw, 1)  # populate the microflow cache
    assert dp.cache_len() == 1

    benchmark(dp.process_frame, raw, 1)
    benchmark.extra_info["path"] = "kernel exact-match cache"
    assert dp.misses == 0


def test_t2_wildcard_table_hit(benchmark):
    sim, dp = make_datapath(enable_cache=False, wildcard_rules=100)
    dp.table.add(FlowEntry(Match(tp_dst=443), output(2), priority=50))
    raw = frame_bytes()

    benchmark(dp.process_frame, raw, 1)
    benchmark.extra_info["path"] = "userspace wildcard table (100 rules)"
    assert dp.misses == 0


def test_t2_controller_miss(benchmark):
    """Table miss -> punt -> L2-learning -> flow-mod, full round trip."""
    sim, dp = make_datapath()
    channel = SecureChannel(sim, latency=0.0005)
    controller = Controller(sim)
    channel.connect(dp, controller.receive)
    controller.connect(channel)
    controller.add_component(L2LearningSwitch, idle_timeout=0.0)
    ports = itertools.count(1)

    def miss_and_setup():
        # Fresh source port -> guaranteed table miss.
        raw = frame_bytes(sport=next(_sport))
        dp.process_frame(raw, 1)
        sim.run_for(0.01)  # let the channel + controller respond

    benchmark(miss_and_setup)
    benchmark.extra_info["path"] = "controller round trip"
    assert dp.registry.value("openflow.punt_total") > 0


@pytest.mark.parametrize("rules", [10, 100, 512, 1000])
def test_t2_wildcard_scan_scales_with_rules(benchmark, rules):
    """Ablation: the reference linear scan degrades with rule count; the
    indexed table (the default since DESIGN.md §14) stays near-flat, and
    the exact-match tier (previous bench) is immune either way."""
    sim, dp = make_datapath(enable_cache=False, wildcard_rules=rules)
    # The matching rule sits at the lowest priority: worst-case scan.
    dp.table.add(FlowEntry(Match(tp_dst=443), output(2), priority=1))
    raw = frame_bytes()
    benchmark(dp.process_frame, raw, 1)
    benchmark.extra_info["rules"] = rules


def test_t2_indexed_vs_linear_512(benchmark):
    """Acceptance kernel: indexed lookup ≥ 5x the linear reference at
    512 installed entries (the gate's flow_lookup_speedup_512 floor)."""
    from repro.bench.hotpath import _build_flow_tables

    indexed, linear, keys = _build_flow_tables()
    key = keys[137]
    winner, reference = indexed.resolve(key), linear.resolve(key)
    assert winner is not None and winner.match.same_pattern(reference.match)
    benchmark(indexed.resolve, key)
    benchmark.extra_info["entries"] = 512
    benchmark.extra_info["path"] = "indexed wildcard+exact table"


def test_t2_cache_ablation_throughput(benchmark):
    """Two-tier vs single-table on a steady 5-flow workload."""
    sim, dp = make_datapath(enable_cache=True, wildcard_rules=50)
    dp.table.add(FlowEntry(Match(tp_dst=443), output(2), priority=1))
    frames = [frame_bytes(sport=50000 + i) for i in range(5)]
    for raw in frames:
        dp.process_frame(raw, 1)  # warm the cache

    def burst():
        for raw in frames:
            dp.process_frame(raw, 1)

    benchmark(burst)
    benchmark.extra_info["cache_entries"] = dp.cache_len()
    assert dp.cache_hits > 0


def test_t2_rewrite_cost(benchmark):
    """MAC-rewrite actions force a parse/serialise per packet."""
    from repro.openflow.actions import route_rewrite

    sim, dp = make_datapath()
    dp.table.add(
        FlowEntry(
            Match(tp_dst=443),
            route_rewrite("02:00:00:00:00:01", "02:aa:00:00:00:02", 2),
            priority=50,
        )
    )
    raw = frame_bytes()
    dp.process_frame(raw, 1)
    benchmark(dp.process_frame, raw, 1)
    benchmark.extra_info["path"] = "cache hit + MAC rewrite"


# ----------------------------------------------------------------------
# Standalone mode: measure with the obs histograms and dump BENCH_T2.json
# ----------------------------------------------------------------------


def _time_loop(fn, hist: Histogram, iterations: int) -> None:
    for _ in range(iterations):
        start = time.perf_counter()
        fn()
        hist.observe(time.perf_counter() - start)


def main(out_path="BENCH_T2.json", packets=5000, misses=300) -> dict:
    registry = MetricsRegistry()
    report = {"experiment": "T2 flow setup", "packets_per_tier": packets}

    # Tier 1: kernel-style exact-match cache hit.
    _sim, dp = make_datapath(wildcard_rules=100)
    dp.table.add(FlowEntry(Match(tp_dst=443), output(2), priority=50))
    raw = frame_bytes()
    dp.process_frame(raw, 1)  # warm the microflow cache
    cache_hist = registry.histogram("bench.cache_hit_seconds")
    _time_loop(lambda: dp.process_frame(raw, 1), cache_hist, packets)
    report["exact_cache_hit"] = dict(cache_hist.fields())

    # Tier 2: userspace wildcard table scan (100 distractor rules).
    _sim, dp = make_datapath(enable_cache=False, wildcard_rules=100)
    dp.table.add(FlowEntry(Match(tp_dst=443), output(2), priority=50))
    raw = frame_bytes()
    wild_hist = registry.histogram("bench.wildcard_hit_seconds")
    _time_loop(lambda: dp.process_frame(raw, 1), wild_hist, packets)
    report["wildcard_table_hit"] = dict(wild_hist.fields())

    # Tier 3: the full controller round trip on a table miss.  Wall time
    # here, plus the datapath's own punt→flow-mod histogram in simulated
    # seconds — the same instrument the live router exports.
    sim = Simulator(seed=1)
    dp = Datapath(sim, registry=registry)
    dp.add_port("in")
    dp.add_port("out")
    channel = SecureChannel(sim, latency=0.0005)
    controller = Controller(sim, registry=registry)
    channel.connect(dp, controller.receive)
    controller.connect(channel)
    controller.add_component(L2LearningSwitch, idle_timeout=0.0)
    miss_hist = registry.histogram("bench.controller_miss_seconds")

    def miss_and_setup():
        raw = frame_bytes(sport=next(_sport))
        dp.process_frame(raw, 1)
        sim.run_for(0.01)

    _time_loop(miss_and_setup, miss_hist, misses)
    report["controller_miss"] = dict(miss_hist.fields())
    setup_hist = registry.get("openflow.flow_setup_sim_seconds")
    if setup_hist is not None:
        report["flow_setup_sim_seconds"] = dict(setup_hist.fields())

    # Acceptance kernel: indexed vs reference-linear lookup at 512
    # installed entries (same numbers python -m repro bench gates on).
    from repro.bench.hotpath import bench_flow_lookup
    from repro.core.clock import WallClock

    flow = bench_flow_lookup(min(packets * 10, 50_000), WallClock())
    report["indexed_lookup_512"] = {
        "indexed_ops_per_sec": flow["indexed"]["ops_per_sec"],
        "linear_ops_per_sec": flow["linear"]["ops_per_sec"],
        "speedup": round(flow["speedup"], 1),
    }

    # Ratio from means: percentiles are quantised to bucket bounds, so a
    # p50/p50 ratio between adjacent buckets would be misleading.
    cache_mean = cache_hist.sum / cache_hist.count if cache_hist.count else 0.0
    miss_mean = miss_hist.sum / miss_hist.count if miss_hist.count else 0.0
    report["miss_vs_cache_hit_ratio"] = (
        round(miss_mean / cache_mean, 1) if cache_mean else None
    )

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {out_path}")
    return report


if __name__ == "__main__":
    from common import bench_output

    main(out_path=str(bench_output("BENCH_T2.json")))
