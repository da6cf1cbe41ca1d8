#!/usr/bin/env python3
"""End-to-end Homework router benchmark: four household workloads.

Run every workload, interleaved round-robin over fresh processes, then
once more each under cProfile for the per-layer ledger::

    python3 benchmarks/e2e/bench.py [--seed 7] [--repeats 5] \\
        [--workloads household churn ...] [--out DIR]

Run one workload once (the unit the repeats are made of)::

    python3 benchmarks/e2e/bench.py --workload churn --seed 7 --seconds 15 --trace 0

A single run builds the workload three times from the same seed and
times the same sim-time chunks on each (see :func:`run_once`), for at
least ``--seconds`` wall seconds in all; then it drains the last one and
checks every outcome.  It prints each metric by name and unit, a
``detail:`` line, and last one JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` one replica runs under cProfile and
the metrics are per layer.  The program is imported from ``src/`` two
directories up; without it the run exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"

#: Household builds per run (see :func:`run_once`); ``setup_s`` is the
#: median of their set-up times.
REPLICAS = 3
#: The replica that runs under cProfile in a ``--trace 1`` run.
PROFILED_REPLICA = 1
#: Seconds :func:`calibrate` takes on the reference machine.  A shared
#: machine's speed drifts, for milliseconds to minutes at a time, by up
#: to 2x.  So :func:`calibrate` runs right before every timed chunk, and
#: that chunk's time, and the latency of every request in it, is scaled
#: by ``CALIBRATION_REF_S / calibration``; rates by the inverse.  The
#: unscaled values are in the ``detail:`` line.
CALIBRATION_REF_S = 0.0022
#: Sim-seconds of warm-up, and the minimum timed chunks, in ``--smoke``
#: mode (self-tests only).
SMOKE_WARMUP_S = 2.0
SMOKE_CHUNKS = 2

#: End-to-end metrics: name -> unit.  Bounds live in BENCHMARK.json.
END_TO_END: Dict[str, str] = {
    "pkts_per_s": "1/s",
    "sim_speed": "sim-s/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "control_p50_ms": "ms",
    "control_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Functions timed per call under cProfile: metric -> (file, function).
TIMED_CALLS: Dict[str, Tuple[str, str]] = {
    "openflow.process_frame_us": ("openflow/datapath.py", "process_frame"),
    "nox.packet_in_us": ("nox/controller.py", "receive"),
    "policy.enforce_us": ("policy/engine.py", "enforce"),
    "services.control_request_us": ("services/control_api/api.py", "handle_request"),
    "hwdb.parse_us": ("hwdb/cql/parser.py", "parse"),
    "hwdb.rpc_us": ("hwdb/rpc.py", "handle_datagram"),
    "query.execute_select_us": ("query/engine.py", "execute_select"),
    "hwdb.insert_us": ("hwdb/database.py", "insert"),
    "measurement.flow_poll_us": ("measurement/collectors.py", "_on_reply"),
    "obs.flush_us": ("obs/flush.py", "flush"),
}

#: Functions counted per datapath packet under cProfile.
PER_PACKET_CALLS: Dict[str, Tuple[str, str]] = {
    "net.checksum_calls_per_pkt": ("net/checksum.py", "internet_checksum"),
    "net.eth_unpack_per_pkt": ("net/ethernet.py", "unpack"),
    "net.eth_pack_per_pkt": ("net/ethernet.py", "pack"),
}

#: Counters read over the timed phase, reported per simulated second.
PER_SIM_SECOND = (
    "openflow.flow_mods",
    "nox.packet_ins",
    "services.dns_queries",
    "services.dhcp_discovers",
    "hwdb.queries",
    "hwdb.inserts",
    "query.fallbacks",
)


def _per_layer_units() -> Dict[str, str]:
    from ledger import LAYERS

    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s/sim-s"
        units[f"layer.{layer}.share"] = "ratio"
    units.update({name: "1/pkt" for name in PER_PACKET_CALLS})
    units["sim.events_per_pkt"] = "1/pkt"
    units["openflow.cache_hit_ratio"] = "ratio"
    units["openflow.punt_ratio"] = "ratio"
    units["openflow.invalidation_keys_per_flow_mod"] = "1/flow_mod"
    units["openflow.table_size"] = "entries"
    units["openflow.cache_size"] = "entries"
    units["query.plan_cache_hit_ratio"] = "ratio"
    units.update({name: "us" for name in TIMED_CALLS})
    units.update({name: "1/sim-s" for name in PER_SIM_SECOND})
    units["trace_overhead"] = "ratio"
    return units


def load_program() -> None:
    """Put this checkout's ``src/`` first on the path and check that the
    ``repro`` it yields is that one; exit 2 otherwise."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"bench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class _Entry:
    __slots__ = ("key", "size", "seen")

    def __init__(self, key: tuple, size: int):
        self.key = key
        self.size = size
        self.seen = 0

    def touch(self, now: int) -> int:
        self.seen = now
        return self.size


def calibrate() -> float:
    """Wall seconds of one pass of a fixed pure-Python loop shaped like the
    router's per-packet work: tuple keys cut from bytes, dict probes,
    slotted objects, a heap and string formatting.  The collector is off
    so the program's heap is never swept inside the measurement."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: Dict[tuple, _Entry] = {}
        heap: List[Tuple[int, int]] = []
        frame = bytes(range(64)) * 4
        total = 0
        for i in range(2000):
            key = (i & 255, frame[i & 63], int.from_bytes(frame[i & 127:(i & 127) + 4], "big"))
            entry = table.get(key)
            if entry is None:
                entry = table[key] = _Entry(key, i & 1023)
            total += entry.touch(i)
            heapq.heappush(heap, (i * 7919 % 1000, i))
            if len(heap) > 64:
                heapq.heappop(heap)
            if i % 50 == 0:
                total += len(f"{key[0]}:{key[2]:x}")
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def _quantile(values: List[float], percent: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def _counters(scenario) -> Dict[str, int]:
    router = scenario.router
    dp = router.datapath
    registry = router.metrics

    def count(name: str) -> int:
        metric = registry.get(name)
        return int(metric.value) if metric is not None else 0

    return {
        "packets": dp.packets_processed,
        "events": scenario.sim.events_executed,
        "cache_hits": dp.cache_hits,
        "misses": dp.misses,
        "openflow.flow_mods": dp.flow_mods_received,
        "nox.packet_ins": router.controller.packet_ins_handled,
        "services.dns_queries": router.dns_proxy.queries_seen,
        "services.dhcp_discovers": router.dhcp.discovers,
        "hwdb.queries": count("hwdb.query_total"),
        "hwdb.inserts": router.db.inserts,
        "query.fallbacks": count("query.fallback_total"),
        "plan_hits": count("query.plan_cache_hit_total"),
        "plan_misses": count("query.plan_cache_miss_total"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Window:
    """What one replica's timed phase measured, chunk by chunk."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.scales: List[float] = []  # CALIBRATION_REF_S / calibration
        self.packets: List[int] = []
        self.digest = ""
        self.query_ms: List[float] = []
        self.control_ms: List[float] = []
        self.query_bounds: List[int] = []  # samples recorded by each chunk's end
        self.control_bounds: List[int] = []
        self.counters: Dict[str, int] = {}
        self.table_size = 0
        self.cache_size = 0

    def scaled_walls(self) -> List[float]:
        return [wall * scale for wall, scale in zip(self.walls, self.scales)]

    def scaled(self, samples: List[float], bounds: List[int]) -> List[float]:
        out: List[float] = []
        for end, scale in zip(bounds, self.scales):
            out.extend(sample * scale for sample in samples[len(out):end])
        return out


def _timed_phase(
    scenario,
    chunk_s: float,
    min_chunks: int,
    period_chunks: int,
    budget_s: float,
    count: Optional[int],
    profiler: Optional[cProfile.Profile],
) -> _Window:
    """Run ``count`` chunks, or (``count`` None) at least ``min_chunks`` and
    at least ``budget_s`` wall seconds of them, in whole periods."""
    sim, dp = scenario.sim, scenario.router.datapath
    window = _Window()
    before = _counters(scenario)
    gc.collect()
    scenario.recording = True
    started = time.perf_counter()
    while True:
        window.scales.append(CALIBRATION_REF_S / calibrate())
        packets = dp.packets_processed
        chunk_start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        sim.run_for(chunk_s)
        if profiler is not None:
            profiler.disable()
        window.walls.append(time.perf_counter() - chunk_start)
        window.packets.append(dp.packets_processed - packets)
        window.query_bounds.append(len(scenario.query_ms))
        window.control_bounds.append(len(scenario.control_ms))
        done = len(window.walls)
        if done == min_chunks:
            window.digest = scenario.digest()
        if done == count or (
            count is None
            and done >= min_chunks
            and done % period_chunks == 0
            and time.perf_counter() - started >= budget_s
        ):
            break
    scenario.recording = False
    after = _counters(scenario)
    window.counters = {key: after[key] - before[key] for key in after}
    window.query_ms = scenario.query_ms
    window.control_ms = scenario.control_ms
    window.table_size, window.cache_size = len(dp.table), dp.cache_len()
    return window


def _medians(series: List[List[float]]) -> List[float]:
    """Element-wise median across replicas of equally long series."""
    return [statistics.median(values) for values in zip(*series)]


def run_once(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Tuple[dict, dict]:
    """One run of one workload: (result line, detail).

    The workload is built :data:`REPLICAS` times from the same seed, one
    after another; each replica runs the same timed chunks, so chunk *i*
    (and request *j*) does identical work in every replica.  Each chunk's
    time and each request's latency is the median over the replicas of
    its calibrated value, which drops a replica caught in a slow spell.
    With ``trace`` the middle replica runs under cProfile: it gives the
    ledger, and its chunk times against the others give the overhead.
    """
    from ledger import Ledger
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    warmup = SMOKE_WARMUP_S if smoke else workload.warmup_s
    setup_calibration: List[float] = []
    setup_times: List[float] = []
    setup_digests = set()
    windows: List[_Window] = []
    profiler = cProfile.Profile() if trace else None
    scenario = None
    for index in range(REPLICAS):
        scenario = None
        gc.collect()
        setup_calibration.extend(calibrate() for _ in range(3))
        started = time.perf_counter()
        scenario = workload.setup(seed, warmup)
        setup_times.append(time.perf_counter() - started)
        setup_calibration.extend(calibrate() for _ in range(3))
        setup_digests.add(scenario.digest())
        windows.append(
            _timed_phase(
                scenario,
                workload.chunk_s,
                workload.whole_periods(SMOKE_CHUNKS) if smoke else workload.min_chunks(scenario),
                workload.period_chunks,
                seconds / REPLICAS,
                len(windows[0].walls) if windows else None,
                profiler if index == PROFILED_REPLICA and profiler is not None else None,
            )
        )
    outcome = scenario.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = outcome["checks"]
    checks["setup_deterministic"] = len(setup_digests) == 1
    first = windows[0]
    checks["replicas_identical"] = all(
        (w.digest, w.packets, w.query_bounds, w.control_bounds)
        == (first.digest, first.packets, first.query_bounds, first.control_bounds)
        for w in windows
    )

    plain = [w for i, w in enumerate(windows) if profiler is None or i != PROFILED_REPLICA]
    chunk_walls = _medians([w.scaled_walls() for w in plain])
    query_ms = _medians([w.scaled(w.query_ms, w.query_bounds) for w in plain])
    control_ms = _medians([w.scaled(w.control_ms, w.control_bounds) for w in plain])
    timed_sim_s = workload.chunk_s * len(chunk_walls)
    packets = sum(first.packets)
    setup_scale = CALIBRATION_REF_S / statistics.median(setup_calibration)
    metrics = {
        "pkts_per_s": packets / sum(chunk_walls),
        "sim_speed": timed_sim_s / sum(chunk_walls),
        "query_p50_ms": _quantile(query_ms, 50),
        "query_p95_ms": _quantile(query_ms, 95),
        "control_p50_ms": _quantile(control_ms, 50),
        "control_p95_ms": _quantile(control_ms, 95),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times) * setup_scale,
    }
    raw_walls = _medians([w.walls for w in plain])
    raw = {
        "pkts_per_s": packets / sum(raw_walls),
        "sim_speed": timed_sim_s / sum(raw_walls),
        "query_p50_ms": _quantile(_medians([w.query_ms for w in plain]), 50),
        "control_p50_ms": _quantile(_medians([w.control_ms for w in plain]), 50),
        "setup_s": statistics.median(setup_times),
    }
    units = END_TO_END
    if profiler is not None:
        metrics = _per_layer(Ledger(pstats.Stats(profiler)), windows[PROFILED_REPLICA],
                             timed_sim_s, sum(chunk_walls))
        units = _per_layer_units()

    result = {
        "correct": all(checks.values()),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "digest": first.digest,
        "chunks": len(chunk_walls),
        "timed_sim_s": timed_sim_s,
        "query_samples": len(query_ms),
        "control_samples": len(control_ms),
        "setup_runs_s": setup_times,
        "unscaled": raw,
        "setup_scale": setup_scale,
        **{key: outcome[key] for key in outcome if key not in ("attempted", "failed")},
    }
    return result, detail


def _per_layer(ledger, window: _Window, timed_sim_s: float, plain_wall_s: float) -> dict:
    """The per-layer metrics of the profiled replica."""
    delta = window.counters
    layer_s = ledger.self_seconds()
    total_s = sum(layer_s.values())
    metrics = {}
    for layer, spent in layer_s.items():
        metrics[f"layer.{layer}.self_s"] = spent / timed_sim_s
        metrics[f"layer.{layer}.share"] = _ratio(spent, total_s)
    for metric, (path, function) in PER_PACKET_CALLS.items():
        metrics[metric] = _ratio(ledger.calls(path, function)[0], delta["packets"])
    for metric, (path, function) in TIMED_CALLS.items():
        ncalls, cumulative = ledger.calls(path, function)
        metrics[metric] = _ratio(cumulative, ncalls) * 1e6
    metrics["openflow.invalidation_keys_per_flow_mod"] = _ratio(
        ledger.calls("openflow/datapath.py", "_key_from_tuple")[0], delta["openflow.flow_mods"]
    )
    metrics["sim.events_per_pkt"] = _ratio(delta["events"], delta["packets"])
    metrics["openflow.cache_hit_ratio"] = _ratio(delta["cache_hits"], delta["packets"])
    metrics["openflow.punt_ratio"] = _ratio(delta["misses"], delta["packets"])
    metrics["openflow.table_size"] = float(window.table_size)
    metrics["openflow.cache_size"] = float(window.cache_size)
    metrics["query.plan_cache_hit_ratio"] = _ratio(
        delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"]
    )
    for metric in PER_SIM_SECOND:
        metrics[metric] = delta[metric] / timed_sim_s
    metrics["trace_overhead"] = sum(window.scaled_walls()) / plain_wall_s
    return metrics


def print_run(result: dict, detail: dict) -> None:
    for key, metric in result["metrics"].items():
        print(f"{detail['workload']:<13} {key:<42} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{detail['workload']:<13} {'fail_ratio':<42} "
          f"{_ratio(result['failed'], result['attempted']):>14.6g} ratio")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


# -- the multi-run command ---------------------------------------------------


def _spawn(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Tuple[dict, dict]:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    if smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{name} run failed ({completed.returncode}): {completed.stderr.strip()[-2000:]}"
        )
    detail = next(
        json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")
    )
    return json.loads(lines[-1]), detail


def _spread(values: List[float]) -> Tuple[float, float]:
    """(median, interquartile range)."""
    if len(values) < 2:
        return values[0], 0.0
    quartiles = statistics.quantiles(values, n=4)
    return statistics.median(values), quartiles[2] - quartiles[0]


def summarize(runs: Dict[str, List[Tuple[dict, dict]]], bounds: Dict[str, float]) -> dict:
    """Median, IQR and sample count per (workload, metric)."""
    summary: Dict[str, dict] = {}
    for name, results in runs.items():
        rows = {}
        for metric in results[0][0]["metrics"]:
            values = [result["metrics"][metric]["value"] for result, _ in results]
            median, iqr = _spread(values)
            row = {
                "median": median,
                "iqr": iqr,
                "n": len(values),
                "unit": results[0][0]["metrics"][metric]["unit"],
            }
            bound = bounds.get(metric)
            if bound is not None:
                row["unresolved"] = bool(median) and iqr / abs(median) > bound
            rows[metric] = row
        attempted = sum(result["attempted"] for result, _ in results)
        failed = sum(result["failed"] for result, _ in results)
        rows["fail_ratio"] = {"median": _ratio(failed, attempted), "iqr": 0.0,
                              "n": len(results), "unit": "ratio"}
        summary[name] = rows
    return summary


def orchestrate(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    recorded = {}
    if BASELINE.is_file():
        recorded = json.loads(BASELINE.read_text()).get("digests", {}).get(str(args.seed), {})
    names = args.workloads
    runs: Dict[str, List[Tuple[dict, dict]]] = {name: [] for name in names}
    traced: Dict[str, Tuple[dict, dict]] = {}
    for repeat in range(args.repeats):
        for name in names:
            runs[name].append(_spawn(name, args.seed, args.seconds, False, args.smoke))
            print(f"# repeat {repeat + 1}/{args.repeats} {name} done", flush=True)
    for name in names:
        traced[name] = _spawn(name, args.seed, args.seconds, True, args.smoke)
        print(f"# traced {name} done", flush=True)

    ok = True
    report = {"seed": args.seed, "seconds": args.seconds, "repeats": args.repeats,
              "end_to_end": summarize(runs, bounds), "ledger": {}, "digests": {},
              "runs": {name: [detail for _, detail in runs[name]] for name in names}}
    for name in names:
        report["ledger"][name] = {
            metric: value["value"] for metric, value in traced[name][0]["metrics"].items()
        }
        digests = {detail["digest"] for _, detail in runs[name] + [traced[name]]}
        report["digests"][name] = sorted(digests)[0] if len(digests) == 1 else sorted(digests)
        if len(digests) != 1:
            print(f"FAIL {name}: digests differ between runs: {sorted(digests)}")
            ok = False
        elif recorded.get(name) not in (None, report["digests"][name]):
            print(f"note {name}: digest differs from {BASELINE.name}: behaviour moved")
        for result, detail in runs[name] + [traced[name]]:
            if not result["correct"] or result["failed"]:
                print(f"FAIL {name}: checks {detail['checks']} failures {detail['failures']}")
                ok = False

    print(f"\n{'workload':<13} {'metric':<42} {'median':>12} {'iqr':>10} {'n':>3}  unit")
    for name, rows in report["end_to_end"].items():
        for metric, row in rows.items():
            flag = "  unresolved" if row.get("unresolved") else ""
            print(f"{name:<13} {metric:<42} {row['median']:>12.6g} {row['iqr']:>10.4g} "
                  f"{row['n']:>3}  {row['unit']}{flag}")
    for name, ledger in report["ledger"].items():
        for metric, value in ledger.items():
            print(f"{name:<13} {metric:<42} {value:>12.6g}  (traced)")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"e2e_seed{args.seed}.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--workloads", nargs="+", help="workloads to repeat (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="minimum wall seconds a run measures, all replicas together")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, help="directory for the JSON report")
    parser.add_argument("--smoke", action="store_true",
                        help="short warm-ups, for the self-tests")
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload is not None:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        result, detail = run_once(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.smoke)
        print_run(result, detail)
        return 0
    args.workloads = args.workloads or list(WORKLOADS)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}")
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
