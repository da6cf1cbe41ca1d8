"""Bench harness smoke tests: report schema and the regression gate.

The gate must trip deterministically, so the synthetic-slowdown test
injects a fake clock (every reading jumps forward) rather than relying
on machine speed, and the CLI exit-code tests monkeypatch the bench
runner with canned results.
"""

import itertools
import json
import time
from types import SimpleNamespace

import pytest

import repro.bench.cli as bench_cli
from repro import Simulator
from repro.bench.gate import (
    DEFAULT_FLOORS,
    SCHEMA,
    check_gate,
    load_baseline,
    make_report,
)
import repro.bench.hotpath as hotpath
from repro.bench.hotpath import run_hotpath, traced_sends
from repro.core.clock import Clock, WallClock
from repro.net import ETH_TYPE_IPV4, PROTO_UDP
from repro.net.trace import trace_of
from repro.obs.trace import Tracer
from repro.sim.host import Host

from tests.reference_codecs import Ethernet, IPv4, UDP

pytestmark = pytest.mark.tier1


#: Tier-1 budget for the trace-overhead kernel.  Its floor applies to
#: the median of seven repeats, so each repeat must last long enough
#: that one scheduler or garbage-collection pause cannot decide it:
#: 2,000 frames take 5-8 ms a side, this budget ~60 ms.
TIER1_TRACE_ITERATIONS = 20_000


@pytest.fixture(scope="module", autouse=True)
def tiny_iteration_budget():
    """Keep the tier-1 smoke fast: the schema/floor assertions hold at
    tiny iteration counts (the speedup margin is ~6x the floor).  The
    trace kernel keeps a budget long enough to measure."""
    budget = {k: 2_000 for k in hotpath.QUICK_ITERATIONS}
    budget["trace"] = TIER1_TRACE_ITERATIONS
    patcher = pytest.MonkeyPatch()
    patcher.setattr(hotpath, "QUICK_ITERATIONS", budget)
    yield
    patcher.undo()


class JumpClock(Clock):
    """Every reading advances by a fixed step: a uniform slowdown."""

    def __init__(self, step: float = 10.0):
        self._now = 0.0
        self._step = step

    def now(self) -> float:
        self._now += self._step
        return self._now


@pytest.fixture(scope="module")
def quick_results():
    return run_hotpath(quick=True)


def _canned_results():
    return {
        "flow_lookup_indexed_512": 500_000.0,
        "flow_lookup_linear_512": 20_000.0,
        "flow_lookup_speedup_512": 25.0,
        "sim_dispatch_events": 200_000.0,
        "classify_memoized": 5_000_000.0,
        "trace_untraced_pps": 80_000.0,
        "trace_sampled_pps": 78_000.0,
        "trace_overhead_ratio_sampled": 0.975,
        "detail": {},
    }


def test_quick_report_schema(quick_results):
    report = make_report(quick_results, quick=True)
    assert report["schema"] == SCHEMA
    assert report["quick"] is True
    assert report["floors"] == DEFAULT_FLOORS
    for key in (
        "flow_lookup_indexed_512",
        "flow_lookup_linear_512",
        "flow_lookup_speedup_512",
        "sim_dispatch_events",
        "classify_memoized",
        "trace_untraced_pps",
        "trace_sampled_pps",
        "trace_overhead_ratio_sampled",
    ):
        assert isinstance(report["results"][key], float), key
    detail = report["results"]["detail"]
    assert detail["flow_lookup"]["entries"] == 512
    assert detail["flow_lookup"]["index"]["entries"] == 512


def test_speedup_floor_holds(quick_results):
    """The acceptance criterion: ≥ 5x at 512 entries, even in --quick."""
    assert quick_results["flow_lookup_speedup_512"] >= 5.0


def test_gate_passes_against_own_results(quick_results):
    baseline = make_report(quick_results, quick=True)
    gate = check_gate(quick_results, baseline)
    assert gate.passed, gate.failures


def test_gate_trips_on_synthetic_slowdown(quick_results):
    """A uniformly slow timer kills both the speedup floor (indexed and
    linear become equally 'slow') and the throughput tolerance band."""
    slowed = run_hotpath(quick=True, clock=JumpClock())
    baseline = make_report(quick_results, quick=True)
    gate = check_gate(slowed, baseline)
    assert not gate.passed
    text = "\n".join(gate.failures)
    assert "flow_lookup_speedup_512" in text
    assert "below floor" in text
    assert "below 20% of baseline" in text


def test_trace_kernel_runs_what_host_send_frame_runs():
    """The trace kernel prices the hosts' own tracing work: through the
    same tracer settings, its traced loop and Host.send_frame hand on
    the same frames, with the same lineages."""
    frame = Ethernet(
        dst="02:bb:00:00:00:aa",
        src="02:bb:00:00:00:01",
        ethertype=ETH_TYPE_IPV4,
        payload=IPv4(
            src="10.2.0.5",
            dst="10.2.0.6",
            proto=PROTO_UDP,
            payload=UDP(sport=40_000, dport=9, payload=b"x" * 32),
        ),
    )
    # (sample, enabled, sends): mid-run sample changes, sample 0, off.
    schedule = ((0.01, True, 450), (0.5, True, 7), (0.0, True, 5),
                (1.0, False, 4), (1.0, True, 3), (0.25, True, 11))

    def drive(send):
        tracer = Tracer(clock=lambda: 0.0, sample=0.01, enabled=True)
        sent = []
        for sample, enabled, count in schedule:
            tracer.set_sample(sample)
            tracer.enabled = enabled
            send(tracer, sent.append, count)
        return [
            (bytes(raw), ctx and ctx.trace_id,
             ctx and [hop.to_dict() for hop in ctx.hops])
            for raw, ctx in ((raw, trace_of(raw)) for raw in sent)
        ]

    def through_host(tracer, deliver, count):
        host = Host(Simulator(seed=1), "bench", "02:bb:00:00:00:01")
        host.tracer = tracer
        host.port = SimpleNamespace(send=deliver)
        for _ in range(count):
            host.send_frame(frame.pack())

    def through_kernel(tracer, deliver, count):
        traced_sends(tracer, lambda raw, _port: deliver(raw), frame.pack())(count)

    expected = drive(through_host)
    assert sum(trace_id is not None for _raw, trace_id, _hops in expected) == 4 + 3 + 3 + 3
    assert drive(through_kernel) == expected


def test_trace_gate_counts_a_sparse_stall(monkeypatch):
    """A tracer cost that lands on few frames still counts: a 10 ms
    stall at every 25th sampled frame, one frame in 2,500, trips the
    floor."""
    sampled = Tracer.sampled
    calls = itertools.count(1)

    def stalling(self):
        if next(calls) % 25 == 0:
            time.sleep(0.01)
        return sampled(self)

    monkeypatch.setattr(Tracer, "sampled", stalling)
    result = hotpath.bench_trace(10_000, WallClock())
    assert result["overhead_ratio"] < DEFAULT_FLOORS["trace_overhead_ratio_sampled"]


def test_gate_checks_floors_without_baseline():
    results = _canned_results()
    results["flow_lookup_speedup_512"] = 2.0
    gate = check_gate(results, baseline=None)
    assert not gate.passed
    assert any("below floor 5" in failure for failure in gate.failures)


def test_gate_reports_missing_keys():
    gate = check_gate({}, baseline=None)
    assert not gate.passed
    assert any("missing" in failure for failure in gate.failures)


def test_load_baseline_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "other/9", "results": {}}))
    assert load_baseline(path) is None
    assert load_baseline(tmp_path / "absent.json") is None
    (tmp_path / "garbage.json").write_text("{not json")
    assert load_baseline(tmp_path / "garbage.json") is None


def test_cli_smoke_writes_report_and_gates(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_cli, "run_hotpath", lambda quick=False: _canned_results())
    out = tmp_path / "b.json"
    baseline = tmp_path / "BENCH_HOTPATH.json"

    # First run refreshes the baseline...
    assert bench_cli.main(["--quick", "--write-baseline", "--baseline", str(baseline)]) == 0
    assert load_baseline(baseline) is not None

    # ...and a second identical run gates clean against it.
    assert bench_cli.main(["--quick", "--out", str(out), "--baseline", str(baseline)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == SCHEMA and report["quick"] is True


def test_cli_exit_nonzero_on_regression(tmp_path, monkeypatch):
    fast = _canned_results()
    slow = dict(fast)
    slow["flow_lookup_indexed_512"] = fast["flow_lookup_indexed_512"] * 0.05
    slow["flow_lookup_speedup_512"] = 1.0
    baseline = tmp_path / "BENCH_HOTPATH.json"
    baseline.write_text(json.dumps(make_report(fast, quick=False)))
    monkeypatch.setattr(bench_cli, "run_hotpath", lambda quick=False: slow)
    assert bench_cli.main(["--quick", "--baseline", str(baseline)]) == 1
