"""Self-test of the end-to-end benchmark, on short ``--smoke`` runs.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Checks that the metric names and units match ``BENCHMARK.json``, that
the determinism digest is stable, and that planted faults trip the
outcome checks.
"""

from __future__ import annotations

import json

import pytest

import bench
from repro.core.errors import QueryError
from workloads import WORKLOADS

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int = 0):
    return bench._spawn(workload, 7, 0.0, bool(trace), smoke=True)


@pytest.fixture(scope="module")
def runs():
    return {name: _run(name) for name in WORKLOADS}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_names_and_units_match(runs):
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for result, _ in runs.values():
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == expected
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_per_layer_names_and_units_match():
    result, detail = _run("household", trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    assert result["correct"]
    assert detail["digest"] == _run("household")[1]["digest"]


def test_every_outcome_check_passes(runs):
    for result, detail in runs.values():
        assert result["correct"], detail
        assert result["failed"] == 0 and result["attempted"] > 0


def test_digest_is_stable(runs):
    for name in ("churn", "small_frames"):
        assert _run(name)[1]["digest"] == runs[name][1]["digest"]


class _DropOne:
    """A link fault that drops the first full-size data segment."""

    def __init__(self):
        self.dropped = 0

    def plan(self, _sim, frame: bytes):
        if not self.dropped and len(frame) > 1000:
            self.dropped += 1
            return ()
        return (0.0,)


def test_dropped_frame_fails_byte_check():
    scenario = WORKLOADS["household"].setup(7, 2.0)
    fault = _DropOne()
    scenario.router.upstream_link.fault = fault
    scenario.sim.run_for(3.0)
    outcome = scenario.finish()
    assert fault.dropped == 1
    assert not outcome["checks"]["bytes_down"]


def test_injected_rpc_error_counts_as_failure():
    scenario = WORKLOADS["ui"].setup(7, 2.0)
    db = scenario.router.db
    real_query = db.query
    calls = []

    def flaky(text):
        calls.append(text)
        if len(calls) == 3:
            raise QueryError("injected fault")
        return real_query(text)

    db.query = flaky
    scenario.sim.run_for(1.0)
    outcome = scenario.finish()
    assert outcome["failures"]["rpc_errors"] == 1
    assert outcome["failed"] / outcome["attempted"] > 0
    assert not outcome["checks"]["no_failures"]
