"""The fuzzer's own guarantees: determinism, shrinking, replay files.

These test the testing machinery itself — if the trace hash ever drifts
between two runs of the same seed, every repro file in the corpus stops
meaning anything.
"""

import json

import pytest

from repro.check import (
    INVARIANTS,
    ScenarioRunner,
    generate_scenario,
    shrink_scenario,
)
from repro.check.cli import load_repro, write_repro
from repro.check.faults import LinkFault
from repro.check.scenario import Op, Scenario
from repro.openflow.datapath import Datapath
from repro.sim.simulator import Simulator

pytestmark = [pytest.mark.tier1, pytest.mark.fuzz]

BASE_CONFIG = {
    "lease_time": 60.0,
    "nat_enabled": True,
    "nat_idle_timeout": 30.0,
    "hwdb_buffer_rows": 256,
    "default_permit": False,
}


class TestDeterminism:
    def test_same_seed_same_generation(self):
        a = generate_scenario(seed=7, max_ops=30)
        b = generate_scenario(seed=7, max_ops=30)
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        a = generate_scenario(seed=7, max_ops=30)
        b = generate_scenario(seed=8, max_ops=30)
        assert a.to_json() != b.to_json()

    def test_same_scenario_same_trace_hash(self):
        scenario = generate_scenario(seed=7, max_ops=30)
        first = ScenarioRunner(scenario).run()
        second = ScenarioRunner(scenario).run()
        assert first.trace_hash == second.trace_hash
        assert first.trace == second.trace

    def test_scenario_json_roundtrip(self):
        scenario = generate_scenario(seed=11, max_ops=25)
        clone = Scenario.from_json(scenario.to_json())
        assert clone.to_json() == scenario.to_json()
        assert ScenarioRunner(clone).run().trace_hash == (
            ScenarioRunner(scenario).run().trace_hash
        )


class TestShrinking:
    def _corrupted(self):
        """A generated scenario plus one op that plants a bogus hwdb row."""
        scenario = generate_scenario(seed=5, max_ops=20)
        ops = list(scenario.ops) + [Op(150.0, "corrupt_flows", {})]
        return scenario.replace_ops(ops)

    def test_corrupt_flows_fires_and_shrinks_to_one_op(self):
        scenario = self._corrupted()
        result = ScenarioRunner(scenario).run()
        assert result.violation is not None
        assert result.violation.invariant == "hwdb-flows-known"

        shrunk = shrink_scenario(scenario, result.violation.invariant)
        assert shrunk.result.violation is not None
        assert shrunk.result.violation.invariant == "hwdb-flows-known"
        # Nothing but the corrupting op is needed to reproduce.
        assert [op.kind for op in shrunk.scenario.ops] == ["corrupt_flows"]
        assert shrunk.removed == len(scenario.ops) - 1

    def test_shrink_respects_run_budget(self):
        scenario = self._corrupted()
        shrunk = shrink_scenario(scenario, "hwdb-flows-known", max_runs=3)
        assert shrunk.runs <= 3
        assert shrunk.result.violation is not None


class TestReplayFiles:
    def test_write_then_load_roundtrip(self, tmp_path):
        scenario = self._failing_scenario()
        result = ScenarioRunner(scenario).run()
        assert result.violation is not None

        path = tmp_path / "repro.json"
        write_repro(path, result)
        loaded, invariant = load_repro(path)
        assert invariant == result.violation.invariant
        assert loaded.to_json() == scenario.to_json()
        replayed = ScenarioRunner(loaded).run()
        assert replayed.violation is not None
        assert replayed.violation.invariant == invariant

    def test_repro_files_embed_packet_lineage(self, tmp_path):
        """An injected failure's repro file carries the flight-recorder
        lineages of the packets dropped on the way to the violation."""
        ops = [
            # A wireless camera far outside useful range: every frame it
            # sends dies in link retries, force-publishing its lineage.
            Op(1.0, "add_device", {
                "name": "cam", "mac": "02:aa:00:00:00:07",
                "wireless": True, "position": (120.0, 120.0),
            }),
            Op(2.0, "start_dhcp", {"device": "cam"}),
            Op(30.0, "corrupt_flows", {}),
        ]
        scenario = Scenario(7, {"default_permit": True}, ops, 40.0)
        result = ScenarioRunner(scenario).run()
        assert result.violation is not None
        assert result.lineage, "violating run captured no lineages"

        path = tmp_path / "repro.json"
        write_repro(path, result)
        payload = json.loads(path.read_text())
        assert payload["lineage"], "repro file embeds no lineage"
        last = payload["lineage"][-1]
        assert last["forced"] and last["outcome"] == "drop"
        hops = last["hops"]
        assert hops[0]["component"] == "host" and hops[0]["verb"] == "tx"
        assert hops[-1]["component"] == "link" and hops[-1]["decision"] == "drop"

    def test_clean_runs_carry_no_lineage(self):
        scenario = generate_scenario(seed=3, max_ops=8)
        result = ScenarioRunner(scenario).run()
        if result.violation is None:
            assert result.lineage == []

    @staticmethod
    def _failing_scenario():
        return Scenario(1, dict(BASE_CONFIG), [Op(1.0, "corrupt_flows", {})], 10.0)


class TestPlantedBugs:
    def test_skipped_cache_invalidation_is_found_and_shrunk(self, monkeypatch):
        """A datapath that skips every 7th cache invalidation keeps
        forwarding stale microflows; the fuzzer must catch and shrink it."""
        original = Datapath._invalidate_cache_for

        def skip_every_seventh(datapath, entry):
            calls = getattr(datapath, "_planted_calls", 0) + 1
            datapath._planted_calls = calls
            if calls % 7:
                original(datapath, entry)

        monkeypatch.setattr(Datapath, "_invalidate_cache_for", skip_every_seventh)
        for seed in range(20):
            scenario = generate_scenario(seed)
            result = ScenarioRunner(scenario).run()
            if result.violation is not None:
                break
        assert result.violation is not None, "no seed in 0..19 caught the bug"
        assert result.violation.invariant == "microflow-cache-coherent"

        shrunk = shrink_scenario(scenario, "microflow-cache-coherent")
        assert shrunk.result.violation.invariant == "microflow-cache-coherent"
        assert len(shrunk.scenario.ops) < len(scenario.ops)
        replayed = ScenarioRunner(shrunk.scenario).run()
        assert replayed.violation.invariant == "microflow-cache-coherent"


class TestFaultInjection:
    def test_drop_fault_consumes_one_roll_per_frame(self):
        sim = Simulator(seed=3)
        fault = LinkFault(drop=1.0, until=100.0)
        assert fault.plan(sim, b"x") == ()
        assert fault.drops == 1

    def test_expired_fault_is_transparent(self):
        sim = Simulator(seed=3)
        fault = LinkFault(drop=1.0, until=5.0)
        sim.run_until(6.0)
        assert fault.plan(sim, b"x") == (0.0,)
        assert fault.drops == 0

    def test_duplicate_and_reorder_plans(self):
        sim = Simulator(seed=3)
        dup = LinkFault(duplicate=1.0, until=100.0)
        assert dup.plan(sim, b"x") == (0.0, 0.0)
        reorder = LinkFault(reorder=1.0, delay=0.25, until=100.0)
        assert reorder.plan(sim, b"x") == (0.25,)


def test_invariant_catalogue_is_complete():
    """The issue promises ~10 router-wide invariants; keep the floor."""
    names = [name for name, _checker in INVARIANTS]
    assert len(names) >= 10
    assert len(set(names)) == len(names)
