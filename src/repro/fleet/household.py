"""One household of a fleet run: spec in, result out.

A household is one scenario (from the ``repro.check`` generator, seeded
via :func:`repro.fleet.seeds.household_seed`) executed against its own
fresh router on its own simulator — shared-nothing, so households run in
any process in any order with identical traces.

The result is a plain JSON-able record: the trace hash (the determinism
contract), event/op counts, the router's latency histograms in their
*mergeable* wire form (bucket counts, not percentiles — the aggregator
sums them losslessly) and per-table hwdb digests.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.clock import WallClock
from ..hwdb.snapshot import database_digests
from ..obs.metrics import Histogram
from ..check.runner import RunResult, ScenarioRunner
from ..check.scenario import Scenario, generate_scenario
from .seeds import household_seed

#: Latency instruments shipped per household and merged fleet-wide.
#: All three observe *simulated* seconds, so merged percentiles are
#: deterministic for a given fleet seed regardless of worker count.
LATENCY_METRICS = (
    "openflow.flow_setup_sim_seconds",
    "dhcp.discover_to_ack_sim_seconds",
    "dnsproxy.upstream_sim_seconds",
)

#: Counters summed into the fleet report.
COUNTER_METRICS = (
    "hwdb.insert_total",
    "openflow.packet_in_total",
    "openflow.flow_mod_total",
    "dhcp.ack_total",
    "dnsproxy.query_total",
    "query.incremental_tick_total",
    "query.full_tick_total",
)


class HouseholdSpec:
    """Everything needed to (re)run one household, JSON-able."""

    __slots__ = ("household_id", "fleet_seed", "max_ops", "duration")

    def __init__(
        self,
        household_id: int,
        fleet_seed: int,
        max_ops: int = 40,
        duration: float = 300.0,
    ):
        self.household_id = int(household_id)
        self.fleet_seed = int(fleet_seed)
        self.max_ops = int(max_ops)
        self.duration = float(duration)

    @property
    def seed(self) -> int:
        return household_seed(self.fleet_seed, self.household_id)

    def scenario(self) -> Scenario:
        return generate_scenario(
            self.seed, max_ops=self.max_ops, duration=self.duration
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "household_id": self.household_id,
            "fleet_seed": self.fleet_seed,
            "max_ops": self.max_ops,
            "duration": self.duration,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HouseholdSpec":
        return cls(
            household_id=int(data["household_id"]),
            fleet_seed=int(data["fleet_seed"]),
            max_ops=int(data.get("max_ops", 40)),
            duration=float(data.get("duration", 300.0)),
        )

    def __repr__(self) -> str:
        return (
            f"HouseholdSpec(id={self.household_id}, fleet_seed={self.fleet_seed}, "
            f"seed={self.seed})"
        )


class HouseholdResult:
    """What one household contributes to the fleet report (JSON-able)."""

    __slots__ = (
        "household_id",
        "seed",
        "trace_hash",
        "invariant",
        "events",
        "ops",
        "skipped",
        "sim_seconds",
        "wall_seconds",
        "counters",
        "histograms",
        "hwdb_digests",
    )

    def __init__(
        self,
        household_id: int,
        seed: int,
        trace_hash: str,
        invariant: Optional[str],
        events: int,
        ops: int,
        skipped: int,
        sim_seconds: float,
        wall_seconds: float,
        counters: Dict[str, int],
        histograms: Dict[str, Dict[str, Any]],
        hwdb_digests: Dict[str, str],
    ):
        self.household_id = household_id
        self.seed = seed
        self.trace_hash = trace_hash
        self.invariant = invariant
        self.events = events
        self.ops = ops
        self.skipped = skipped
        self.sim_seconds = sim_seconds
        self.wall_seconds = wall_seconds
        self.counters = counters
        self.histograms = histograms
        self.hwdb_digests = hwdb_digests

    @property
    def ok(self) -> bool:
        return self.invariant is None

    def to_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HouseholdResult":
        return cls(
            household_id=int(data["household_id"]),
            seed=int(data["seed"]),
            trace_hash=str(data["trace_hash"]),
            invariant=data.get("invariant"),
            events=int(data["events"]),
            ops=int(data["ops"]),
            skipped=int(data["skipped"]),
            sim_seconds=float(data["sim_seconds"]),
            wall_seconds=float(data["wall_seconds"]),
            counters={str(k): int(v) for k, v in data["counters"].items()},
            histograms=dict(data["histograms"]),
            hwdb_digests={str(k): str(v) for k, v in data["hwdb_digests"].items()},
        )

    def __repr__(self) -> str:
        verdict = "ok" if self.ok else f"VIOLATION:{self.invariant}"
        return (
            f"HouseholdResult(id={self.household_id}, {verdict}, "
            f"events={self.events}, hash={self.trace_hash[:12]}...)"
        )


def collect_result(
    spec: HouseholdSpec, runner: ScenarioRunner, run: RunResult, wall_seconds: float
) -> HouseholdResult:
    """Fold a finished runner into the fleet's wire-format record."""
    registry = runner.router.metrics
    histograms: Dict[str, Dict[str, Any]] = {}
    for name in LATENCY_METRICS:
        metric = registry.get(name)
        if isinstance(metric, Histogram):
            histograms[name] = metric.to_dict()
    counters: Dict[str, int] = {}
    for name in COUNTER_METRICS:
        metric = registry.get(name)
        if metric is not None:
            counters[name] = int(metric.value)
    return HouseholdResult(
        household_id=spec.household_id,
        seed=spec.seed,
        trace_hash=run.trace_hash,
        invariant=None if run.violation is None else run.violation.invariant,
        events=run.events,
        ops=len(run.scenario.ops),
        skipped=run.skipped,
        sim_seconds=runner.sim.now,
        wall_seconds=wall_seconds,
        counters=counters,
        histograms=histograms,
        # The metrics table is excluded: its rows carry wall-clock
        # latencies, which can never reproduce bit-identically.
        hwdb_digests=database_digests(runner.router.db),
    )


def run_household(spec: HouseholdSpec) -> HouseholdResult:
    """Execute one household start to finish and package the result."""
    wall = WallClock()
    started = wall.now()
    runner = ScenarioRunner(spec.scenario())
    run = runner.run()
    return collect_result(spec, runner, run, wall.now() - started)


__all__ = [
    "COUNTER_METRICS",
    "LATENCY_METRICS",
    "HouseholdResult",
    "HouseholdSpec",
    "collect_result",
    "run_household",
]
