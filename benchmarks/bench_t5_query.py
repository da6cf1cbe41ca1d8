"""Experiment T5 — the incremental tier vs full re-execution of the plan.

The paper's Figure-1 display is a continuous aggregation: per-device
byte totals over a sliding window, re-delivered every refresh interval.
Re-running the compiled plan recomputes that aggregate from scratch on
every fire — O(rows-in-window) per tick.  The incremental tier keeps
per-group state between fires and touches only the delta — O(new rows +
evicted rows) per tick.  This bench measures exactly that:

* a ``flows`` ring holding ~1200 rows inside a 30-second window;
* a Figure-1-style subscription fired once per simulated second, with
  ~40 new rows arriving between fires;
* the same workload replayed twice, as a database subscription (the
  engine's incremental tier) vs ``compile_select(...).execute(...)`` of
  the same compiled plan, in interleaved best-of-5 rounds (scheduler
  jitter hits both alike);
* a verification phase first: every tick's result must be bit-identical
  (types included) between the two modes, or the bench aborts.

Acceptance: ≥5x subscription-tick throughput.  Run under
pytest-benchmark for statistics, or directly —
``PYTHONPATH=src python benchmarks/bench_t5_query.py`` — to write the
``BENCH_QUERY.json`` summary.
"""

import json
import time

from repro.core.clock import SimulatedClock
from repro.hwdb.cql.parser import parse
from repro.hwdb.database import HomeworkDatabase
from repro.query.plan import compile_select

SCHEMA = [
    ("src_mac", "macaddr"),
    ("proto", "integer"),
    ("bytes", "integer"),
]

MACS = [f"02:aa:00:00:00:{i:02x}" for i in range(1, 9)]

QUERY = (
    "SELECT src_mac, sum(bytes) AS bytes FROM flows [RANGE 30 SECONDS] "
    "GROUP BY src_mac ORDER BY bytes DESC"
)

PREFILL_ROWS = 1600
ROWS_PER_TICK = 40
INSERT_SPACING = 0.025  # seconds between inserts: 40 rows fill one tick


class Workload:
    """One database + one Figure-1 query, stepped tick by tick.

    ``fire`` is the database subscription (incremental tier) or a full
    re-execution of the compiled plan.  Rows are a deterministic
    function of the global insert index, so two instances stepped in
    lockstep see byte-identical tables.
    """

    def __init__(self, incremental: bool):
        self.clock = SimulatedClock()
        self.db = HomeworkDatabase(self.clock)
        self.db.create_table("flows", SCHEMA, 4096)
        self._index = 0
        for _ in range(PREFILL_ROWS):
            self._insert_next()
        if incremental:
            self.fire = self.db.subscribe(
                QUERY, interval=1.0, callback=lambda result: None,
                deliver_empty=True, start=False,
            ).fire
        else:
            plan = compile_select(parse(QUERY), self.db._tables)
            self.fire = lambda: plan.execute(self.db._tables, self.db.now)

    def _insert_next(self) -> None:
        i = self._index
        self._index += 1
        self.clock.advance(INSERT_SPACING)
        self.db.insert(
            "flows",
            {
                "src_mac": MACS[i % len(MACS)],
                "proto": 6 if i % 3 else 17,
                "bytes": (i * 37) % 1500 + 64,
            },
        )

    def tick(self):
        """One subscription interval: fresh traffic arrives, then fire."""
        for _ in range(ROWS_PER_TICK):
            self._insert_next()
        return self.fire()


def _fingerprint(result):
    return (
        tuple(result.columns),
        tuple(
            tuple((type(v).__name__, repr(v)) for v in row) for row in result.rows
        ),
    )


def verify_identical(ticks: int = 200) -> int:
    """Lockstep replay: the incremental result must equal the full
    re-execution's on every tick."""
    recompute = Workload(incremental=False)
    incremental = Workload(incremental=True)
    for tick in range(ticks):
        expected = _fingerprint(recompute.tick())
        actual = _fingerprint(incremental.tick())
        assert actual == expected, f"divergence at tick {tick}"
    return ticks


def _ticks_per_sec(workload: Workload, ticks: int) -> float:
    """Throughput of the *fire* alone — inserts are excluded from the
    timer because both modes pay the same append cost."""
    elapsed = 0.0
    for _ in range(ticks):
        for _ in range(ROWS_PER_TICK):
            workload._insert_next()
        start = time.perf_counter()
        workload.fire()
        elapsed += time.perf_counter() - start
    return ticks / elapsed


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def test_t5_results_bit_identical():
    assert verify_identical(ticks=120) == 120


def test_t5_incremental_tick(benchmark):
    workload = Workload(incremental=True)
    for _ in range(5):
        workload.tick()  # warm the plan cache and the window state
    benchmark(workload.tick)
    benchmark.extra_info["rows_in_window"] = int(30.0 / INSERT_SPACING)


def test_t5_recompute_tick(benchmark):
    workload = Workload(incremental=False)
    for _ in range(5):
        workload.tick()
    benchmark(workload.tick)


# ----------------------------------------------------------------------
# Standalone mode: interleaved best-of-5, dump BENCH_QUERY.json
# ----------------------------------------------------------------------


def main(output="BENCH_QUERY.json", rounds=5, ticks=300) -> dict:
    verified_ticks = verify_identical()

    recompute_best = 0.0
    incremental_best = 0.0
    for _ in range(rounds):
        recompute_best = max(
            recompute_best, _ticks_per_sec(Workload(incremental=False), ticks)
        )
        incremental_best = max(
            incremental_best, _ticks_per_sec(Workload(incremental=True), ticks)
        )

    report = {
        "experiment": "T5 query engine",
        "query": QUERY,
        "rows_in_window": int(30.0 / INSERT_SPACING),
        "rows_per_tick": ROWS_PER_TICK,
        "verified_identical_ticks": verified_ticks,
        "recompute_ticks_per_sec": round(recompute_best, 1),
        "incremental_ticks_per_sec": round(incremental_best, 1),
        "speedup": round(incremental_best / recompute_best, 2),
        "acceptance_min_speedup": 5.0,
    }
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {output}")
    assert report["speedup"] >= 5.0, (
        f"incremental tier only {report['speedup']}x over full re-execution"
    )
    return report


if __name__ == "__main__":
    from common import bench_output

    main(output=str(bench_output("BENCH_QUERY.json")))
