"""End-to-end behaviour gate: every e2e workload replays its baseline digest.

Each run of ``benchmarks/e2e/bench.py`` prints a ``detail:`` line whose
``digest`` hashes the packets the datapath processed, the events the
simulator executed and every hwdb table; it is taken after the run's
minimum chunks, so a one-second run gives the same digest as a timed one.
A change that claims unchanged behaviour must leave all eight digests
(four workloads, seeds 7 and 8) equal to ``benchmarks/e2e/baseline.json``.
The test only reads the benchmark's files.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks" / "e2e" / "bench.py"
BASELINE = json.loads((ROOT / "benchmarks" / "e2e" / "baseline.json").read_text())

WORKLOADS = ("household", "small_frames", "churn", "ui")
SEEDS = (7, 8)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_matches_baseline(workload, seed):
    command = [
        sys.executable, str(BENCH),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "1",
        "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    detail = next(
        json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")
    )
    result = json.loads(lines[-1])
    assert result["correct"], detail["checks"]
    assert result["failed"] == 0
    assert detail["digest"] == BASELINE["digests"][str(seed)][workload]
