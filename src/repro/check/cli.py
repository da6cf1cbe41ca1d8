"""``python -m repro fuzz`` — drive the scenario fuzzer from the CLI.

Modes::

    python -m repro fuzz --seed 1 --scenarios 100   # a corpus sweep
    python -m repro fuzz --seed 7 --hash-only       # just the trace hash
    python -m repro fuzz --replay repro.json        # re-run a repro file
    python -m repro fuzz --cql-queries 500          # engine vs reference CQL diff

A corpus sweep runs ``--scenarios`` seeds starting at ``--seed``; every
invariant violation is shrunk to a minimal scenario and written as a
replayable JSON repro file under ``--repro-dir``.  Exit status is the
number of violating seeds capped at 1 — clean corpus exits 0.

Replay mode loads a repro file and reruns it: exit 1 if the recorded
invariant still fires (the bug reproduces), 0 if the run is now clean
(the bug is fixed — which is what the regression suite asserts).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Dict, Optional

from .runner import RunResult, ScenarioRunner
from .scenario import Scenario, generate_scenario
from .shrink import shrink_scenario

logger = logging.getLogger("repro.cli.fuzz")
say = logger.info


def write_repro(path: Path, result: RunResult) -> None:
    """Persist a violating run as a standalone replayable file."""
    assert result.violation is not None
    payload: Dict[str, object] = {
        "format": "repro.check/1",
        "scenario": result.scenario.to_dict(),
        "violation": result.violation.to_dict(),
        "trace_hash": result.trace_hash,
        # Flight-recorder lineages of recently dropped/denied packets —
        # the causal chains in play when the invariant fired.
        "lineage": result.lineage,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_repro(path: Path) -> tuple:
    """Load ``(scenario, expected_invariant)`` from a repro file."""
    payload = json.loads(path.read_text())
    scenario = Scenario.from_dict(payload["scenario"])
    violation = payload.get("violation") or {}
    return scenario, violation.get("invariant")


def replay(path: Path) -> int:
    scenario, expected = load_repro(path)
    result = ScenarioRunner(scenario).run()
    if result.violation is None:
        say(
            "replay %s: clean (recorded invariant %s no longer fires) hash=%s",
            path,
            expected,
            result.trace_hash,
        )
        return 0
    say(
        "replay %s: REPRODUCED %s at op %d t=%.3f: %s",
        path,
        result.violation.invariant,
        result.violation.op_index,
        result.violation.t,
        result.violation.message,
    )
    return 1


def fuzz_corpus(
    base_seed: int,
    scenarios: int,
    max_ops: int,
    duration: float,
    repro_dir: Path,
    hash_only: bool = False,
    shrink_budget: Optional[int] = None,
    durable_store: bool = False,
) -> int:
    failures = 0
    for offset in range(scenarios):
        seed = base_seed + offset
        scenario = generate_scenario(
            seed, max_ops=max_ops, duration=duration, durable_store=durable_store
        )
        result = ScenarioRunner(scenario).run()
        if hash_only:
            say("seed=%d hash=%s", seed, result.trace_hash)
            continue
        if result.violation is None:
            say(
                "seed=%d ok ops=%d events=%d hash=%s",
                seed,
                len(scenario.ops),
                result.events,
                result.trace_hash,
            )
            continue
        failures += 1
        violation = result.violation
        say(
            "seed=%d VIOLATION %s at op %d t=%.3f: %s",
            seed,
            violation.invariant,
            violation.op_index,
            violation.t,
            violation.message,
        )
        kwargs = {} if shrink_budget is None else {"max_runs": shrink_budget}
        shrunk = shrink_scenario(scenario, violation.invariant, **kwargs)
        path = repro_dir / f"repro-seed{seed}-{violation.invariant}.json"
        write_repro(path, shrunk.result)
        say(
            "  shrunk %d -> %d ops in %d runs; wrote %s",
            len(scenario.ops),
            len(shrunk.scenario.ops),
            shrunk.runs,
            path,
        )
    if not hash_only:
        say(
            "fuzz: %d/%d scenarios clean",
            scenarios - failures,
            scenarios,
        )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Deterministic scenario fuzzing with invariant checking",
    )
    parser.add_argument("--seed", type=int, default=1, help="first scenario seed")
    parser.add_argument(
        "--scenarios", type=int, default=20, help="how many consecutive seeds to run"
    )
    parser.add_argument(
        "--ops", type=int, default=40, help="operations per generated scenario"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=300.0,
        help="simulated seconds per scenario (plus a quiet tail)",
    )
    parser.add_argument(
        "--repro-dir",
        type=Path,
        default=Path("fuzz-repros"),
        help="where shrunken repro files are written",
    )
    parser.add_argument(
        "--replay", type=Path, default=None, help="re-run one repro file and exit"
    )
    parser.add_argument(
        "--hash-only",
        action="store_true",
        help="print only seed/trace-hash lines (determinism checks)",
    )
    parser.add_argument(
        "--shrink-budget",
        type=int,
        default=None,
        help="max scenario re-runs spent shrinking each failure",
    )
    parser.add_argument(
        "--durable-store",
        action="store_true",
        help="give every household a durable hwdb tier and mix in "
        "hwdb_crash ops (simulated power cuts, torn WAL tails)",
    )
    parser.add_argument(
        "--cql-queries",
        type=int,
        default=None,
        help="run N differential CQL queries (query engine vs reference "
        "executor) instead of scenario fuzzing",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    from ..core.logging_setup import configure_logging

    configure_logging(verbose=args.verbose)

    if args.cql_queries is not None:
        from .cql_fuzz import fuzz_cql

        return fuzz_cql(args.cql_queries, args.seed, say=say)
    if args.replay is not None:
        return replay(args.replay)
    return fuzz_corpus(
        args.seed,
        args.scenarios,
        args.ops,
        args.duration,
        args.repro_dir,
        hash_only=args.hash_only,
        shrink_budget=args.shrink_budget,
        durable_store=args.durable_store,
    )


if __name__ == "__main__":  # pragma: no cover - direct invocation
    sys.exit(main())
