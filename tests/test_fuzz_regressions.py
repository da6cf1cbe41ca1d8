"""Replay the checked-in fuzz corpus (tier-1 regression gate).

Every file in ``tests/fuzz_corpus/`` is a repro the fuzzer once shrank
from a real failure (or a hand-minimised equivalent verified to fire on
the pre-fix code).  Replaying them clean proves the fixes stayed fixed;
a reappearing violation names the exact invariant and op sequence.
"""

import json
from pathlib import Path

import pytest

from repro.check import ScenarioRunner
from repro.check.cli import load_repro
from repro.check.scenario import generate_scenario

pytestmark = [pytest.mark.tier1, pytest.mark.fuzz]

CORPUS = Path(__file__).parent / "fuzz_corpus"
#: Scenario repros only; ``cql_*.json`` is the frozen query-engine corpus
#: (replayed by ``tests/test_query_fuzz.py``).
CORPUS_FILES = sorted(
    p for p in CORPUS.glob("*.json") if not p.name.startswith("cql_")
)


def test_corpus_is_not_empty():
    assert CORPUS_FILES, "fuzz corpus directory is missing or empty"


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_replays_clean(path):
    scenario, recorded_invariant = load_repro(path)
    result = ScenarioRunner(scenario).run()
    assert result.violation is None, (
        f"{path.name}: invariant {result.violation.invariant!r} fired again "
        f"(originally {recorded_invariant!r}): {result.violation.message}"
    )


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_files_record_their_bug(path):
    """Each corpus file documents which invariant it used to violate."""
    payload = json.loads(path.read_text())
    assert payload["format"] == "repro.check/1"
    assert payload["violation"]["invariant"]
    assert payload["violation"]["message"]


# ----------------------------------------------------------------------
# Golden-trace determinism: the flight recorder must be invisible
# ----------------------------------------------------------------------

GOLDEN_SEEDS = 50
#: Fast subset replayed in tier-1; the full 50 run under -m slow.
GOLDEN_SEEDS_FAST = 6


def _run_with_tracing(seed: int, sample):
    """One fuzzer scenario with the runner's flight recorder at ``sample``,
    or off when ``sample`` is None.

    The runner enables in-memory, publish-free tracing at sample 0 by
    default, where every lineage is minted late, at a slow path or a
    drop; sample 1.0 mints one at every transmission instead.  Forcing
    the tracer off replays the exact pre-recorder world.  The digests
    must agree: sampling is a deterministic counter (no RNG draws) and
    drop lineages never touch hwdb insert counts.
    """
    scenario = generate_scenario(seed)
    runner = ScenarioRunner(scenario)
    if sample is None:
        runner.router.tracer.enabled = False
    else:
        runner.router.tracer.set_sample(sample)
    result = runner.run()
    return result.trace_hash, runner.sim.events_executed


def _assert_tracing_invisible(seed: int):
    plain_hash, plain_events = _run_with_tracing(seed, None)
    for sample in (0.0, 1.0):
        traced_hash, traced_events = _run_with_tracing(seed, sample)
        assert traced_hash == plain_hash, (
            f"seed {seed}: lineage tracing at sample {sample} changed the "
            f"trace hash ({traced_hash[:12]} != {plain_hash[:12]})"
        )
        assert traced_events == plain_events, (
            f"seed {seed}: events_executed diverged at sample {sample} "
            f"({traced_events} != {plain_events})"
        )


@pytest.mark.parametrize("seed", range(GOLDEN_SEEDS_FAST))
def test_golden_trace_tracing_invariant_fast(seed):
    _assert_tracing_invisible(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(GOLDEN_SEEDS_FAST, GOLDEN_SEEDS))
def test_golden_trace_tracing_invariant_full(seed):
    _assert_tracing_invisible(seed)


# ----------------------------------------------------------------------
# Golden-trace determinism: absolute hashes, pinned across builds
# ----------------------------------------------------------------------

#: ``(trace_hash, events_executed)`` per fuzzer seed, frozen from a
#: known-good build.  The invariance tests above compare two runs of one
#: build, so a change to the bytes the datapath forwards passes them;
#: these compare against the frozen values instead.
PINNED = Path(__file__).parent / "golden" / "fuzz_trace_hashes.json"


def _pinned_seeds():
    payload = json.loads(PINNED.read_text())
    assert payload["format"] == "repro.golden-traces/1"
    return {entry["seed"]: entry for entry in payload["seeds"]}


def _assert_pinned(seed: int):
    """Regenerate the file only for an intended change of behaviour::

        PYTHONPATH=src python -c "
        import json
        from repro.check import ScenarioRunner, generate_scenario
        rows = []
        for seed in range(50):
            runner = ScenarioRunner(generate_scenario(seed))
            result = runner.run()
            rows.append({'seed': seed, 'trace_hash': result.trace_hash,
                         'events_executed': runner.sim.events_executed})
        payload = {'format': 'repro.golden-traces/1', 'seeds': rows}
        with open('tests/golden/fuzz_trace_hashes.json', 'w') as fh:
            json.dump(payload, fh, indent=1)
            fh.write('\\n')
        "
    """
    pinned = _pinned_seeds()[seed]
    runner = ScenarioRunner(generate_scenario(seed))
    result = runner.run()
    assert result.violation is None, result.violation.message
    assert (result.trace_hash, runner.sim.events_executed) == (
        pinned["trace_hash"],
        pinned["events_executed"],
    ), f"seed {seed}: trace hash or event count moved from the pinned value"


def test_pinned_file_covers_every_golden_seed():
    assert sorted(_pinned_seeds()) == list(range(GOLDEN_SEEDS))


@pytest.mark.parametrize("seed", range(GOLDEN_SEEDS_FAST))
def test_golden_trace_pinned_fast(seed):
    _assert_pinned(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(GOLDEN_SEEDS_FAST, GOLDEN_SEEDS))
def test_golden_trace_pinned_full(seed):
    _assert_pinned(seed)
