"""Crash-recovery determinism: seeded workloads, kill points, torn tails.

The contract under test (repro.store.recover):

* a crash image taken after ``store.flush()`` recovers to digest-equal
  tables — byte-for-byte the rows the live database held;
* a crash at ANY byte of the WAL (the kill-point sweep) recovers to a
  consistent prefix without raising — rows may be lost, never invented
  and never half-applied;
* recovery is deterministic: recovering the same image twice produces
  identical digests;
* the fuzzer's ``hwdb_crash`` op exercises the same path end-to-end
  inside full router scenarios.
"""

import random
import shutil

import pytest

from repro.check import ScenarioRunner, generate_scenario
from repro.check import runner as runner_module
from repro.check.faults import TORN_MODES, inject_torn_tail
from repro.core.clock import SimulatedClock
from repro.hwdb.database import HomeworkDatabase
from repro.hwdb.snapshot import database_digests
from repro.store import DurableStore, recover_store
from repro.store.archive import WAL_NAME
from repro.store.wal import MAGIC

pytestmark = pytest.mark.tier1

SCHEMAS = {
    "flows": [("device", "varchar"), ("bytes", "integer")],
    "leases": [("mac", "varchar"), ("ip", "varchar"), ("expiry", "float")],
}


def build_workload(seed, root):
    """A randomized two-table workload driven entirely by ``seed``."""
    rng = random.Random(seed)
    clock = SimulatedClock()
    db = HomeworkDatabase(clock)
    for name, schema in SCHEMAS.items():
        db.create_table(name, schema, rng.choice((4, 8, 16)))
    store = DurableStore(
        root,
        clock,
        flush_interval=rng.choice((0.1, 0.5, 2.0)),
        group_records=rng.choice((2, 8, 32)),
        segment_rows=rng.choice((4, 16, 64)),
    )
    store.attach(db)
    for step in range(rng.randrange(80, 400)):
        clock.advance(rng.uniform(0.01, 0.5))
        roll = rng.random()
        if roll < 0.93:
            name = rng.choice(list(SCHEMAS))
            values = [
                f"v{rng.randrange(100)}" if col_type == "varchar" else rng.randrange(10**6)
                for _col, col_type in SCHEMAS[name]
            ]
            db.insert(name, values)
        elif roll < 0.96:
            db.table(rng.choice(list(SCHEMAS))).clear()
        else:
            store.flush()
    return clock, db, store


def recover_image(image):
    scratch = HomeworkDatabase(SimulatedClock())
    recovered = recover_store(image, scratch)
    return scratch, recovered


@pytest.mark.parametrize("seed", range(12))
def test_flushed_image_recovers_digest_equal(tmp_path, seed):
    _clock, db, store = build_workload(seed, str(tmp_path / "live"))
    store.flush()
    image = tmp_path / "crash"
    shutil.copytree(store.root, image)
    live = database_digests(db)

    scratch, recovered = recover_image(image)
    rebuilt = database_digests(scratch)
    assert rebuilt == {name: live[name] for name in rebuilt}
    assert set(rebuilt) == set(store.tiers)
    assert not recovered.torn
    recovered.store.close()
    store.close()


@pytest.mark.parametrize("seed", range(12, 18))
def test_recovery_is_deterministic(tmp_path, seed):
    """Same image, two recoveries, identical digests and audits."""
    _clock, _db, store = build_workload(seed, str(tmp_path / "live"))
    store.flush()
    first = tmp_path / "a"
    second = tmp_path / "b"
    shutil.copytree(store.root, first)
    shutil.copytree(store.root, second)
    store.close()

    db_a, rec_a = recover_image(first)
    db_b, rec_b = recover_image(second)
    assert database_digests(db_a) == database_digests(db_b)
    assert rec_a.summary() == rec_b.summary()
    rec_a.store.close()
    rec_b.store.close()


def test_kill_point_sweep_never_invents_rows(tmp_path):
    """Truncate the WAL at 40 evenly spread byte offsets: every prefix
    must recover cleanly to at most the live row counts."""
    _clock, db, store = build_workload(99, str(tmp_path / "live"))
    store.flush()
    live_totals = {name: db.table(name).total_inserted for name in store.tiers}
    wal_bytes = (store.root / WAL_NAME).read_bytes()
    base = tmp_path / "base"
    shutil.copytree(store.root, base)
    store.close()
    assert len(wal_bytes) > len(MAGIC) + 40

    for cut in range(len(MAGIC), len(wal_bytes), max(1, len(wal_bytes) // 40)):
        image = tmp_path / f"kill{cut}"
        shutil.copytree(base, image)
        (image / WAL_NAME).write_bytes(wal_bytes[:cut])
        scratch, recovered = recover_image(image)
        for name, live_total in live_totals.items():
            rebuilt_total = scratch.table(name).total_inserted
            assert rebuilt_total <= live_total, f"cut={cut} table={name}"
        # Recovery heals the store: a second pass sees a clean log.
        recovered.store.close()
        scratch2, recovered2 = recover_image(image)
        assert not recovered2.torn
        assert database_digests(scratch2) == database_digests(scratch)
        recovered2.store.close()
        shutil.rmtree(image)


@pytest.mark.parametrize("mode", TORN_MODES)
@pytest.mark.parametrize("amount", [1, 5, 17])
def test_torn_tail_recovers_consistent_prefix(tmp_path, mode, amount):
    _clock, db, store = build_workload(7, str(tmp_path / "live"))
    store.flush()
    live_totals = {name: db.table(name).total_inserted for name in store.tiers}
    image = tmp_path / "crash"
    shutil.copytree(store.root, image)
    store.close()

    assert inject_torn_tail(str(image / WAL_NAME), mode=mode, amount=amount)
    scratch, recovered = recover_image(image)
    for name, live_total in live_totals.items():
        assert scratch.table(name).total_inserted <= live_total
    recovered.store.close()


def test_unflushed_suffix_is_the_only_loss(tmp_path):
    """Crash without a final flush: only rows after the last group
    commit may be missing, and everything sealed survives."""
    _clock, db, store = build_workload(41, str(tmp_path / "live"))
    # No explicit flush: the image holds whatever group commits landed.
    image = tmp_path / "crash"
    shutil.copytree(store.root, image)
    sealed = {name: tier.sealed_through for name, tier in store.tiers.items()}
    totals = {name: db.table(name).total_inserted for name in store.tiers}
    store.close()

    scratch, recovered = recover_image(image)
    for name in sealed:
        rebuilt = scratch.table(name).total_inserted
        assert sealed[name] <= rebuilt <= totals[name]
    recovered.store.close()


def test_clear_marker_survives_crash(tmp_path):
    clock = SimulatedClock()
    db = HomeworkDatabase(clock)
    db.create_table("flows", SCHEMAS["flows"], 4)
    store = DurableStore(str(tmp_path / "live"), clock, segment_rows=100)
    store.attach(db)
    for i in range(6):
        clock.advance(1.0)
        db.insert("flows", (f"d{i}", i))
    db.table("flows").clear()
    store.flush()
    image = tmp_path / "crash"
    shutil.copytree(store.root, image)
    store.close()

    scratch, recovered = recover_image(image)
    table = scratch.table("flows")
    assert len(table) == 0
    assert table.total_inserted == 6
    tier = recovered.store.tier("flows")
    accounted = (
        tier.sealed_rows + len(tier.pending) + tier.discarded + tier.expired_rows
    )
    assert accounted == table.overwritten
    recovered.store.close()


class TestFuzzerIntegration:
    """The hwdb_crash op drives this same machinery inside full scenarios."""

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_durable_scenarios_run_clean(self, seed):
        scenario = generate_scenario(seed=seed, max_ops=25, durable_store=True)
        assert scenario.config["durable_store"] is True
        assert any(op.kind == "hwdb_crash" for op in scenario.ops)
        result = ScenarioRunner(scenario).run()
        assert result.violation is None, result.violation

    def test_diverging_recovery_is_pinned_to_the_crash_op(self, monkeypatch):
        scenario = generate_scenario(seed=1, max_ops=25, durable_store=True)
        crash = next(
            i for i, op in enumerate(scenario.ops) if op.kind == "hwdb_crash"
        )
        real_recover = runner_module.recover_store

        def inventing_recover(root, db):
            recovered = real_recover(root, db)
            for name in db.tables():
                db.table(name).total_inserted += 10**6
            return recovered

        monkeypatch.setattr(runner_module, "recover_store", inventing_recover)
        result = ScenarioRunner(scenario).run()
        assert result.violation.invariant == "store-recover-digest"
        assert result.violation.op_index == crash
        # The scenario line, ops 0..crash, then the seal; no tail.
        assert len(result.trace) == crash + 3
        assert result.trace[crash + 1].startswith(f"{crash} t=")
        assert " hwdb_crash violation " in result.trace[crash + 1]
        assert result.trace[-1].startswith("end t=")

    def test_durable_flag_leaves_base_scenario_untouched(self):
        base = generate_scenario(seed=3, max_ops=20).to_json()
        again = generate_scenario(seed=3, max_ops=20, durable_store=False).to_json()
        assert base == again

    def test_durable_scenarios_are_deterministic(self):
        a = generate_scenario(seed=4, max_ops=20, durable_store=True)
        b = generate_scenario(seed=4, max_ops=20, durable_store=True)
        assert a.to_json() == b.to_json()
        assert ScenarioRunner(a).run().trace_hash == ScenarioRunner(b).run().trace_hash
