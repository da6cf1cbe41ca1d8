"""repro-deepcheck: every deep rule family firing and silent, plus the
call-graph duck-attach resolution and the CLI surface around --deep."""

import json
from pathlib import Path

from repro.analysis import SourceFile, discover_files, run_rules
from repro.analysis.core import Violation, load_baseline, write_baseline
from repro.analysis.cli import main as lint_main
from repro.analysis.deep import DeepContext, build_callgraph
from repro.analysis.deep.dispatch import (
    DEFAULT_FAMILIES,
    DEFAULT_FLOWS,
    DispatchRule,
    FamilySpec,
    FlowSpec,
)
from repro.analysis.deep.exceptions import (
    DEFAULT_CONTRACTS,
    ExceptionContract,
    ExceptionFlowRule,
)
from repro.analysis.deep.snapshots import SnapshotParityRule
from repro.analysis.deep.taint import DEFAULT_SINK_FUNCTIONS, DeepTaintRule

FIXTURES = Path(__file__).parent / "analysis_fixtures" / "deep"
SRC_PACKAGE = Path(__file__).parent.parent / "src" / "repro"


def fixture(name: str, module: str) -> SourceFile:
    return SourceFile(module, name, (FIXTURES / name).read_text(encoding="utf-8"))


def findings(files, rules):
    if isinstance(files, SourceFile):
        files = [files]
    return [(v.rule, v.line) for v in run_rules(files, rules=rules)]


class TestCallGraph:
    def test_duck_attach_resolves_layer_inversion(self):
        # The lower layer never imports the upper one, which attaches
        # itself through a setter.  The graph must still type
        # Database._engine and resolve the execute() call through it.
        files = [
            fixture("duck_db.py", "repro.duck.duck_db"),
            fixture("duck_engine.py", "repro.duck.duck_engine"),
        ]
        graph = build_callgraph(files)
        db = graph.classes["repro.duck.duck_db.Database"]
        assert db.attr_types["_engine"] == "repro.duck.duck_engine.Engine"
        assert "repro.duck.duck_engine.Engine.execute" in graph.callees(
            "repro.duck.duck_db.Database.query"
        )

    def test_classmethod_constructor_types_the_class(self):
        text = (
            "class Msg:\n"
            "    @classmethod\n"
            "    def make(cls):\n"
            "        return cls()\n"
            "\n"
            "def build():\n"
            "    m = Msg.make()\n"
            "    return m\n"
        )
        graph = build_callgraph([SourceFile("repro.duck.msgs", "msgs.py", text)])
        fn = graph.functions["repro.duck.msgs.build"]
        assert graph.env_of(fn)["m"] == "repro.duck.msgs.Msg"

    def test_stats_shape(self):
        graph = build_callgraph([fixture("duck_db.py", "repro.duck.duck_db")])
        stats = graph.stats()
        assert stats["modules"] == 1
        assert stats["classes"] == 1
        assert stats["functions"] == 3


class TestDeepTaint:
    def test_flags_clock_into_snapshot_and_hash(self):
        source = fixture("taint_bad.py", "repro.deepfix.taint_bad")
        got = findings(source, [DeepTaintRule(DeepContext())])
        # Tainted self.started returned from the to_snapshot sink, and
        # the wall clock hashed into the trace digest.
        assert ("deep-taint", 13) in got
        assert ("deep-taint", 18) in got

    def test_sanitized_values_are_clean(self):
        source = fixture("taint_ok.py", "repro.deepfix.taint_ok")
        assert findings(source, [DeepTaintRule(DeepContext())]) == []


class TestExceptionFlow:
    CONTRACTS = (
        ExceptionContract(
            "repro.deepfix.mod.handle", ("repro.deepfix.mod.BoundaryError",)
        ),
    )

    def rule(self):
        return ExceptionFlowRule(DeepContext(), contracts=self.CONTRACTS)

    def test_flags_escape_and_dead_arm(self):
        source = fixture("except_bad.py", "repro.deepfix.mod")
        got = findings(source, [self.rule()])
        assert ("deep-except-escape", 18) in got  # WireError leaks from handle
        assert ("deep-except-dead", 28) in got  # BoundaryError arm never fires

    def test_wrapped_boundary_is_clean(self):
        source = fixture("except_ok.py", "repro.deepfix.mod")
        assert findings(source, [self.rule()]) == []


class TestDispatch:
    MOD_BAD = "repro.deepfix.dispatch_bad"
    MOD_OK = "repro.deepfix.dispatch_ok"

    def rule(self, module):
        return DispatchRule(
            DeepContext(),
            families=[
                FamilySpec(
                    name="node",
                    member_module=module,
                    base=f"{module}.Node",
                    surfaces=(f"{module}.render",),
                    producers=(module,),
                )
            ],
            flows=[
                FlowSpec(
                    name="bus",
                    member_module=module,
                    base=f"{module}.Message",
                    senders=(f"{module}.Bus.send",),
                    surfaces=(f"{module}.server",),
                )
            ],
        )

    def test_flags_missing_orphan_and_unproduced(self):
        source = fixture("dispatch_bad.py", self.MOD_BAD)
        got = findings(source, [self.rule(self.MOD_BAD)])
        assert ("deep-dispatch", 32) in got  # render misses Pair and Extra
        assert ("deep-dispatch-orphan", 20) in got  # Extra never produced
        assert ("deep-dispatch", 69) in got  # server misses sent Probe
        assert ("deep-dispatch-orphan", 72) in got  # Pong arm, never sent

    def test_complete_dispatch_is_clean(self):
        source = fixture("dispatch_ok.py", self.MOD_OK)
        assert findings(source, [self.rule(self.MOD_OK)]) == []


class TestSnapshotParity:
    def test_flags_every_break_in_the_round_trip(self):
        source = fixture("snapshot_bad.py", "repro.deepfix.snap")
        got = findings(source, [SnapshotParityRule(DeepContext())])
        assert ("deep-snapshot", 7) in got  # self.errors never serialized
        assert ("deep-snapshot", 10) in got  # 'spare' written, never read
        assert ("deep-snapshot", 16) in got  # 'missing' read, never written
        assert ("deep-snapshot", 21) in got  # 'stamp' never restored
        assert len(got) == 4

    def test_symmetric_round_trip_is_clean(self):
        source = fixture("snapshot_ok.py", "repro.deepfix.snap")
        assert findings(source, [SnapshotParityRule(DeepContext())]) == []


class TestSourceTreeIsClean:
    def test_deep_rules_find_nothing_in_src(self):
        # The acceptance gate: the real tree carries no deep findings
        # (pragmas in it must each carry a justification comment).
        exit_code = lint_main([str(SRC_PACKAGE), "--deep", "--no-baseline"])
        assert exit_code == 0

    def test_default_tables_name_code_that_exists(self):
        # The rules skip a table entry whose function or module is absent
        # (so fixtures can bring their own), which would let a rename in
        # src/ drop a sink or a contract without a word.
        graph = build_callgraph(discover_files(SRC_PACKAGE))
        functions = set(DEFAULT_SINK_FUNCTIONS)
        functions.update(contract.function for contract in DEFAULT_CONTRACTS)
        modules = set()
        classes = set()
        for family in DEFAULT_FAMILIES:
            functions.update(family.surfaces)
            modules.update(family.producers)
            modules.add(family.member_module)
            classes.update(family.members)
            if family.base is not None:
                classes.add(family.base)
        for flow in DEFAULT_FLOWS:
            functions.update(flow.senders)
            functions.update(flow.surfaces)
            modules.add(flow.member_module)
            classes.add(flow.base)
        assert sorted(functions - set(graph.functions)) == []
        assert sorted(modules - set(graph.modules)) == []
        assert sorted(classes - set(graph.classes)) == []


class TestCli:
    def test_select_deep_id_enables_deep_rules(self, tmp_path, capsys):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "snap.py").write_text(
            "def snapshot_state(state):\n"
            "    return {'rows': list(state), 'stamp': 7}\n"
            "\n"
            "def restore_state(snap):\n"
            "    return list(snap['rows'])\n"
        )
        code = lint_main([str(pkg), "--select", "deep-snapshot", "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "deep-snapshot" in out

    def test_crash_exits_2_not_1(self, tmp_path, capsys):
        pkg = tmp_path / "broken"
        pkg.mkdir()
        (pkg / "bad.py").write_text("def broken(:\n")
        code = lint_main([str(pkg), "--no-baseline"])
        assert code == 2
        assert "crashed" in capsys.readouterr().out

    def test_missing_dir_still_exits_2(self, tmp_path, capsys):
        code = lint_main([str(tmp_path / "nope"), "--no-baseline"])
        assert code == 2

    def test_deep_json_includes_callgraph_stats(self, capsys):
        code = lint_main([str(SRC_PACKAGE), "--deep-json", "--no-baseline"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["callgraph"]["modules"] > 100
        assert payload["callgraph"]["functions"] > 1000

    def test_write_baseline_merges_other_rules_entries(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        old = [
            Violation(path="a.py", line=1, col=1, rule="clock", message="m"),
            Violation(path="a.py", line=2, col=1, rule="deep-taint", message="m"),
        ]
        write_baseline(baseline, old)
        # A deep-only rerun must refresh deep-* entries without touching
        # the shallow rules' keys...
        merged = write_baseline(baseline, [], ran_rule_ids=["deep-taint"])
        assert merged == {"a.py::clock": 1}
        assert load_baseline(baseline) == {"a.py::clock": 1}
        # ...and without ran_rule_ids the file is replaced outright.
        write_baseline(baseline, [])
        assert load_baseline(baseline) == {}

    def test_list_rules_includes_deep_families(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("deep-taint", "deep-except-escape", "deep-dispatch", "deep-snapshot"):
            assert rule_id in out
