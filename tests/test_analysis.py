"""repro-lint: every rule family exercised both ways, plus the CLI gate."""

from pathlib import Path

from repro.analysis import SourceFile, default_rules, discover_files, run_rules
from repro.analysis.core import Violation, diff_baseline, load_baseline, write_baseline
from repro.analysis.cli import main as lint_main
from repro.analysis.layers import layer_of

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC_PACKAGE = Path(__file__).parent.parent / "src" / "repro"


def fixture(name: str, module: str) -> SourceFile:
    """Wrap a fixture snippet as a SourceFile under a chosen module name."""
    return SourceFile(module, name, (FIXTURES / name).read_text(encoding="utf-8"))


def findings(files, rule_ids):
    """(rule, line) pairs for the given ids, in report order."""
    if isinstance(files, SourceFile):
        files = [files]
    return [
        (v.rule, v.line)
        for v in run_rules(files)
        if v.rule in rule_ids
    ]


class TestClockRule:
    def test_flags_every_bypass(self):
        source = fixture("clock_bad.py", "repro.services.sample")
        assert findings(source, {"clock"}) == [
            ("clock", 6),   # from time import perf_counter
            ("clock", 10),  # time.time()
            ("clock", 11),  # time.monotonic()
            ("clock", 12),  # dt.now()
            ("clock", 13),  # datetime.datetime.now()
        ]

    def test_injected_clock_is_clean(self):
        source = fixture("clock_ok.py", "repro.services.sample")
        assert findings(source, {"clock"}) == []

    def test_allowlisted_module_is_exempt(self):
        # The same offending text raises nothing inside the allowlist.
        text = (FIXTURES / "clock_bad.py").read_text(encoding="utf-8")
        source = SourceFile("repro.core.metrics", "clock_bad.py", text)
        assert findings(source, {"clock"}) == []


class TestParserRule:
    def test_flags_unguarded_reads(self):
        source = fixture("parser_bad.py", "repro.net.sample")
        assert findings(source, {"parser-bounds"}) == [
            ("parser-bounds", 7),  # data[0] index
            ("parser-bounds", 8),  # int.from_bytes(data[0:2], ...)
            ("parser-bounds", 9),  # struct.unpack("!HH", data)
            ("parser-bounds", 14),  # buf[12] store into a bytearray
        ]

    def test_guarded_and_pure_slices_are_clean(self):
        source = fixture("parser_ok.py", "repro.net.sample_ok")
        assert findings(source, {"parser-bounds"}) == []

    def test_rule_is_scoped_to_repro_net(self):
        source = fixture("parser_bad.py", "repro.hwdb.sample")
        assert findings(source, {"parser-bounds"}) == []


class TestHygieneRules:
    def test_flags_silent_handlers_and_print(self):
        source = fixture("hygiene_bad.py", "repro.services.sample")
        assert findings(source, {"except-swallow", "print-call"}) == [
            ("except-swallow", 7),   # bare except:
            ("except-swallow", 11),  # except Exception: pass
            ("print-call", 13),
        ]

    def test_observable_handlers_are_clean(self):
        source = fixture("hygiene_ok.py", "repro.services.sample")
        assert findings(source, {"except-swallow", "print-call"}) == []


class TestFileWriteRule:
    def test_flags_create_truncate_append(self):
        source = fixture("fswrite_bad.py", "repro.services.sample")
        assert findings(source, {"fs-write"}) == [
            ("fs-write", 5),   # open(path, "w")
            ("fs-write", 8),   # open(path, mode="ab")
            ("fs-write", 11),  # open(path, "x", ...)
        ]

    def test_reads_and_inplace_patching_are_clean(self):
        source = fixture("fswrite_ok.py", "repro.services.sample")
        assert findings(source, {"fs-write"}) == []

    def test_storage_layer_is_exempt(self):
        text = (FIXTURES / "fswrite_bad.py").read_text(encoding="utf-8")
        for module in ("repro.store.wal", "repro.hwdb.persist", "repro.bench.cli"):
            source = SourceFile(module, "fswrite_bad.py", text)
            assert findings(source, {"fs-write"}) == []


class TestMetricNameRule:
    def test_flags_bad_names_and_kind_conflicts(self):
        source = fixture("metrics_bad.py", "repro.services.sample")
        assert findings(source, {"metric-name", "metric-kind"}) == [
            ("metric-name", 5),  # "FlowsTotal"
            ("metric-name", 6),  # "hosts" (no namespace)
            ("metric-kind", 8),  # counter vs histogram for dhcp.lease_seconds
            ("metric-name", 8),  # counter "dhcp.lease_seconds" lacks _total
            ("metric-name", 9),  # span "Handle-Packet"
        ]

    def test_convention_names_are_clean(self):
        source = fixture("metrics_ok.py", "repro.services.sample")
        assert findings(source, {"metric-name", "metric-kind"}) == []


class TestTraceEventRule:
    def test_flags_unregistered_components_and_kebab_verbs(self):
        source = fixture("trace_bad.py", "repro.services.sample")
        assert findings(source, {"trace-event"}) == [
            ("trace-event", 5),  # component "firewall" not registered
            ("trace-event", 6),  # verb "cache-hit" is kebab-case
            ("trace-event", 7),  # component "Uplink" not registered
        ]

    def test_registered_literals_and_dynamic_calls_are_clean(self):
        source = fixture("trace_ok.py", "repro.services.sample")
        assert findings(source, {"trace-event"}) == []


class TestLayeringRule:
    def test_layer_table_longest_prefix(self):
        assert layer_of("repro.core.clock") == 0
        assert layer_of("repro.core.router") == 11
        assert layer_of("repro.net.udp") == 1
        assert layer_of("repro.household") == 11
        assert layer_of("repro.query.engine") == 3
        assert layer_of("repro.store.wal") == 4

    def test_upward_imports_flagged_type_checking_exempt(self):
        source = fixture("layering_low.py", "repro.net.fixture_low")
        # Line 5: module-level import of nox (layer 5 > 1).
        # Line 12: lazy import of sim (layer 10 > 1) — lazy still counts.
        # Line 8 (TYPE_CHECKING import of ui) is exempt.
        assert findings(source, {"layering", "layering-cycle"}) == [
            ("layering", 5),
            ("layering", 12),
        ]

    def test_module_cycle_detected(self):
        files = [
            fixture("layering_cycle_a.py", "repro.hwdb.cycle_a"),
            fixture("layering_cycle_b.py", "repro.hwdb.cycle_b"),
        ]
        result = [v for v in run_rules(files) if v.rule == "layering-cycle"]
        assert len(result) == 1
        assert "repro.hwdb.cycle_a -> repro.hwdb.cycle_b" in result[0].message

    def test_lazy_import_breaks_the_cycle(self):
        lazy_half = SourceFile(
            "repro.hwdb.cycle_a",
            "layering_cycle_a_lazy.py",
            "def use():\n    from repro.hwdb.cycle_b import B\n    return B\n",
        )
        files = [lazy_half, fixture("layering_cycle_b.py", "repro.hwdb.cycle_b")]
        assert [v for v in run_rules(files) if v.rule == "layering-cycle"] == []


class TestPragmas:
    def test_rule_and_star_pragmas_suppress_only_their_line(self):
        source = fixture("pragma.py", "repro.services.sample")
        assert findings(source, {"clock"}) == [("clock", 9)]


class TestBaseline:
    def make(self, rule, line, path="src/repro/x.py"):
        return Violation(path=path, line=line, col=1, rule=rule, message="m")

    def test_counts_gate_new_findings_only(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, [self.make("clock", 10), self.make("clock", 20)])
        baseline = load_baseline(baseline_file)
        assert baseline == {"src/repro/x.py::clock": 2}

        # Same count, different lines: still baselined (line drift is free).
        diff = diff_baseline([self.make("clock", 11), self.make("clock", 99)], baseline)
        assert diff.new == [] and len(diff.baselined) == 2 and diff.fixed_keys == []

        # One extra finding under the same key: the excess is new.
        diff = diff_baseline(
            [self.make("clock", 1), self.make("clock", 2), self.make("clock", 3)],
            baseline,
        )
        assert len(diff.new) == 1 and len(diff.baselined) == 2

        # Fewer findings than allowed: the key is reported fixed.
        diff = diff_baseline([self.make("clock", 1)], baseline)
        assert diff.new == [] and diff.fixed_keys == ["src/repro/x.py::clock"]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}


class TestCLI:
    def test_src_tree_is_clean_and_fast(self, capsys):
        # The committed tree must lint clean even without the baseline,
        # and a full run must stay under the 5-second budget.
        exit_code = lint_main([str(SRC_PACKAGE), "--no-baseline"])
        out = capsys.readouterr().out
        assert exit_code == 0
        summary = [line for line in out.splitlines() if line.startswith("repro-lint:")][0]
        elapsed = float(summary.rsplit(" in ", 1)[1].rstrip("s"))
        assert elapsed < 5.0

    def test_new_violation_fails_the_gate(self, tmp_path, capsys):
        pkg = tmp_path / "badpkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "noisy.py").write_text('print("hello")\n')
        exit_code = lint_main([str(pkg), "--no-baseline"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "noisy.py:1:1: print-call" in out

    def test_baseline_tolerates_then_burns_down(self, tmp_path, capsys):
        pkg = tmp_path / "badpkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        noisy = pkg / "noisy.py"
        noisy.write_text('print("hello")\n')
        baseline = tmp_path / "baseline.json"

        assert lint_main([str(pkg), "--baseline", str(baseline), "--write-baseline"]) == 0
        assert lint_main([str(pkg), "--baseline", str(baseline)]) == 0

        # A second print() is a *new* finding on top of the baseline.
        noisy.write_text('print("hello")\nprint("again")\n')
        assert lint_main([str(pkg), "--baseline", str(baseline)]) == 1

        # Fixing both leaves a stale baseline: exit 0, but say so.
        noisy.write_text("")
        assert lint_main([str(pkg), "--baseline", str(baseline)]) == 0
        assert "baseline is stale" in capsys.readouterr().out

    def test_select_runs_only_named_rules(self, tmp_path, capsys):
        pkg = tmp_path / "badpkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "noisy.py").write_text('import time\nprint(time.time())\n')
        exit_code = lint_main([str(pkg), "--no-baseline", "--select", "clock"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "clock" in out and "print-call" not in out

    def test_json_output(self, tmp_path, capsys):
        import json

        pkg = tmp_path / "badpkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "noisy.py").write_text('print("hello")\n')
        exit_code = lint_main([str(pkg), "--no-baseline", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["violations"][0]["rule"] == "print-call"
        (key, count), = payload["counts"].items()
        assert key.endswith("badpkg/noisy.py::print-call") and count == 1

    def test_list_rules_covers_all_ids(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in default_rules():
            for rule_id in rule.ids:
                assert rule_id in out


class TestDiscovery:
    def test_module_names_and_display_paths(self):
        files = discover_files(SRC_PACKAGE)
        by_module = {f.module: f for f in files}
        assert "repro" in by_module  # package __init__
        assert by_module["repro"].path == "src/repro/__init__.py"
        assert "repro.net.udp" in by_module
        assert by_module["repro.analysis.core"].path == "src/repro/analysis/core.py"
