"""``python -m repro lint`` — run the repo-specific rules, gate on the baseline.

Exit status: 0 when there are no findings beyond the committed baseline,
1 when new findings exist (CI fails), 2 on usage errors or tool crashes
(so CI can tell "the code has findings" from "the linter fell over").

``--deep`` adds the interprocedural pass (:mod:`repro.analysis.deep`):
whole-program call graph + dataflow behind the deep-* rule families.
Selecting any ``deep-*`` id via ``--select`` enables it implicitly; an
id that no rule has is a usage error, since it would select nothing.

Output is one ``path:line:col: rule message`` line per finding (or a JSON
document with ``--json`` for tooling).  The tool writes to stdout via
``sys.stdout`` directly: it *is* a CLI, but it is also library code under
``src/`` where the print rule applies — and lint tools get no exemptions
from their own rules.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .core import (
    Rule,
    default_rules,
    diff_baseline,
    discover_files,
    load_baseline,
    run_rules,
    violation_counts,
    write_baseline,
)

#: src/repro/analysis/cli.py -> repro package dir, src/, repo root.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]
REPO_ROOT = PACKAGE_ROOT.parents[1]
DEFAULT_BASELINE = "lint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="repro-lint: AST-based architecture, determinism and parser-safety checks",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="package directories to lint (default: the installed repro package)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable JSON output")
    parser.add_argument(
        "--deep",
        action="store_true",
        help="also run the interprocedural deep-* rule families",
    )
    parser.add_argument(
        "--deep-json",
        action="store_true",
        help="implies --deep --json and adds call-graph stats to the payload",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: <repo>/{DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report and fail on every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _list_rules(shallow: Sequence[Rule], deep: Sequence[Rule]) -> None:
    for rule in shallow:
        _emit(f"{', '.join(rule.ids):<28} {rule.description}")
    for rule in deep:
        _emit(f"{', '.join(rule.ids):<28} [deep] {rule.description}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    from .deep import DeepContext, deep_rules

    shallow, deep = default_rules(), deep_rules()
    if args.list_rules:
        _list_rules(shallow, deep)
        return 0

    select = None
    if args.select:
        select = {part.strip() for part in args.select.split(",") if part.strip()}
        unknown = sorted(select - {i for rule in shallow + deep for i in rule.ids})
        if unknown:
            _emit(f"error: unknown rule id(s) in --select: {', '.join(unknown)}")
            _emit("known rules:")
            _list_rules(shallow, deep)
            return 2
    want_json = args.json or args.deep_json
    want_deep = (
        args.deep
        or args.deep_json
        or bool(select and any(part.startswith("deep-") for part in select))
    )

    started = time.monotonic()  # repro: ignore[clock] - CLI wall-time report
    roots = [Path(p) for p in args.paths] if args.paths else [PACKAGE_ROOT]
    for root in roots:
        if not root.is_dir():
            _emit(f"error: not a directory: {root}")
            return 2

    try:
        files = []
        for root in roots:
            files.extend(discover_files(root))

        rules = list(shallow)
        context = None
        if want_deep:
            context = DeepContext()
            rules.extend(deep_rules(context))
        violations = run_rules(files, rules=rules, select=select)
    except Exception as exc:  # repro: ignore[except-swallow] - reported, exits 2
        _emit(f"error: repro-lint crashed: {type(exc).__name__}: {exc}")
        return 2

    ran_ids = [i for rule in rules for i in rule.ids if select is None or i in select]
    baseline_path = Path(args.baseline) if args.baseline else REPO_ROOT / DEFAULT_BASELINE
    if args.write_baseline:
        counts = write_baseline(baseline_path, violations, ran_rule_ids=ran_ids)
        _emit(
            f"wrote baseline with {len(violations)} finding(s) "
            f"({len(counts)} key(s)) to {baseline_path}"
        )
        return 0

    baseline = {} if args.no_baseline else load_baseline(baseline_path)
    diff = diff_baseline(violations, baseline)
    elapsed = time.monotonic() - started  # repro: ignore[clock] - CLI wall-time report

    if want_json:
        payload = {
            "files": len(files),
            "elapsed_seconds": round(elapsed, 3),
            "violations": [v.to_dict() for v in violations],
            "new": [v.to_dict() for v in diff.new],
            "baselined": len(diff.baselined),
            "fixed_keys": diff.fixed_keys,
            "counts": violation_counts(violations),
        }
        if args.deep_json and context is not None:
            payload["callgraph"] = context.graph(files).stats()
        _emit(json.dumps(payload, indent=2))
        return 1 if diff.new else 0

    for violation in diff.new:
        _emit(violation.render())
    label = "repro-lint (deep)" if want_deep else "repro-lint"
    summary = (
        f"{label}: {len(files)} files, {len(violations)} finding(s) "
        f"({len(diff.new)} new, {len(diff.baselined)} baselined) in {elapsed:.2f}s"
    )
    _emit(summary)
    if diff.fixed_keys:
        _emit(
            "baseline is stale (violations fixed — regenerate with --write-baseline): "
            + ", ".join(diff.fixed_keys)
        )
    return 1 if diff.new else 0


if __name__ == "__main__":
    sys.exit(main())
