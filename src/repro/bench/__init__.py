"""``repro.bench`` — the hot-path perf harness and regression gate.

``python -m repro bench`` runs the hot-path microbenches (indexed flow
lookup, event dispatch, memoized protocol classification), optionally
the standalone ``benchmarks/bench_*.py`` suites, and compares the
results against the committed ``BENCH_HOTPATH.json`` baseline —
exiting nonzero on regression so CI can gate merges on performance
(DESIGN.md §14).
"""

from .gate import GateResult, check_gate, load_baseline
from .hotpath import run_hotpath

__all__ = ["GateResult", "check_gate", "load_baseline", "run_hotpath"]
