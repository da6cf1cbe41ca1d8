"""D1 — determinism taint: nondeterminism must never reach a digest.

Sources are the things that differ between two runs of the same seed:
the wall clock, module-level ``random``, ``id()`` and set iteration
order (both vary with ``PYTHONHASHSEED`` / allocation order), process
environment reads, ``uuid4``.  Sinks are the repo's reproducibility
surfaces: the fuzzer's trace digest, hwdb table digests, ``to_snapshot``
payloads and the RPC wire encoder.  ``sorted``/``min``/``max``/``sum``/
``len`` sanitize — they collapse iteration order into a deterministic
value.

The check is interprocedural: per-function "returns nondeterminism"
summaries and per-class "attribute holds nondeterminism" facts are
iterated to a fixpoint over the call graph, then every sink function is
re-analysed and each tainted value reaching a ``return``, a
``hasher.update(...)`` or a sink call's argument list becomes a finding.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core import Rule, SourceFile, Violation
from .callgraph import CallGraph
from .dataflow import TaintPolicy, analyse_function

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import DeepContext

#: Calls that introduce run-to-run nondeterminism.
DEFAULT_SOURCE_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.listdir",
        "os.scandir",
        "os.walk",
        "os.getenv",
        "os.urandom",
        "uuid.uuid4",
        "uuid.uuid1",
        "id",
        "set",
        "frozenset",
        "globals",
        "locals",
        "vars",
    }
)

#: Any call into these modules is a source (module-level RNG state).
DEFAULT_SOURCE_PREFIXES: Tuple[str, ...] = ("random.", "secrets.")

#: Attribute reads that are sources without being calls.
DEFAULT_SOURCE_ATTRS: FrozenSet[str] = frozenset({"os.environ", "sys.argv"})

#: Order-collapsing builtins: deterministic results from tainted input.
DEFAULT_SANITIZERS: FrozenSet[str] = frozenset({"sorted", "min", "max", "sum", "len"})

#: The repo's reproducibility surfaces (checked only when present).
DEFAULT_SINK_FUNCTIONS: FrozenSet[str] = frozenset(
    {
        "repro.hwdb.snapshot.table_digest",
        "repro.hwdb.snapshot.database_digests",
        "repro.hwdb.rpc.pack_resultset",
        "repro.hwdb.rpc._encode_value",
        "repro.check.runner.ScenarioRunner.run",
        "repro.check.runner.ScenarioRunner._digest",
    }
)

#: Method names that are sinks on every class (snapshot payloads).
DEFAULT_SINK_METHODS: FrozenSet[str] = frozenset({"to_snapshot"})


class TaintConfig:
    """Source/sanitizer/sink tables; defaults describe this repository."""

    def __init__(
        self,
        source_calls: Iterable[str] = DEFAULT_SOURCE_CALLS,
        source_prefixes: Sequence[str] = DEFAULT_SOURCE_PREFIXES,
        source_attrs: Iterable[str] = DEFAULT_SOURCE_ATTRS,
        sanitizers: Iterable[str] = DEFAULT_SANITIZERS,
        sink_functions: Iterable[str] = DEFAULT_SINK_FUNCTIONS,
        sink_methods: Iterable[str] = DEFAULT_SINK_METHODS,
    ) -> None:
        self.source_calls = frozenset(source_calls)
        self.source_prefixes = tuple(source_prefixes)
        self.source_attrs = frozenset(source_attrs)
        self.sanitizers = frozenset(sanitizers)
        self.sink_functions = frozenset(sink_functions)
        self.sink_methods = frozenset(sink_methods)


class _Policy(TaintPolicy):
    def __init__(
        self,
        config: TaintConfig,
        summaries: Dict[str, bool],
        attr_taint: Dict[str, Set[str]],
        sinks: FrozenSet[str],
    ) -> None:
        self.config = config
        self.summaries = summaries
        self.attr_taint = attr_taint
        self.sinks = sinks

    def is_source_call(self, label: Optional[str], call: ast.Call) -> bool:
        if label is None:
            return False
        if label in self.config.source_calls:
            return True
        return any(label.startswith(p) for p in self.config.source_prefixes)

    def is_source_attr(self, dotted: Optional[str]) -> bool:
        return dotted is not None and dotted in self.config.source_attrs

    def is_sanitizer(self, label: Optional[str], call: ast.Call) -> bool:
        return label is not None and label in self.config.sanitizers

    def is_sink_call(self, label: Optional[str]) -> bool:
        return label is not None and label in self.sinks

    def callee_returns_taint(self, qualname: str) -> bool:
        return self.summaries.get(qualname, False)

    def attr_is_tainted(self, class_qualname: str, attr: str) -> bool:
        return attr in self.attr_taint.get(class_qualname, ())


class DeepTaintRule(Rule):
    name = "deep-taint"
    ids = ("deep-taint",)
    description = "nondeterminism sources must not reach reproducibility sinks"

    #: Fixpoint safety bound; the two-point lattice converges far sooner.
    MAX_ROUNDS = 8

    def __init__(
        self,
        context: Optional["DeepContext"] = None,
        config: Optional[TaintConfig] = None,
    ) -> None:
        from . import DeepContext

        self.context = context if context is not None else DeepContext()
        self.config = config if config is not None else TaintConfig()

    def _sink_qualnames(self, graph: CallGraph) -> FrozenSet[str]:
        sinks = {q for q in self.config.sink_functions if q in graph.functions}
        for qualname, fn in graph.functions.items():
            if fn.cls is not None and fn.name in self.config.sink_methods:
                sinks.add(qualname)
        return frozenset(sinks)

    def check_project(self, files: Sequence[SourceFile]) -> Iterable[Violation]:
        graph = self.context.graph(files)
        sinks = self._sink_qualnames(graph)
        summaries: Dict[str, bool] = {q: False for q in graph.functions}
        attr_taint: Dict[str, Set[str]] = {}
        policy = _Policy(self.config, summaries, attr_taint, sinks)

        for _ in range(self.MAX_ROUNDS):
            changed = False
            for qualname, fn in graph.functions.items():
                outcome = analyse_function(graph, fn, policy)
                if outcome.returns_taint and not summaries[qualname]:
                    summaries[qualname] = True
                    changed = True
                if fn.cls is not None and outcome.tainted_self_attrs:
                    known = attr_taint.setdefault(fn.cls, set())
                    fresh = outcome.tainted_self_attrs - known
                    if fresh:
                        known.update(fresh)
                        changed = True
            if not changed:
                break

        violations: List[Violation] = []
        by_module = {f.module: f for f in files}
        for qualname, fn in sorted(graph.functions.items()):
            outcome = analyse_function(graph, fn, policy)
            source = by_module.get(fn.module)
            if source is None:
                continue
            for hit in outcome.hits:
                if hit.kind == "return" and qualname not in sinks:
                    continue  # only sinks make returned nondeterminism a bug
                where = f"in {qualname}" if hit.kind != "sink-arg" else f"from {qualname}"
                violations.append(
                    Violation(
                        path=source.path,
                        line=hit.line,
                        col=hit.col,
                        rule="deep-taint",
                        message=f"{hit.detail} {where}",
                    )
                )
        return violations
