"""The layering rule: the declared layer DAG, enforced on the import graph.

The contract (low to high; a module may import its own layer or below,
never above):

====== =====================================================
 0      kernel — ``core.clock``, ``core.errors``, ``core.events``,
        ``core.logging_setup`` (stdlib-only logging config),
        ``core.metrics`` (the metrics registry, so every layer can
        build one and none needs to ask whether telemetry is attached)
 1      ``net`` (+ ``core.config``, shared config vocabulary)
 2      ``openflow``
 3      ``hwdb`` + ``query`` — the database builds its own query
        engine (a function-scoped import, since ``query`` compiles
        against ``hwdb.cql``)
 4      ``store`` — attaches under hwdb's rings through the duck-typed
        ``set_store`` hook, so hwdb never imports it
 5      ``nox``
 6      ``services``
 7      ``policy``
 8      ``measurement``
 9      ``obs``
 10     ``sim``
 11     app — ``ui``, ``core.router``, the package roots, ``analysis``,
        ``check`` (the fuzzer drives the whole stack)
 12     tools — ``bench`` + ``__main__``: the perf harness drives
        whole routers; the CLI dispatcher sits here because it (lazily)
        imports every subcommand, bench included
====== =====================================================

Imports guarded by ``if TYPE_CHECKING:`` are exempt (they never execute).
Function-scoped (lazy) imports still count for the upward check — they
are real runtime dependencies — but not for cycle detection, because a
deferred import is exactly how a module-level cycle is legitimately
broken.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .core import Rule, SourceFile, Violation

#: Layer table: (level, module prefix).  Resolution picks the longest
#: matching prefix, so ``repro.core.clock`` lands in the kernel even
#: though ``repro.core`` itself is an app-level module.
LAYER_PREFIXES: Tuple[Tuple[int, str], ...] = (
    (0, "repro.core.clock"),
    (0, "repro.core.errors"),
    (0, "repro.core.events"),
    (0, "repro.core.logging_setup"),
    (0, "repro.core.metrics"),
    (1, "repro.net"),
    (1, "repro.core.config"),
    (2, "repro.openflow"),
    (3, "repro.hwdb"),
    (3, "repro.query"),
    (4, "repro.store"),
    (5, "repro.nox"),
    (6, "repro.services"),
    (7, "repro.policy"),
    (8, "repro.measurement"),
    (9, "repro.obs"),
    (10, "repro.sim"),
    (11, "repro.ui"),
    (11, "repro.core.router"),
    (11, "repro.core"),
    (11, "repro.analysis"),
    (11, "repro.check"),
    (12, "repro.bench"),
    (12, "repro.__main__"),
    (11, "repro"),
)

LAYER_NAMES: Dict[int, str] = {
    0: "kernel",
    1: "net",
    2: "openflow",
    3: "hwdb",
    4: "query/store",
    5: "nox",
    6: "services",
    7: "policy",
    8: "measurement",
    9: "obs",
    10: "sim",
    11: "app",
    12: "tools",
}


def layer_of(module: str) -> Optional[int]:
    """The layer of a dotted module name, by longest declared prefix."""
    best: Optional[Tuple[int, int]] = None  # (prefix length, layer)
    for level, prefix in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), level)
    return None if best is None else best[1]


class _ImportEdge:
    __slots__ = ("target", "line", "col", "lazy", "type_checking")

    def __init__(self, target: str, line: int, col: int, lazy: bool, type_checking: bool):
        self.target = target
        self.line = line
        self.col = col
        self.lazy = lazy
        self.type_checking = type_checking


def _iter_imports(source: SourceFile) -> Iterable[_ImportEdge]:
    """Every intra-``repro`` import in the file, resolved to module names."""
    lazy_ranges: List[Tuple[int, int]] = []
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            lazy_ranges.append((node.lineno, end))

    def is_lazy(lineno: int) -> bool:
        return any(start <= lineno <= end for start, end in lazy_ranges)

    for node in ast.walk(source.tree):
        type_checking = False
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            type_checking = node.lineno in source.type_checking_lines
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                if name == "repro" or name.startswith("repro."):
                    yield _ImportEdge(
                        name, node.lineno, node.col_offset, is_lazy(node.lineno), type_checking
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = source.resolve_relative(node.level, node.module)
            else:
                base = node.module
            if base is None or not (base == "repro" or base.startswith("repro.")):
                continue
            for alias in node.names:
                # ``from X import Y``: Y may be a submodule of X — resolve
                # the longest name so ``from ..core import clock`` lands on
                # the kernel, not on app-level ``repro.core``.
                yield _ImportEdge(
                    f"{base}.{alias.name}",
                    node.lineno,
                    node.col_offset,
                    is_lazy(node.lineno),
                    type_checking,
                )


class LayeringRule(Rule):
    name = "layering"
    ids = ("layering", "layering-cycle")
    description = "enforce the declared layer DAG on the import graph"

    def check_project(self, files: Sequence[SourceFile]) -> Iterable[Violation]:
        known_modules = {f.module for f in files}
        graph: Dict[str, Set[str]] = {f.module: set() for f in files}
        violations: List[Violation] = []
        for source in files:
            own_layer = layer_of(source.module)
            if own_layer is None:
                continue
            for edge in _iter_imports(source):
                if edge.type_checking:
                    continue
                target_layer = layer_of(edge.target)
                if target_layer is not None and target_layer > own_layer:
                    violations.append(
                        Violation(
                            path=source.path,
                            line=edge.line,
                            col=edge.col + 1,
                            rule="layering",
                            message=(
                                f"{source.module} ({LAYER_NAMES[own_layer]}) imports "
                                f"{edge.target} ({LAYER_NAMES[target_layer]}): lower "
                                f"layers must never import upper ones"
                            ),
                        )
                    )
                if not edge.lazy:
                    # Module-level edge for cycle detection; resolve
                    # ``from X import symbol`` down to module X.
                    target = edge.target
                    while target not in known_modules and "." in target:
                        target = target.rsplit(".", 1)[0]
                    if target in known_modules and target != source.module:
                        graph[source.module].add(target)
        violations.extend(self._cycles(graph, {f.module: f for f in files}))
        return violations

    @staticmethod
    def _cycles(
        graph: Dict[str, Set[str]], by_module: Dict[str, SourceFile]
    ) -> Iterable[Violation]:
        """Strongly-connected components of the module-level import graph."""
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work = [(root, iter(sorted(graph.get(root, ()))))]
            index[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index:
                        index[succ] = lowlink[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(graph.get(succ, ())))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))

        for module in sorted(graph):
            if module not in index:
                strongconnect(module)

        for component in sccs:
            anchor = by_module[component[0]]
            yield Violation(
                path=anchor.path,
                line=1,
                col=1,
                rule="layering-cycle",
                message="module-level import cycle: " + " -> ".join(component + [component[0]]),
            )
