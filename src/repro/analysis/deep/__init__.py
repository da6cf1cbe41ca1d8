"""repro-deepcheck: interprocedural analysis behind ``repro lint --deep``.

Where the shallow rules (:mod:`repro.analysis`) judge one line at a
time, the deep pass builds a whole-program model first — a call graph
name-resolved across modules (methods resolved through class bases and
through duck-typed attach points like ``db.set_store``) plus a
def-use taint dataflow — and then runs three rule families over it:

* **deep-taint** (D1) — nondeterminism sources (wall clock, module-level
  ``random``, ``id()``, set iteration order, environment reads) must not
  reach reproducibility sinks (trace digests, snapshot payloads, RPC
  wire encoders) except through sanctioned sanitizers (``sorted`` et al.);
* **deep-except-escape** / **deep-except-dead** (D2) — which project
  exception types can escape each declared layer-boundary function, and
  which ``except`` arms can never fire;
* **deep-dispatch** / **deep-dispatch-orphan** (D3) — every member of a
  closed class family (CQL AST nodes, OpenFlow messages) is handled by
  every dispatch surface, and no surface handles a member that is never
  produced.

All three reuse the shallow framework's finding/pragma/baseline
machinery, so ``# repro: ignore[deep-*]`` pragmas and the committed
baseline work unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core import Rule, SourceFile
from .callgraph import CallGraph, build_callgraph
from .dispatch import DispatchRule
from .exceptions import ExceptionFlowRule
from .taint import DeepTaintRule

__all__ = [
    "CallGraph",
    "DeepContext",
    "DeepTaintRule",
    "DispatchRule",
    "ExceptionFlowRule",
    "build_callgraph",
    "deep_rules",
]


class DeepContext:
    """Shared, lazily-built call graph so the three rules model once."""

    def __init__(self) -> None:
        self._graph: Optional[CallGraph] = None
        self._key: Optional[Tuple[int, ...]] = None

    def graph(self, files: Sequence[SourceFile]) -> CallGraph:
        key = tuple(id(f) for f in files)
        if self._graph is None or self._key != key:
            self._graph = build_callgraph(files)
            self._key = key
        return self._graph


def deep_rules(context: Optional[DeepContext] = None) -> List[Rule]:
    """The three deep rule families, sharing one project model."""
    ctx = context if context is not None else DeepContext()
    return [
        DeepTaintRule(ctx),
        ExceptionFlowRule(ctx),
        DispatchRule(ctx),
    ]
