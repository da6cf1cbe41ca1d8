"""D2 — exception flow: what can escape each layer-boundary function.

Computes, per function, the set of *project* exception classes that may
escape it: direct ``raise`` statements plus everything resolvable
callees may raise, minus what enclosing ``try``/``except`` arms catch
(subclass-aware through the class hierarchy in the call graph).  The
summaries reach a fixpoint over the call graph, then two checks run:

* **deep-except-escape** — declared contracts (``QueryEngine`` may only
  leak ``HwdbError``, the RPC server nothing, ...) are compared against
  the computed escape sets.  Only tracked project exceptions appear in
  summaries, so every reported escape is a real ``raise`` reachable
  from the boundary.
* **deep-except-dead** — an ``except SomeProjectError`` arm whose try
  body provably cannot raise it.  Only *closed-world* bodies are judged
  (every call transitively resolved to project code); one opaque call
  and the arm is given the benefit of the doubt.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core import Rule, SourceFile, Violation
from .callgraph import CallGraph, FunctionInfo, dotted_parts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import DeepContext

#: Handler names that catch any project exception.
_CATCH_ALL = ("Exception", "BaseException")


class ExceptionContract:
    """One boundary function and the exception roots allowed to escape."""

    __slots__ = ("function", "allowed")

    def __init__(self, function: str, allowed: Tuple[str, ...]) -> None:
        self.function = function
        self.allowed = allowed


#: The repo's layer-boundary contracts (checked only when present).
DEFAULT_CONTRACTS: Tuple[ExceptionContract, ...] = (
    ExceptionContract(
        "repro.hwdb.database.HomeworkDatabase.query",
        ("repro.core.errors.HwdbError",),
    ),
    ExceptionContract(
        "repro.hwdb.database.HomeworkDatabase.execute_parsed",
        ("repro.core.errors.HwdbError",),
    ),
    ExceptionContract(
        "repro.query.engine.QueryEngine.execute_select",
        ("repro.core.errors.HwdbError",),
    ),
    ExceptionContract("repro.hwdb.rpc.RpcServer.handle_datagram", ()),
    ExceptionContract(
        "repro.nox.controller.Controller.receive",
        ("repro.core.errors.ControllerError",),
    ),
    ExceptionContract("repro.nox.controller.Controller.dispatch", ()),
    ExceptionContract(
        "repro.openflow.datapath.Datapath.handle_message",
        ("repro.core.errors.DatapathError",),
    ),
    ExceptionContract(
        "repro.policy.engine.PolicyEngine.install_document",
        ("repro.core.errors.PolicyError",),
    ),
)


class RaiseSummary:
    """Project exceptions a function may let escape, plus an open bit."""

    __slots__ = ("raises", "open")

    def __init__(self) -> None:
        self.raises: Set[str] = set()
        self.open = False


class _Analyzer:
    """Computes raise summaries and records dead handler arms."""

    MAX_ROUNDS = 12

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.summaries: Dict[str, RaiseSummary] = {
            q: RaiseSummary() for q in graph.functions
        }
        #: (module, line, col, exception name) for provably-dead arms.
        self.dead_arms: List[Tuple[str, int, int, str]] = []
        self._exception_cache: Dict[str, bool] = {}

    # -- class hierarchy helpers ---------------------------------------

    def is_exception_class(self, qualname: str) -> bool:
        cached = self._exception_cache.get(qualname)
        if cached is not None:
            return cached
        info = self.graph.classes.get(qualname)
        verdict = False
        if info is not None:
            for base in info.bases:
                if base in _CATCH_ALL or base.rsplit(".", 1)[-1] in _CATCH_ALL:
                    verdict = True
                    break
                if base in self.graph.classes and self.is_exception_class(base):
                    verdict = True
                    break
        self._exception_cache[qualname] = verdict
        return verdict

    def catches(self, handler_type: str, raised: str) -> bool:
        if handler_type.rsplit(".", 1)[-1] in _CATCH_ALL:
            return True
        return self.graph.is_subclass(raised, handler_type)

    def _handler_types(self, fn: FunctionInfo, node: Optional[ast.expr]) -> List[str]:
        if node is None:
            return ["Exception"]
        members = node.elts if isinstance(node, ast.Tuple) else [node]
        names: List[str] = []
        for member in members:
            parts = dotted_parts(member)
            if parts is None:
                continue
            resolved = self.graph.resolve_name(fn.module, parts)
            names.append(resolved if resolved is not None else parts[-1])
        return names

    # -- per-function effects ------------------------------------------

    def run(self) -> None:
        for round_no in range(self.MAX_ROUNDS):
            changed = False
            final = round_no == self.MAX_ROUNDS - 1
            for qualname, fn in self.graph.functions.items():
                raises, open_world = self._effects(
                    fn, list(fn.node.body), set(), report_dead=False  # type: ignore[attr-defined]
                )
                summary = self.summaries[qualname]
                if raises - summary.raises:
                    summary.raises |= raises
                    changed = True
                if open_world and not summary.open:
                    summary.open = True
                    changed = True
            if not changed or final:
                break
        # One last pass with dead-arm reporting, now that summaries are
        # stable (reporting earlier would use incomplete callee sets).
        for fn in self.graph.functions.values():
            self._effects(fn, list(fn.node.body), set(), report_dead=True)  # type: ignore[attr-defined]

    def _call_effects(self, fn: FunctionInfo, call: ast.Call) -> Tuple[Set[str], bool]:
        resolved = self.graph.resolve_call(fn, call)
        if resolved in self.graph.functions:
            summary = self.summaries[resolved]
            return set(summary.raises), summary.open
        if resolved in self.graph.classes:
            init = self.graph.find_method(resolved, "__init__")
            if init is None:
                return set(), False
            summary = self.summaries[init.qualname]
            return set(summary.raises), summary.open
        return set(), True

    def _expr_effects(self, fn: FunctionInfo, node: Optional[ast.AST]) -> Tuple[Set[str], bool]:
        raises: Set[str] = set()
        open_world = False
        if node is None:
            return raises, open_world
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                callee_raises, callee_open = self._call_effects(fn, child)
                raises |= callee_raises
                open_world |= callee_open
        return raises, open_world

    def _effects(
        self,
        fn: FunctionInfo,
        stmts: Sequence[ast.stmt],
        reraise: Set[str],
        report_dead: bool,
    ) -> Tuple[Set[str], bool]:
        raises: Set[str] = set()
        open_world = False

        for stmt in stmts:
            if isinstance(stmt, ast.Raise):
                raises_from, open_from = self._expr_effects(fn, stmt.exc)
                raises |= raises_from
                open_world |= open_from
                if stmt.exc is None:
                    raises |= reraise
                else:
                    target = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
                    parts = dotted_parts(target)
                    if parts is not None:
                        resolved = self.graph.resolve_name(fn.module, parts)
                        if resolved in self.graph.classes and self.is_exception_class(
                            resolved
                        ):
                            raises.add(resolved)
            elif isinstance(stmt, ast.Try):
                body_raises, body_open = self._effects(
                    fn, stmt.body, reraise, report_dead
                )
                caught: Set[str] = set()
                for handler in stmt.handlers:
                    handler_types = self._handler_types(fn, handler.type)
                    from_body = {
                        e
                        for e in body_raises
                        if any(self.catches(t, e) for t in handler_types)
                    }
                    caught |= from_body
                    if report_dead and not body_open:
                        for handler_type in handler_types:
                            if handler_type.rsplit(".", 1)[-1] in _CATCH_ALL:
                                continue  # defensive catch-alls are fine
                            if handler_type not in self.graph.classes:
                                continue  # builtin types: body raises untracked
                            if not self.is_exception_class(handler_type):
                                continue
                            if not any(
                                self.catches(handler_type, e) for e in body_raises
                            ):
                                self.dead_arms.append(
                                    (
                                        fn.module,
                                        handler.lineno,
                                        handler.col_offset + 1,
                                        handler_type,
                                    )
                                )
                    handler_raises, handler_open = self._effects(
                        fn, handler.body, from_body, report_dead
                    )
                    raises |= handler_raises
                    open_world |= handler_open
                raises |= body_raises - caught
                open_world |= body_open
                orelse_raises, orelse_open = self._effects(
                    fn, stmt.orelse, reraise, report_dead
                )
                final_raises, final_open = self._effects(
                    fn, stmt.finalbody, reraise, report_dead
                )
                raises |= orelse_raises | final_raises
                open_world |= orelse_open | final_open
            elif isinstance(stmt, (ast.If, ast.While)):
                test_raises, test_open = self._expr_effects(fn, stmt.test)
                body_raises, body_open = self._effects(fn, stmt.body, reraise, report_dead)
                else_raises, else_open = self._effects(
                    fn, stmt.orelse, reraise, report_dead
                )
                raises |= test_raises | body_raises | else_raises
                open_world |= test_open | body_open | else_open
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                iter_raises, iter_open = self._expr_effects(fn, stmt.iter)
                body_raises, body_open = self._effects(fn, stmt.body, reraise, report_dead)
                else_raises, else_open = self._effects(
                    fn, stmt.orelse, reraise, report_dead
                )
                raises |= iter_raises | body_raises | else_raises
                open_world |= iter_open | body_open | else_open
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    item_raises, item_open = self._expr_effects(fn, item.context_expr)
                    raises |= item_raises
                    open_world |= item_open
                body_raises, body_open = self._effects(fn, stmt.body, reraise, report_dead)
                raises |= body_raises
                open_world |= body_open
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scopes raise when *called*, not here
            else:
                stmt_raises, stmt_open = self._expr_effects(fn, stmt)
                raises |= stmt_raises
                open_world |= stmt_open
        return raises, open_world


class ExceptionFlowRule(Rule):
    name = "deep-except"
    ids = ("deep-except-escape", "deep-except-dead")
    description = "exception contracts at layer boundaries; dead except arms"

    def __init__(
        self,
        context: Optional["DeepContext"] = None,
        contracts: Optional[Sequence[ExceptionContract]] = None,
    ) -> None:
        from . import DeepContext

        self.context = context if context is not None else DeepContext()
        self.contracts = tuple(contracts) if contracts is not None else DEFAULT_CONTRACTS

    def check_project(self, files: Sequence[SourceFile]) -> Iterable[Violation]:
        graph = self.context.graph(files)
        analyzer = _Analyzer(graph)
        analyzer.run()
        by_module = {f.module: f for f in files}
        violations: List[Violation] = []

        for contract in self.contracts:
            fn = graph.functions.get(contract.function)
            if fn is None:
                continue
            summary = analyzer.summaries[contract.function]
            escaped = sorted(
                e
                for e in summary.raises
                if not any(graph.is_subclass(e, root) for root in contract.allowed)
            )
            if not escaped:
                continue
            source = by_module.get(fn.module)
            if source is None:
                continue
            allowed = ", ".join(contract.allowed) if contract.allowed else "nothing"
            names = ", ".join(e.rsplit(".", 1)[-1] for e in escaped)
            violations.append(
                Violation(
                    path=source.path,
                    line=fn.node.lineno,  # type: ignore[attr-defined]
                    col=fn.node.col_offset + 1,  # type: ignore[attr-defined]
                    rule="deep-except-escape",
                    message=(
                        f"{contract.function} may leak {names} but its contract "
                        f"allows {allowed}"
                    ),
                )
            )

        for module, line, col, handler_type in analyzer.dead_arms:
            source = by_module.get(module)
            if source is None:
                continue
            violations.append(
                Violation(
                    path=source.path,
                    line=line,
                    col=col,
                    rule="deep-except-dead",
                    message=(
                        f"except arm for {handler_type.rsplit('.', 1)[-1]} can never "
                        f"fire: the try body provably does not raise it"
                    ),
                )
            )
        return violations
