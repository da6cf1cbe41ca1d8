"""D3 — dispatch exhaustiveness over closed class families.

Two shapes of check:

* **Family surfaces** — the CQL AST is a closed family (every ``Expr``
  subclass defined in ``ast_nodes``).  Each dispatch surface (unparser,
  evaluator, planner, optimizer) must handle every member, and the
  parser must actually produce every member (a node nobody constructs
  is dead weight the surfaces pay for).
* **Message flows** — OpenFlow messages are checked *directionally*:
  the set of message classes actually sent switch→controller must be
  covered by the controller dispatcher, and vice versa.  A handler arm
  for a message nobody sends is an orphan; a sent message without an
  arm falls into the dispatcher's error path at runtime.

Handled sets are collected from ``isinstance`` tests, followed through
resolved project callees (a surface may delegate); orphan detection
uses only the surface's own direct tests, so delegation never
manufactures orphans.  Sent sets come from the static class of the
first argument at each send-helper call site; arguments typed as the
abstract base are forwarding wrappers and are skipped — their own call
sites carry the real classes.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core import Rule, SourceFile, Violation
from .callgraph import CallGraph, FunctionInfo, dotted_parts, iter_calls

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import DeepContext


class FamilySpec:
    """A closed class family plus the surfaces that must cover it."""

    __slots__ = ("name", "base", "member_module", "members", "exclude", "surfaces", "producers")

    def __init__(
        self,
        name: str,
        member_module: str,
        base: Optional[str] = None,
        members: Tuple[str, ...] = (),
        exclude: Tuple[str, ...] = (),
        surfaces: Tuple[str, ...] = (),
        producers: Tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.member_module = member_module
        self.base = base
        self.members = members
        self.exclude = exclude
        self.surfaces = surfaces
        self.producers = producers


class FlowSpec:
    """A directional message flow: senders on one side, one dispatcher."""

    __slots__ = ("name", "base", "member_module", "exclude", "senders", "surfaces")

    def __init__(
        self,
        name: str,
        member_module: str,
        base: str,
        senders: Tuple[str, ...],
        surfaces: Tuple[str, ...],
        exclude: Tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.member_module = member_module
        self.base = base
        self.senders = senders
        self.surfaces = surfaces
        self.exclude = exclude


_AST = "repro.hwdb.cql.ast_nodes"

#: The repo's closed families (each spec is inert when its modules are
#: absent from the file set, so fixtures can supply their own).
DEFAULT_FAMILIES: Tuple[FamilySpec, ...] = (
    FamilySpec(
        name="cql-expr",
        member_module=_AST,
        base=f"{_AST}.Expr",
        surfaces=(
            "repro.hwdb.cql.unparse.unparse_expr",
            "repro.hwdb.cql.executor.Evaluator.scalar",
            "repro.hwdb.cql.executor.Evaluator.aggregate",
            "repro.query.plan._check_expr",
            "repro.query.optimize.clone_expr",
            "repro.query.optimize.fold_expr",
        ),
        producers=("repro.hwdb.cql.parser",),
    ),
    FamilySpec(
        name="cql-statement",
        member_module=_AST,
        members=(
            f"{_AST}.Select",
            f"{_AST}.Explain",
            f"{_AST}.Insert",
            f"{_AST}.CreateTable",
        ),
        surfaces=(
            "repro.hwdb.cql.unparse.unparse",
            "repro.hwdb.database.HomeworkDatabase.execute_parsed",
        ),
        producers=("repro.hwdb.cql.parser",),
    ),
)

_MSG = "repro.openflow.messages"

DEFAULT_FLOWS: Tuple[FlowSpec, ...] = (
    FlowSpec(
        name="openflow-to-controller",
        member_module=_MSG,
        base=f"{_MSG}.OpenFlowMessage",
        senders=(
            "repro.openflow.channel.SecureChannel.to_controller",
            "repro.openflow.datapath.Datapath._reply",
        ),
        surfaces=("repro.nox.controller.Controller.receive",),
    ),
    FlowSpec(
        name="openflow-to-switch",
        member_module=_MSG,
        base=f"{_MSG}.OpenFlowMessage",
        senders=(
            "repro.openflow.channel.SecureChannel.to_switch",
            "repro.nox.controller.Controller.send",
        ),
        surfaces=("repro.openflow.datapath.Datapath.handle_message",),
    ),
)


class DispatchRule(Rule):
    name = "deep-dispatch"
    ids = ("deep-dispatch", "deep-dispatch-orphan")
    description = "closed class families fully dispatched; no orphan handler arms"

    def __init__(
        self,
        context: Optional["DeepContext"] = None,
        families: Optional[Sequence[FamilySpec]] = None,
        flows: Optional[Sequence[FlowSpec]] = None,
    ) -> None:
        from . import DeepContext

        self.context = context if context is not None else DeepContext()
        self.families = tuple(families) if families is not None else DEFAULT_FAMILIES
        self.flows = tuple(flows) if flows is not None else DEFAULT_FLOWS

    # -- shared extraction helpers -------------------------------------

    def _family_members(
        self, graph: CallGraph, member_module: str, base: Optional[str],
        members: Tuple[str, ...], exclude: Tuple[str, ...]
    ) -> Set[str]:
        if members:
            return {m for m in members if m in graph.classes}
        out: Set[str] = set()
        for qualname, info in graph.classes.items():
            if info.module != member_module or qualname == base:
                continue
            if qualname in exclude:
                continue
            if base is not None and graph.is_subclass(qualname, base):
                out.add(qualname)
        return out

    def _direct_tests(
        self, graph: CallGraph, fn: FunctionInfo, members: Set[str]
    ) -> Dict[str, Tuple[int, int]]:
        """Family members named in this function's own isinstance tests."""
        found: Dict[str, Tuple[int, int]] = {}
        for call in iter_calls(fn.node):
            if not (
                isinstance(call.func, ast.Name)
                and call.func.id == "isinstance"
                and len(call.args) == 2
            ):
                continue
            spec = call.args[1]
            candidates = spec.elts if isinstance(spec, ast.Tuple) else [spec]
            for candidate in candidates:
                parts = dotted_parts(candidate)
                if parts is None:
                    continue
                resolved = graph.resolve_name(fn.module, parts)
                if resolved in members:
                    found.setdefault(resolved, (call.lineno, call.col_offset + 1))
        return found

    def _handled(
        self, graph: CallGraph, surface: FunctionInfo, members: Set[str]
    ) -> Set[str]:
        """Members handled by the surface or any resolved project callee."""
        handled: Set[str] = set()
        seen: Set[str] = set()
        stack = [surface.qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            fn = graph.functions.get(current)
            if fn is None:
                continue
            handled |= set(self._direct_tests(graph, fn, members))
            stack.extend(graph.callees(current))
        return handled

    def _sent_classes(
        self, graph: CallGraph, senders: Tuple[str, ...], members: Set[str], base: str
    ) -> Set[str]:
        sent: Set[str] = set()
        for fn in graph.functions.values():
            for call in iter_calls(fn.node):
                if graph.resolve_call(fn, call) not in senders or not call.args:
                    continue
                klass = graph.class_of_expr(fn, call.args[0])
                if klass is None or klass == base:
                    continue  # base-typed args are forwarding wrappers
                if klass in members:
                    sent.add(klass)
        return sent

    def _short(self, qualname: str) -> str:
        return qualname.rsplit(".", 1)[-1]

    # -- checks --------------------------------------------------------

    def check_project(self, files: Sequence[SourceFile]) -> Iterable[Violation]:
        graph = self.context.graph(files)
        by_module = {f.module: f for f in files}
        violations: List[Violation] = []

        def emit(module: str, line: int, col: int, rule: str, message: str) -> None:
            source = by_module.get(module)
            if source is not None:
                violations.append(
                    Violation(path=source.path, line=line, col=col, rule=rule, message=message)
                )

        for family in self.families:
            members = self._family_members(
                graph, family.member_module, family.base, family.members, family.exclude
            )
            if not members:
                continue
            for surface_name in family.surfaces:
                surface = graph.functions.get(surface_name)
                if surface is None:
                    continue
                missing = sorted(members - self._handled(graph, surface, members))
                if missing:
                    names = ", ".join(self._short(m) for m in missing)
                    emit(
                        surface.module,
                        surface.node.lineno,  # type: ignore[attr-defined]
                        surface.node.col_offset + 1,  # type: ignore[attr-defined]
                        "deep-dispatch",
                        f"{surface_name} does not handle {family.name} member(s): {names}",
                    )
            producers_present = [p for p in family.producers if p in graph.modules]
            if producers_present:
                produced: Set[str] = set()
                for fn in graph.functions.values():
                    if fn.module not in producers_present:
                        continue
                    for call in iter_calls(fn.node):
                        klass = graph.class_of_expr(fn, call)
                        if klass in members:
                            produced.add(klass)  # type: ignore[arg-type]
                for member in sorted(members - produced):
                    info = graph.classes[member]
                    emit(
                        info.module,
                        info.node.lineno,
                        info.node.col_offset + 1,
                        "deep-dispatch-orphan",
                        f"{family.name} member {self._short(member)} is never "
                        f"produced by {', '.join(producers_present)}",
                    )

        for flow in self.flows:
            members = self._family_members(
                graph, flow.member_module, flow.base, (), flow.exclude
            )
            if not members:
                continue
            senders_present = tuple(s for s in flow.senders if s in graph.functions)
            if not senders_present:
                continue
            sent = self._sent_classes(graph, senders_present, members, flow.base)
            for surface_name in flow.surfaces:
                surface = graph.functions.get(surface_name)
                if surface is None:
                    continue
                handled = self._handled(graph, surface, members)
                direct = self._direct_tests(graph, surface, members)
                missing = sorted(sent - handled)
                if missing:
                    names = ", ".join(self._short(m) for m in missing)
                    emit(
                        surface.module,
                        surface.node.lineno,  # type: ignore[attr-defined]
                        surface.node.col_offset + 1,  # type: ignore[attr-defined]
                        "deep-dispatch",
                        f"{surface_name} does not handle sent {flow.name} "
                        f"message(s): {names}",
                    )
                for member, (line, col) in sorted(direct.items()):
                    if member in sent:
                        continue
                    emit(
                        surface.module,
                        line,
                        col,
                        "deep-dispatch-orphan",
                        f"{surface_name} handles {self._short(member)} but no "
                        f"{flow.name} sender ever sends it",
                    )
        return violations
