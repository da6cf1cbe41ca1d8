"""The whole-program call graph the deep rules share.

Built purely from the lint file set (no imports are executed).  Names
resolve across modules through each file's import aliases; methods
resolve through class bases and through two attribute-typing passes:

* constructor assignments — ``self.table = FlowTable()`` types the
  ``table`` attribute for every later ``self.table.add(...)`` call;
* duck-typed attach points — a setter that stores its first
  parameter (``def set_store(self, store): self._store = store``)
  types the stored attribute from its *call sites*
  (``db.set_store(self)`` in ``DurableStore.attach``), which is how the
  hwdb → store layer inversion stays resolvable without hwdb importing
  store.

Everything is best-effort and under-approximating: a call that cannot
be resolved contributes no edge and marks the caller *open* (consumers
that need a closed world — the dead-``except`` check — skip open
functions rather than guess).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core import SourceFile

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


class FunctionInfo:
    """One function or method definition in the analyzed file set."""

    __slots__ = ("qualname", "module", "cls", "node", "params")

    def __init__(
        self,
        qualname: str,
        module: str,
        cls: Optional[str],
        node: ast.AST,
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.cls = cls
        self.node = node
        args = node.args  # type: ignore[attr-defined]
        self.params: List[str] = [a.arg for a in args.posonlyargs + args.args]

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[1]

    def __repr__(self) -> str:
        return f"FunctionInfo({self.qualname})"


class ClassInfo:
    """One class definition: bases, methods and inferred attribute types."""

    __slots__ = ("qualname", "module", "node", "bases", "methods", "attr_types")

    def __init__(self, qualname: str, module: str, node: ast.ClassDef) -> None:
        self.qualname = qualname
        self.module = module
        self.node = node
        #: Base names, resolved when possible ("repro.x.Y" or bare "Exception").
        self.bases: List[str] = []
        self.methods: Dict[str, FunctionInfo] = {}
        #: attribute name -> class qualname, from the typing passes above.
        self.attr_types: Dict[str, str] = {}

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[1]

    def __repr__(self) -> str:
        return f"ClassInfo({self.qualname})"


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a","b","c"]``; None for non-name expressions."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def iter_calls(node: ast.AST) -> Iterator[ast.Call]:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


class CallGraph:
    """Project index + resolved call edges over one lint file set."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.modules: Dict[str, SourceFile] = {f.module: f for f in files}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.edges: Dict[str, Set[str]] = {}
        #: Functions with at least one call we could not resolve to a
        #: project function/class — their behaviour is not closed-world.
        self.open_calls: Set[str] = set()
        self._imports: Dict[str, Dict[str, str]] = {}
        self._envs: Dict[str, Dict[str, str]] = {}
        #: (class qualname, method name) -> attribute the method stores
        #: its sole interesting parameter into (duck-typed attach point).
        self._setters: Dict[Tuple[str, str], str] = {}

        for source in files:
            self._index_module(source)
        for info in self.classes.values():
            self._resolve_bases(info)
        for info in self.classes.values():
            self._infer_ctor_attr_types(info)
        self._collect_setters()
        self._apply_duck_attach()
        for fn in self.functions.values():
            self._build_edges(fn)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def _index_module(self, source: SourceFile) -> None:
        module = source.module
        aliases: Dict[str, str] = {}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".", 1)[0]
                        aliases.setdefault(head, head)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = source.resolve_relative(node.level, node.module)
                else:
                    base = node.module
                if base is None:
                    continue
                for alias in node.names:
                    aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
        self._imports[module] = aliases

        for stmt in source.tree.body:
            if isinstance(stmt, _FunctionNode):
                info = FunctionInfo(f"{module}.{stmt.name}", module, None, stmt)
                self.functions[info.qualname] = info
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(f"{module}.{stmt.name}", module, stmt)
                self.classes[cls.qualname] = cls
                for member in stmt.body:
                    if isinstance(member, _FunctionNode):
                        fn = FunctionInfo(
                            f"{cls.qualname}.{member.name}", module, cls.qualname, member
                        )
                        cls.methods[member.name] = fn
                        self.functions[fn.qualname] = fn

    def _resolve_bases(self, info: ClassInfo) -> None:
        for base in info.node.bases:
            parts = dotted_parts(base)
            if parts is None:
                continue
            resolved = self.resolve_name(info.module, parts)
            info.bases.append(resolved if resolved is not None else parts[-1])

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------

    def resolve_name(self, module: str, parts: Sequence[str]) -> Optional[str]:
        """Resolve a dotted name seen in ``module`` to a canonical name.

        Project symbols come back as their definition qualname; external
        names come back as the import-expanded dotted text (so callers
        can still pattern-match e.g. ``time.time``).
        """
        if not parts:
            return None
        head, rest = parts[0], list(parts[1:])
        aliases = self._imports.get(module, {})
        if head in aliases:
            full = ".".join([aliases[head]] + rest)
        elif f"{module}.{head}" in self.functions or f"{module}.{head}" in self.classes:
            full = ".".join([f"{module}.{head}"] + rest)
        else:
            return None
        return self._canonical(full)

    def _canonical(self, full: str) -> str:
        if full in self.functions or full in self.classes:
            return full
        prefix, _, last = full.rpartition(".")
        if prefix in self.classes:
            method = self.find_method(prefix, last)
            if method is not None:
                return method.qualname
        # ``from pkg import submodule`` style: pkg.submodule.symbol.
        if prefix in self.modules:
            candidate = f"{prefix}.{last}"
            if candidate in self.functions or candidate in self.classes:
                return candidate
        return full

    def find_method(self, class_qualname: str, name: str) -> Optional[FunctionInfo]:
        """Resolve a method through the class and its project bases."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            stack.extend(info.bases)
        return None

    def is_subclass(self, class_qualname: str, base: str) -> bool:
        """True when ``base`` (qualname or bare name) is an ancestor."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            if current == base or current.rsplit(".", 1)[-1] == base:
                return True
            info = self.classes.get(current)
            if info is not None:
                stack.extend(info.bases)
        return False

    # ------------------------------------------------------------------
    # Local type environments
    # ------------------------------------------------------------------

    def _annotation_class(self, module: str, node: Optional[ast.AST]) -> Optional[str]:
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value.strip().strip("\"'")
            if name.isidentifier():
                resolved = self.resolve_name(module, [name])
                return resolved if resolved in self.classes else None
            return None
        if isinstance(node, ast.Subscript):
            # Unwrap Optional[X]; other generics are containers, not classes.
            parts = dotted_parts(node.value)
            if parts is not None and parts[-1] == "Optional":
                return self._annotation_class(module, node.slice)
            return None
        parts = dotted_parts(node)
        if parts is None:
            return None
        resolved = self.resolve_name(module, parts)
        return resolved if resolved in self.classes else None

    def env_of(self, fn: FunctionInfo) -> Dict[str, str]:
        """Local variable -> class qualname, for receiver typing."""
        cached = self._envs.get(fn.qualname)
        if cached is not None:
            return cached
        env: Dict[str, str] = {}
        if fn.cls is not None:
            env["self"] = fn.cls
            env["cls"] = fn.cls
        args = fn.node.args  # type: ignore[attr-defined]
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            klass = self._annotation_class(fn.module, arg.annotation)
            if klass is not None:
                env[arg.arg] = klass
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                klass = self._call_constructs(fn.module, node.value)
                if klass is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = klass
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                klass = self._annotation_class(fn.module, node.annotation)
                if klass is not None:
                    env[node.target.id] = klass
        self._envs[fn.qualname] = env
        return env

    def _call_constructs(self, module: str, call: ast.Call) -> Optional[str]:
        """The class a call expression constructs, if statically known."""
        parts = dotted_parts(call.func)
        if parts is None:
            return None
        resolved = self.resolve_name(module, parts)
        if resolved in self.classes:
            return resolved
        if len(parts) >= 2:
            # Classmethod constructor: Cls.method(...) returning Cls.
            owner = self.resolve_name(module, parts[:-1])
            if owner in self.classes and self.find_method(owner, parts[-1]) is not None:
                return owner
        return None

    def class_of_expr(self, fn: FunctionInfo, node: ast.AST) -> Optional[str]:
        """Static class of an expression (local vars, self attrs, ctors)."""
        if isinstance(node, ast.Call):
            return self._call_constructs(fn.module, node)
        parts = dotted_parts(node)
        if parts is None:
            return None
        env = self.env_of(fn)
        if parts[0] in env:
            klass: Optional[str] = env[parts[0]]
            for attr in parts[1:]:
                if klass is None:
                    return None
                info = self.classes.get(klass)
                klass = info.attr_types.get(attr) if info is not None else None
            return klass
        resolved = self.resolve_name(fn.module, parts)
        return resolved if resolved in self.classes else None

    # ------------------------------------------------------------------
    # Attribute typing passes
    # ------------------------------------------------------------------

    def _infer_ctor_attr_types(self, info: ClassInfo) -> None:
        for method in info.methods.values():
            env = self.env_of(method)
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    klass: Optional[str] = None
                    if isinstance(node.value, ast.Call):
                        klass = self._call_constructs(info.module, node.value)
                    elif isinstance(node.value, ast.Name):
                        klass = env.get(node.value.id)
                    if klass is not None:
                        info.attr_types.setdefault(target.attr, klass)

    def _collect_setters(self) -> None:
        for info in self.classes.values():
            for method in info.methods.values():
                if method.name.startswith("__"):
                    continue
                params = [p for p in method.params if p != "self"]
                if not params:
                    continue
                stored = None
                for node in ast.walk(method.node):
                    if (
                        isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Attribute)
                        and isinstance(node.targets[0].value, ast.Name)
                        and node.targets[0].value.id == "self"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == params[0]
                    ):
                        stored = node.targets[0].attr
                if stored is not None:
                    self._setters[(info.qualname, method.name)] = stored

    def _apply_duck_attach(self) -> None:
        """Type duck-attached attributes from setter call sites."""
        for fn in list(self.functions.values()):
            for call in iter_calls(fn.node):
                if not isinstance(call.func, ast.Attribute) or not call.args:
                    continue
                receiver = self.class_of_expr(fn, call.func.value)
                if receiver is None:
                    continue
                attr = self._setters.get((receiver, call.func.attr))
                if attr is None:
                    # The setter may live on a base class.
                    method = self.find_method(receiver, call.func.attr)
                    if method is None or method.cls is None:
                        continue
                    attr = self._setters.get((method.cls, call.func.attr))
                    if attr is None:
                        continue
                arg_class = self.class_of_expr(fn, call.args[0])
                if arg_class is not None:
                    self.classes[receiver].attr_types.setdefault(attr, arg_class)

    # ------------------------------------------------------------------
    # Call resolution and edges
    # ------------------------------------------------------------------

    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> Optional[str]:
        """Canonical target of a call: function/class qualname, external
        dotted text, or None when the receiver is opaque."""
        parts = dotted_parts(call.func)
        if parts is None:
            return None
        env = self.env_of(fn)
        if len(parts) >= 2 and parts[0] in env:
            klass: Optional[str] = env[parts[0]]
            for attr in parts[1:-1]:
                if klass is None:
                    break
                info = self.classes.get(klass)
                klass = info.attr_types.get(attr) if info is not None else None
            if klass is not None:
                method = self.find_method(klass, parts[-1])
                if method is not None:
                    return method.qualname
            return None
        return self.resolve_name(fn.module, parts)

    def _build_edges(self, fn: FunctionInfo) -> None:
        targets: Set[str] = set()
        open_world = False
        for call in iter_calls(fn.node):
            resolved = self.resolve_call(fn, call)
            if resolved in self.functions:
                targets.add(resolved)
            elif resolved in self.classes:
                init = self.find_method(resolved, "__init__")
                if init is not None:
                    targets.add(init.qualname)
            else:
                open_world = True
        self.edges[fn.qualname] = targets
        if open_world:
            self.open_calls.add(fn.qualname)

    def callees(self, qualname: str) -> Set[str]:
        return self.edges.get(qualname, set())

    def stats(self) -> Dict[str, int]:
        return {
            "modules": len(self.modules),
            "classes": len(self.classes),
            "functions": len(self.functions),
            "edges": sum(len(t) for t in self.edges.values()),
            "open_functions": len(self.open_calls),
        }


def build_callgraph(files: Sequence[SourceFile]) -> CallGraph:
    """Build the project model the deep rule families share."""
    return CallGraph(files)
