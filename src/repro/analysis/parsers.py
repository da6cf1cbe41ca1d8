"""The parser-safety rule: bounds-check before you slice.

Scope: :mod:`repro.net` — the packet parsers that consume bytes straight
off the (simulated) wire.  The idiom the codebase follows is::

    @classmethod
    def unpack(cls, data: bytes) -> "UDP":
        if len(data) < _HEADER_LEN:
            raise PacketError(...)
        sport = int.from_bytes(data[0:2], "big")   # now safe

The rule flags, inside any function in ``repro.net``:

* an *index* subscript of a bytes-like parameter (``data[0]`` raises
  ``IndexError`` on a short buffer), or
* passing a bytes-like parameter — whole or sliced — to
  ``int.from_bytes``/``struct.unpack*`` (``struct`` raises on a short
  read; ``int.from_bytes`` silently mis-parses one)

with no earlier ``len(<param>)`` evaluation in the same function.  A
standalone slice (``data[:28]``) is *not* flagged: Python truncation
slices never raise, so they are safe without a guard.  The
``len()`` heuristic accepts any appearance (an ``if`` guard, a ``while
offset < len(data)`` loop bound, a ``range(0, len(data))``) — the point
is that the author measured the buffer before trusting offsets into it.

A parameter counts as bytes-like when its annotation mentions ``bytes``,
``bytearray`` or ``memoryview``, or — unannotated — when it uses one of the
conventional buffer names (``data``, ``raw``, ``payload``...).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from .core import Rule, SourceFile, Violation, iter_function_defs

PACKAGE_PREFIX = "repro.net"

#: Conventional buffer parameter names, for unannotated signatures.
BUFFER_NAMES: Set[str] = {"data", "raw", "payload", "frame", "buf", "buffer", "wire"}


def _bytes_like_params(fn: ast.AST) -> Set[str]:
    params: Set[str] = set()
    args = fn.args  # type: ignore[attr-defined]
    all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    for arg in all_args:
        if arg.arg in ("self", "cls"):
            continue
        if arg.annotation is not None:
            rendered = ast.unparse(arg.annotation)
            if any(kind in rendered for kind in ("bytes", "bytearray", "memoryview")):
                params.add(arg.arg)
        elif arg.arg in BUFFER_NAMES:
            params.add(arg.arg)
    return params


def _is_len_of(node: ast.AST, params: Set[str]) -> Tuple[bool, str]:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id in params
    ):
        return True, node.args[0].id
    return False, ""


class ParserSafetyRule(Rule):
    name = "parser"
    ids = ("parser-bounds",)
    description = "byte slices and unpacks without a preceding length guard"

    def check_file(self, source: SourceFile) -> Iterable[Violation]:
        if not (
            source.module == PACKAGE_PREFIX or source.module.startswith(PACKAGE_PREFIX + ".")
        ):
            return []
        violations: List[Violation] = []
        for fn in iter_function_defs(source.tree):
            params = _bytes_like_params(fn)
            if not params:
                continue
            violations.extend(self._check_function(source, fn, params))
        return violations

    @staticmethod
    def _check_function(
        source: SourceFile, fn: ast.AST, params: Set[str]
    ) -> Iterable[Violation]:
        guards: List[Tuple[int, str]] = []  # (line, param)
        uses: List[Tuple[int, int, str, str]] = []  # (line, col, param, what)
        for node in ast.walk(fn):
            is_len, param = _is_len_of(node, params)
            if is_len:
                guards.append((node.lineno, param))
                continue
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in params
                and not isinstance(node.slice, ast.Slice)
            ):
                # An index read raises IndexError on a short buffer; a
                # standalone slice merely truncates and is always safe.
                uses.append(
                    (node.lineno, node.col_offset, node.value.id, f"index into {node.value.id!r}")
                )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                from_bytes = (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "int"
                    and func.attr == "from_bytes"
                )
                struct_unpack = (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "struct"
                    and func.attr.startswith("unpack")
                )
                if not (from_bytes or struct_unpack):
                    continue
                for arg in node.args:
                    target = None
                    if isinstance(arg, ast.Name) and arg.id in params:
                        target = arg.id
                    elif (
                        isinstance(arg, ast.Subscript)
                        and isinstance(arg.value, ast.Name)
                        and arg.value.id in params
                    ):
                        target = arg.value.id
                    if target is not None:
                        uses.append(
                            (
                                node.lineno,
                                node.col_offset,
                                target,
                                f"{ast.unparse(func)}() on {target!r}",
                            )
                        )
        for line, col, param, what in sorted(uses):
            guarded = any(g_line <= line and g_param == param for g_line, g_param in guards)
            if guarded:
                continue
            yield Violation(
                path=source.path,
                line=line,
                col=col + 1,
                rule="parser-bounds",
                message=(
                    f"{what} with no preceding len({param}) bounds check in this "
                    f"function; guard before slicing untrusted payloads"
                ),
            )
