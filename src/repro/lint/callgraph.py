"""Shared inter-procedural machinery for ``quit-check`` rules.

Three rules do whole-program reasoning over the repo — ``lock-discipline``
(which locks can a call transitively acquire), ``async-blocking`` (which
blocking calls can the event-loop thread transitively reach) and
``exception-flow`` (which exception types can escape a handler).  They
all need the same three ingredients, extracted here so the analyses
cannot drift apart:

* :class:`ClassMap` — class hierarchy + method tables across the whole
  :class:`~repro.lint.engine.Project`, with base-class method
  resolution;
* :class:`CallResolver` — best-effort static resolution of a call
  expression to a :data:`FuncKey`: ``self.method()`` through base
  classes, attribute chains typed by a per-rule ``attr_types`` table
  (``self.durable.wal.sync`` → ``WriteAheadLog.sync``), class-name
  receivers (``DurableTree.recover``), module-alias calls
  (``faults.fire``), and bare-name calls to module-level functions.
  Unresolvable calls return ``None`` — every analysis built on this
  *under-approximates* rather than cry wolf;
* :func:`fixpoint` — propagate per-function fact sets to callers until
  stable (the classic bottom-up summary computation).

The per-rule semantic tables (which attributes are locks, which calls
block, which exceptions are typed refusals) stay in the rule modules —
this module only knows the call graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from .engine import Project, SourceFile

#: Identity of one analyzed function: ``(owner, name)`` where the owner
#: is a class name, ``"mod:<stem>"`` for module-level functions, or
#: ``"nested:<stem>:<line>"`` for nested defs (collected so their
#: bodies are analyzed, but never resolvable as call targets).
FuncKey = Tuple[str, str]

T = TypeVar("T")


@dataclass
class FunctionInfo:
    """One collected function: where it lives and what it is."""

    key: FuncKey
    src: SourceFile
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str]
    is_async: bool
    nested: bool


class ClassMap:
    """Class name -> (bases, method map) across the whole project."""

    def __init__(self, project: Project) -> None:
        self.bases: Dict[str, List[str]] = {}
        self.methods: Dict[FuncKey, bool] = {}
        for src in project.files:
            for node in ast.walk(src.tree):
                if isinstance(node, ast.ClassDef):
                    names = []
                    for b in node.bases:
                        if isinstance(b, ast.Name):
                            names.append(b.id)
                        elif isinstance(b, ast.Attribute):
                            names.append(b.attr)
                    self.bases[node.name] = names
                    for stmt in node.body:
                        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            self.methods[(node.name, stmt.name)] = True

    def resolve_method(self, cls: str, name: str) -> Optional[FuncKey]:
        """The defining ``(class, method)`` pair, walking base classes."""
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            cur = queue.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            if (cur, name) in self.methods:
                return (cur, name)
            queue.extend(self.bases.get(cur, []))
        return None


def collect_functions(
    project: Project,
    *,
    excluded_stems: FrozenSet[str] = frozenset(),
    include_nested: bool = False,
) -> List[FunctionInfo]:
    """Every function in the project as :class:`FunctionInfo`.

    Top-level functions get ``mod:<stem>`` owners and class methods get
    their class name, exactly as :class:`CallResolver` resolves them.
    With ``include_nested``, defs nested inside other functions are
    collected too (their bodies run in the enclosing dynamic context —
    the async rule must see inside ``async def`` helpers built in a
    CLI ``serve`` function) under unresolvable ``nested:`` owners.
    """
    out: List[FunctionInfo] = []

    def add(node: ast.AST, owner: str, cls: Optional[str], nested: bool) -> None:
        out.append(
            FunctionInfo(
                key=(owner, getattr(node, "name", "<lambda>")),
                src=src,
                node=node,
                class_name=cls,
                is_async=isinstance(node, ast.AsyncFunctionDef),
                nested=nested,
            )
        )

    def walk_nested(body: Iterable[ast.stmt], cls: Optional[str]) -> None:
        for inner in body:
            for node in ast.walk(inner):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(node, f"nested:{src.stem}:{node.lineno}", cls, True)

    for src in project.files:
        if src.stem in excluded_stems:
            continue
        for node in src.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(node, f"mod:{src.stem}", None, False)
                if include_nested:
                    walk_nested(node.body, None)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        add(stmt, node.name, node.name, False)
                        if include_nested:
                            walk_nested(stmt.body, node.name)
    return out


def module_function_index(
    functions: Iterable[FunctionInfo],
) -> Dict[Tuple[str, str], FuncKey]:
    """``(stem, name)`` -> key for module-level functions, plus a
    ``("*", name)`` fallback for cross-module bare-name calls."""
    index: Dict[Tuple[str, str], FuncKey] = {}
    for info in functions:
        owner, name = info.key
        if owner.startswith("mod:"):
            stem = owner[4:]
            index[(stem, name)] = info.key
            index.setdefault(("*", name), info.key)
    return index


class CallResolver:
    """Resolve call expressions in one function to :data:`FuncKey`\\ s.

    Args:
        class_name: the class owning the function being analyzed (for
            ``self``-receiver typing), or ``None``.
        stem: module stem of the file under analysis.
        class_map: project-wide class hierarchy.
        module_funcs: the :func:`module_function_index`.
        class_names: all known class names (classmethod-style receivers).
        attr_types: per-rule facade typing, ``(class, attr) -> class``.
        module_aliases: names treated as module receivers whose
            attribute calls resolve to that module's functions.
        skip_names: bare-name calls a rule handles specially (the lock
            rule's ``exclusive()``) — resolution returns ``None``.
        local_aliases: local-variable typing for one function, usually
            from :func:`collect_self_aliases` (``backend = self.backend``
            keeps resolving through the facade table).
    """

    def __init__(
        self,
        *,
        class_name: Optional[str],
        stem: str,
        class_map: ClassMap,
        module_funcs: Mapping[Tuple[str, str], FuncKey],
        class_names: FrozenSet[str],
        attr_types: Mapping[Tuple[str, str], str],
        module_aliases: FrozenSet[str] = frozenset(),
        skip_names: FrozenSet[str] = frozenset(),
        local_aliases: Mapping[str, str] = {},
    ) -> None:
        self.class_name = class_name
        self.stem = stem
        self.class_map = class_map
        self.module_funcs = module_funcs
        self.class_names = class_names
        self.attr_types = attr_types
        self.module_aliases = module_aliases
        self.skip_names = skip_names
        self.local_aliases = local_aliases

    def receiver_type(self, expr: ast.expr) -> Optional[str]:
        """Static type of an attribute-chain receiver, or None."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return self.class_name
            if expr.id in self.local_aliases:
                return self.local_aliases[expr.id]
            if expr.id in self.class_names:
                return expr.id  # classmethod-style receiver
            return None
        if isinstance(expr, ast.Attribute):
            base = self.receiver_type(expr.value)
            if base is None:
                return None
            # Typed facade hop, e.g. Replica.durable -> DurableTree.
            return self.attr_types.get((base, expr.attr))
        return None

    def resolve(self, call: ast.Call) -> Optional[FuncKey]:
        func = call.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in self.module_aliases:
                return self.module_funcs.get((base.id, func.attr))
            recv = self.receiver_type(base)
            if recv is not None:
                return self.class_map.resolve_method(recv, func.attr)
            return None
        if isinstance(func, ast.Name):
            if func.id in self.skip_names:
                return None
            key = self.module_funcs.get((self.stem, func.id))
            if key is not None:
                return key
            return self.module_funcs.get(("*", func.id))
        return None


def collect_self_aliases(
    fn_node: ast.AST,
    class_name: Optional[str],
    attr_types: Mapping[Tuple[str, str], str],
) -> Dict[str, str]:
    """Local ``name = self.<attr>`` aliases typed via ``attr_types``."""
    aliases: Dict[str, str] = {}
    if class_name is None:
        return aliases
    for node in ast.walk(fn_node):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            continue
        typed = attr_types.get((class_name, value.attr))
        if typed is None:
            continue
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                aliases[tgt.id] = typed
    return aliases


def qualname(key: FuncKey) -> str:
    """Human-readable name for a :data:`FuncKey` in finding messages."""
    owner, name = key
    if owner.startswith("mod:"):
        return f"{owner[4:]}.{name}"
    if owner.startswith("nested:"):
        return name
    return f"{owner}.{name}"


def fixpoint(
    calls: Mapping[FuncKey, Iterable[FuncKey]],
    seed: Dict[FuncKey, Set[T]],
) -> Dict[FuncKey, Set[T]]:
    """Propagate callee fact sets into callers until nothing changes.

    ``seed`` maps each function to its *direct* facts; the result adds
    every fact transitively reachable through ``calls``.  The seed dict
    is mutated in place and returned (callers usually want both views —
    pass a copy to keep the direct sets).
    """
    changed = True
    while changed:
        changed = False
        for key, callees in calls.items():
            mine = seed.setdefault(key, set())
            before = len(mine)
            for callee in callees:
                callee_facts = seed.get(callee)
                if callee_facts:
                    mine |= callee_facts
            if len(mine) != before:
                changed = True
    return seed
