"""exception-flow: wire handlers map exceptions to typed ``ST_*`` statuses.

The network tier's error contract has three clauses, all conventional
until now:

1. **No raw machinery exceptions on the wire.**  A *handler* — any
   function that produces wire statuses, detected structurally as one
   returning ``(ST_*, flags, payload)`` tuples or passing an ``ST_*``
   constant to a responder — must not let a raw ``OSError``,
   ``AssertionError`` or ``SimulatedCrash`` escape.  Escapes are
   computed by a raise/except propagation fixpoint over ``repro.net``
   and ``repro.core.health``: each function's *escape set* is its
   explicit ``raise`` sites plus its callees' escape sets, filtered
   through enclosing ``try``/``except`` clauses using the exception
   hierarchy (rebuilt from the project's own class definitions layered
   over the builtin hierarchy).  A finding points at the *origin raise
   site*, however deep.

2. **Machinery exceptions pass through.**  A handler clause catching
   ``BaseException`` (or bare ``except``, or ``SimulatedCrash``
   directly) must contain a bare ``raise`` — a simulated crash or
   cancellation must tear the task down, never become a frame.

3. **Typed refusals stay typed.**  An ``except`` clause catching a
   typed refusal (:data:`TYPED_REFUSALS` — ``ReadOnlyError``, the
   ``NetError`` family, fencing/quorum refusals) must not re-raise it
   as anything in the ``OSError`` family (``TransientNetworkError``
   included): wrapping a refusal in a retryable errno turns "stop" into
   "try again harder".

The analysis under-approximates: unresolvable calls contribute nothing,
and only explicit ``raise`` statements seed escapes — which is exactly
the contract's shape, since every *intentional* error in scope is
raised explicitly.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..callgraph import (
    CallResolver,
    ClassMap,
    FuncKey,
    FunctionInfo,
    collect_functions,
    collect_self_aliases,
    module_function_index,
    qualname,
)
from ..engine import Finding, Project, register
from .lock_discipline import ATTR_TYPES as _LOCK_ATTR_TYPES

RULE = "exception-flow"

ST_RE = re.compile(r"^ST_[A-Z_]+$")

# Builtin exception hierarchy (the slice this repo can meet), layered
# under the project's own classes discovered via ClassMap.
BUILTIN_BASES: Dict[str, str] = {
    "Exception": "BaseException",
    "OSError": "Exception",
    "IOError": "OSError",
    "ConnectionError": "OSError",
    "ConnectionResetError": "ConnectionError",
    "ConnectionAbortedError": "ConnectionError",
    "BrokenPipeError": "ConnectionError",
    "TimeoutError": "OSError",
    "timeout": "OSError",  # socket.timeout alias
    "InterruptedError": "OSError",
    "FileNotFoundError": "OSError",
    "PermissionError": "OSError",
    "ValueError": "Exception",
    "UnicodeDecodeError": "ValueError",
    "TypeError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "LookupError": "Exception",
    "KeyError": "LookupError",
    "IndexError": "LookupError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "EOFError": "Exception",
    "MemoryError": "Exception",
    "SyntaxError": "Exception",
    "IncompleteReadError": "EOFError",
    "LimitOverrunError": "Exception",
    "SystemExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "GeneratorExit": "BaseException",
    "CancelledError": "BaseException",
}

#: Exception families that must never escape a handler raw.
FORBIDDEN: Tuple[str, ...] = ("OSError", "AssertionError", "SimulatedCrash")

#: Typed refusals: catching one and re-raising anything OSError-shaped
#: converts a deliberate "no" into a retryable transport error.
TYPED_REFUSALS: FrozenSet[str] = frozenset(
    {
        "ReadOnlyError",
        "NetError",
        "DeadlineError",
        "RetriesExhaustedError",
        "ServerReadOnlyError",
        "ServerFencedError",
        "RequestError",
        "ShedError",
        "QueueDeadlineError",
        "FencedError",
        "StaleEpochError",
        "AckQuorumError",
        "QuorumTimeoutError",
        "FailoverQuorumError",
    }
)

ATTR_TYPES: Dict[Tuple[str, str], str] = {
    **_LOCK_ATTR_TYPES,
    ("QuitServer", "backend"): "DurableTree",
    ("QuitServer", "admission"): "AdmissionController",
}

MODULE_ALIASES: FrozenSet[str] = frozenset({"protocol", "faults"})

#: One escaping exception: (type name, origin path, origin line).
_Escape = Tuple[str, str, int]


def _in_scope(src_display: str, stem: str) -> bool:
    """The analyzed slice: ``repro.net``, ``repro.core.health``, and
    ``exc_``-prefixed fixture modules."""
    normalized = src_display.replace("\\", "/")
    if "/net/" in normalized or normalized.endswith("core/health.py"):
        return True
    return stem.startswith("exc_")


def _terminal_name(expr: Optional[ast.expr]) -> Optional[str]:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


class _Hierarchy:
    """Subclass tests over project classes + the builtin table."""

    def __init__(self, class_map: ClassMap) -> None:
        self.project_bases = class_map.bases

    def ancestors(self, name: str) -> Set[str]:
        out: Set[str] = set()
        queue = [name]
        while queue:
            cur = queue.pop()
            for base in self.project_bases.get(cur, []) or (
                [BUILTIN_BASES[cur]] if cur in BUILTIN_BASES else []
            ):
                if base not in out:
                    out.add(base)
                    queue.append(base)
        return out

    def is_a(self, name: str, base: str) -> bool:
        return name == base or base in self.ancestors(name)

    def catches(self, clause: Optional[List[str]], name: str) -> bool:
        """Does an except clause (None = bare) catch exception *name*?

        Unknown exception names conservatively sit directly under
        ``Exception``, so ``except Exception`` always catches them.
        """
        if clause is None:
            return True
        ancestors = self.ancestors(name)
        if not ancestors and name not in BUILTIN_BASES:
            ancestors = {"Exception", "BaseException"}
        return any(t == name or t in ancestors for t in clause)


def _clause_names(handler: ast.ExceptHandler) -> Optional[List[str]]:
    """Caught type names for one except clause; None for bare except."""
    t = handler.type
    if t is None:
        return None
    if isinstance(t, ast.Tuple):
        names = [_terminal_name(e) for e in t.elts]
        return [n for n in names if n is not None]
    name = _terminal_name(t)
    return [name] if name is not None else []


class _EscapeScanner:
    """One pass of the escape computation over one function body."""

    def __init__(
        self,
        src_display: str,
        resolver: CallResolver,
        escapes: Dict[FuncKey, Set[_Escape]],
        hierarchy: _Hierarchy,
    ) -> None:
        self.display = src_display
        self.resolver = resolver
        self.escapes = escapes
        self.hierarchy = hierarchy

    def block(self, stmts: List[ast.stmt], caught: Set[_Escape]) -> Set[_Escape]:
        out: Set[_Escape] = set()
        for stmt in stmts:
            out |= self.stmt(stmt, caught)
        return out

    def stmt(self, stmt: ast.stmt, caught: Set[_Escape]) -> Set[_Escape]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return set()
        if isinstance(stmt, ast.Try):
            return self._try(stmt, caught)
        out = self._calls_in(stmt)
        if isinstance(stmt, ast.Raise):
            if stmt.exc is None:
                return out | caught
            name = _terminal_name(
                stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            )
            if name is not None:
                out.add((name, self.display, stmt.lineno))
            return out
        for attr in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, attr, None)
            if inner:
                out |= self.block(inner, caught)
        return out

    def _try(self, stmt: ast.Try, caught: Set[_Escape]) -> Set[_Escape]:
        body_esc = self.block(stmt.body, caught)
        remaining = set(body_esc)
        out: Set[_Escape] = set()
        for handler in stmt.handlers:
            clause = _clause_names(handler)
            matched = {
                e for e in remaining if self.hierarchy.catches(clause, e[0])
            }
            remaining -= matched
            out |= self.block(handler.body, matched)
        out |= remaining
        # else/finally run outside the handlers' protection.
        out |= self.block(stmt.orelse, caught)
        out |= self.block(stmt.finalbody, caught)
        return out

    def _calls_in(self, stmt: ast.stmt) -> Set[_Escape]:
        """Escapes contributed by calls in this statement's expressions."""
        out: Set[_Escape] = set()

        def walk(node: ast.AST) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return
            if isinstance(node, ast.Call):
                callee = self.resolver.resolve(node)
                if callee is not None:
                    out.update(self.escapes.get(callee, set()))
            for child in ast.iter_child_nodes(node):
                walk(child)

        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                continue
            walk(child)
        return out


def _is_handler(node: ast.AST) -> bool:
    """Structurally: produces wire statuses (returns or sends ``ST_*``)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Return) and isinstance(n.value, ast.Tuple):
            elts = n.value.elts
            if elts and ST_RE.match(_terminal_name(elts[0]) or ""):
                return True
        if isinstance(n, ast.Call):
            for arg in n.args:
                if ST_RE.match(_terminal_name(arg) or ""):
                    return True
    return False


def _bare_raise_in(body: List[ast.stmt]) -> bool:
    for stmt in body:
        for n in ast.walk(stmt):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            if isinstance(n, ast.Raise) and n.exc is None:
                return True
    return False


@register(
    RULE,
    "wire handlers must map exceptions to typed ST_* statuses",
)
def check(project: Project) -> List[Finding]:
    class_map = ClassMap(project)
    class_names = frozenset(class_map.bases)
    hierarchy = _Hierarchy(class_map)
    infos = collect_functions(project)
    module_funcs = module_function_index(infos)

    scoped: Dict[FuncKey, FunctionInfo] = {}
    resolvers: Dict[FuncKey, CallResolver] = {}
    for info in infos:
        if not _in_scope(info.src.display, info.src.stem):
            continue
        scoped[info.key] = info
        resolvers[info.key] = CallResolver(
            class_name=info.class_name,
            stem=info.src.stem,
            class_map=class_map,
            module_funcs=module_funcs,
            class_names=class_names,
            attr_types=ATTR_TYPES,
            module_aliases=MODULE_ALIASES,
            local_aliases=collect_self_aliases(
                info.node, info.class_name, ATTR_TYPES
            ),
        )

    # Escape-set fixpoint over the scoped slice.
    escapes: Dict[FuncKey, Set[_Escape]] = {key: set() for key in scoped}
    changed = True
    while changed:
        changed = False
        for key, info in scoped.items():
            scanner = _EscapeScanner(
                info.src.display, resolvers[key], escapes, hierarchy
            )
            new = scanner.block(list(getattr(info.node, "body", [])), set())
            if new != escapes[key]:
                escapes[key] = new
                changed = True

    findings: List[Finding] = []
    handlers = {key: info for key, info in scoped.items() if _is_handler(info.node)}

    # 1. Raw machinery exceptions escaping a handler.
    seen: Set[Tuple[str, int, str]] = set()
    for key, info in handlers.items():
        for name, path, line in escapes[key]:
            if not any(hierarchy.is_a(name, f) for f in FORBIDDEN):
                continue
            site = (path, line, name)
            if site in seen:
                continue
            seen.add(site)
            findings.append(
                Finding(
                    RULE,
                    path,
                    line,
                    f"raw {name} raised here can escape wire handler "
                    f"`{qualname(key)}` untyped; catch it on the handler "
                    "path and map it to a typed ST_* status",
                )
            )

    for key, info in scoped.items():
        is_handler = key in handlers
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                clause = _clause_names(handler)
                # 2. Machinery catch-alls in handlers must re-raise.
                if is_handler:
                    swallows = clause is None or any(
                        t in ("BaseException", "SimulatedCrash") for t in clause
                    )
                    if swallows and not _bare_raise_in(handler.body):
                        findings.append(
                            Finding(
                                RULE,
                                info.src.display,
                                handler.lineno,
                                "catch-all over BaseException/SimulatedCrash "
                                f"in wire handler `{qualname(key)}` without a "
                                "bare `raise`; machinery exceptions must tear "
                                "the task down, not become a frame",
                            )
                        )
                # 3. Typed refusals must not be wrapped retryable.
                caught_refusals = [
                    t
                    for t in (clause or [])
                    if t in TYPED_REFUSALS
                    or any(a in TYPED_REFUSALS for a in hierarchy.ancestors(t))
                ]
                if not caught_refusals:
                    continue
                for inner in ast.walk(handler):
                    if (
                        isinstance(inner, ast.Raise)
                        and inner.exc is not None
                    ):
                        raised = _terminal_name(
                            inner.exc.func
                            if isinstance(inner.exc, ast.Call)
                            else inner.exc
                        )
                        if raised is not None and hierarchy.is_a(
                            raised, "OSError"
                        ):
                            findings.append(
                                Finding(
                                    RULE,
                                    info.src.display,
                                    inner.lineno,
                                    f"typed refusal {caught_refusals[0]} "
                                    f"re-raised as retryable {raised}; "
                                    "refusals must stay typed so clients "
                                    "stop instead of retrying harder",
                                )
                            )
    findings.sort(key=lambda f: (f.path, f.line, f.message))
    return findings
