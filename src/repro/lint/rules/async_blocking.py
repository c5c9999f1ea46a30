"""async-blocking: no blocking call may run on the event-loop thread.

The asyncio tier (``repro.net``) keeps every piece of server state on
the loop thread and bridges to the blocking storage engine through
``loop.run_in_executor``.  That discipline is purely conventional —
nothing stops a refactor from calling ``ticket.wait()`` or reaching
``os.fsync`` three frames below an ``async def``.  This rule rebuilds
the convention statically:

1. **Blocking facts.**  Every function's *direct* blocking calls are
   collected from the canonical tables in
   :mod:`repro.concurrency.sanitizer` — :data:`~repro.concurrency.
   sanitizer.BLOCKING_CALLS` for dotted names (``os.fsync``,
   ``time.sleep``, bare ``open``) and :data:`~repro.concurrency.
   sanitizer.BLOCKING_METHODS` for method names (``.wait()``,
   ``.acquire()``, ``.drain_acks()``, ``.scrub()`` …).  The runtime
   loop-stall watchdog labels stalls from the same tables, so the
   static and dynamic halves of the contract cannot drift.  A method
   call directly under ``await`` is exempt — ``await lock.acquire()``
   is the asyncio flavor, not the blocking one — and ``asyncio.*``
   never blocks.  A sync-lock ``with`` (recognized exactly as
   ``lock-discipline`` does) is flagged when it appears *directly* in
   an ``async def`` body; lock scopes inside sync helpers are the
   intended loop-thread read path and stay exempt.

2. **Reachability.**  Calls are resolved with the shared
   :mod:`repro.lint.callgraph` resolver and every function reachable
   from an ``async def`` body is visited breadth-first; a blocking
   fact anywhere on the walk is reported *at the blocking call site*
   with the full path from the async entry point.

3. **Clearing.**  Function *references* passed to
   ``run_in_executor``/``asyncio.to_thread`` are not calls, so the
   walk never enters them — wrapping a bridge in an executor clears it
   naturally.  An explicit ``# loop-safe: <reason>`` pragma on a call
   line suppresses that line's facts and the traversal of its calls;
   on a ``def`` line it marks the whole function loop-safe.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ...concurrency.sanitizer import BLOCKING_CALLS, BLOCKING_METHODS
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
from .lock_discipline import (
    ATTR_TYPES as _LOCK_ATTR_TYPES,
    CANONICAL,
    EXCLUDED_STEMS,
    LOCK_SUFFIXES,
    NAME_CALL_LOCKS,
)

RULE = "async-blocking"

# Facade typing for call resolution: the lock rule's table plus the
# server's storage handle (the async tier's one blocking dependency).
ATTR_TYPES: Dict[Tuple[str, str], str] = {
    **_LOCK_ATTR_TYPES,
    ("QuitServer", "backend"): "DurableTree",
    ("QuitServer", "admission"): "AdmissionController",
    ("BackgroundServer", "server"): "QuitServer",
}

MODULE_ALIASES: FrozenSet[str] = frozenset({"protocol", "faults"})

#: ``# loop-safe: <reason>`` — the reason is mandatory; a bare pragma
#: with nothing to say does not suppress.
LOOP_SAFE_PRAGMA = re.compile(r"#\s*loop-safe:\s*\S")


@dataclass
class _Facts:
    info: FunctionInfo
    loop_safe: bool = False
    direct: List[Tuple[int, str]] = field(default_factory=list)
    calls: List[Tuple[FuncKey, int]] = field(default_factory=list)


def _dotted(expr: ast.expr) -> Optional[str]:
    """``os.fsync`` for a pure ``Name.attr…`` chain, else None."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _blocking_label(call: ast.Call, awaited: bool) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        dotted = _dotted(func)
        if dotted is not None and dotted.startswith("asyncio."):
            return None  # the async flavor never blocks
        if dotted is not None and dotted in BLOCKING_CALLS:
            return f"`{dotted}` ({BLOCKING_CALLS[dotted]})"
        if (
            not awaited
            and func.attr in BLOCKING_METHODS
            # `", ".join(parts)` is a string join, not a thread join.
            and not isinstance(func.value, ast.Constant)
        ):
            return f"`.{func.attr}()` ({BLOCKING_METHODS[func.attr]})"
        return None
    if isinstance(func, ast.Name) and not awaited:
        if func.id in BLOCKING_CALLS:
            return f"`{func.id}()` ({BLOCKING_CALLS[func.id]})"
    return None


def _sync_lock_id(expr: ast.expr, stem: str) -> Optional[str]:
    """Lock id for a ``with`` item, using the lock rule's recognizers."""
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "read_locked",
            "write_locked",
            "locked",
        ):
            return _sync_lock_id(func.value, stem)
        if isinstance(func, ast.Name) and func.id in NAME_CALL_LOCKS:
            return NAME_CALL_LOCKS[func.id]
        return None
    attr = None
    if isinstance(expr, ast.Attribute):
        attr = expr.attr
    elif isinstance(expr, ast.Name):
        attr = expr.id
    if attr is None:
        return None
    canonical = CANONICAL.get((stem, attr))
    if canonical is not None:
        return canonical
    if attr.endswith(LOCK_SUFFIXES):
        return f"{stem}.{attr}"
    return None


def _pragma_lines(text: str) -> Set[int]:
    return {
        i
        for i, line in enumerate(text.splitlines(), start=1)
        if LOOP_SAFE_PRAGMA.search(line)
    }


def _scan(facts: _Facts, resolver: CallResolver, pragmas: Set[int]) -> None:
    stem = facts.info.src.stem

    def walk(node: ast.AST, awaited: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # runs in another dynamic context (or the executor)
        if isinstance(node, ast.Await):
            walk(node.value, True)
            return
        if isinstance(node, ast.Call):
            if node.lineno not in pragmas:
                label = _blocking_label(node, awaited)
                if label is not None:
                    facts.direct.append((node.lineno, label))
                callee = resolver.resolve(node)
                if callee is not None:
                    facts.calls.append((callee, node.lineno))
            # Arguments to asyncio combinators (wait_for, shield,
            # gather …) are coroutines: `.acquire()` there is the
            # asyncio flavor, same as directly under `await`.
            dotted = _dotted(node.func)
            in_combinator = dotted is not None and dotted.startswith("asyncio.")
            for child in ast.iter_child_nodes(node):
                walk(child, in_combinator)
            return
        if isinstance(node, ast.With) and facts.info.is_async:
            for item in node.items:
                if node.lineno in pragmas:
                    continue
                lock = _sync_lock_id(item.context_expr, stem)
                if lock is not None:
                    facts.direct.append(
                        (
                            node.lineno,
                            f"sync lock {lock!r} held on the loop thread "
                            "(use asyncio.Lock or bridge the section)",
                        )
                    )
        for child in ast.iter_child_nodes(node):
            walk(child, False)

    for stmt in getattr(facts.info.node, "body", []):
        walk(stmt, False)


@register(
    RULE,
    "no blocking call may be reachable from an async def on the loop thread",
)
def check(project: Project) -> List[Finding]:
    infos = collect_functions(
        project, excluded_stems=EXCLUDED_STEMS, include_nested=True
    )
    class_map = ClassMap(project)
    class_names = frozenset(class_map.bases)
    module_funcs = module_function_index(infos)
    pragma_cache: Dict[str, Set[int]] = {}

    funcs: Dict[FuncKey, _Facts] = {}
    for info in infos:
        pragmas = pragma_cache.setdefault(
            info.src.display, _pragma_lines(info.src.text)
        )
        facts = _Facts(info, loop_safe=info.node.lineno in pragmas)
        funcs[info.key] = facts
        if facts.loop_safe:
            continue
        resolver = CallResolver(
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
        _scan(facts, resolver, pragmas)

    roots = sorted(
        (k for k, f in funcs.items() if f.info.is_async and not f.loop_safe),
        key=lambda k: (funcs[k].info.src.display, funcs[k].info.node.lineno),
    )

    findings: List[Finding] = []
    reported: Set[Tuple[str, int, str]] = set()
    for root in roots:
        parent: Dict[FuncKey, Optional[FuncKey]] = {root: None}
        queue: List[FuncKey] = [root]
        while queue:
            key = queue.pop(0)
            facts = funcs[key]
            for line, label in facts.direct:
                site = (facts.info.src.display, line, label)
                if site in reported:
                    continue
                reported.add(site)
                chain: List[str] = []
                cursor: Optional[FuncKey] = key
                while cursor is not None:
                    chain.append(qualname(cursor))
                    cursor = parent[cursor]
                chain.reverse()
                findings.append(
                    Finding(
                        RULE,
                        facts.info.src.display,
                        line,
                        f"blocking call {label} reachable on the event-loop "
                        f"thread from `async def {qualname(root)}` "
                        f"(path: {' -> '.join(chain)}); bridge it through "
                        "run_in_executor/asyncio.to_thread or annotate the "
                        "line with `# loop-safe: <reason>`",
                    )
                )
            for callee, _line in facts.calls:
                nxt = funcs.get(callee)
                if nxt is None or nxt.loop_safe or callee in parent:
                    continue
                parent[callee] = key
                queue.append(callee)
    findings.sort(key=lambda f: (f.path, f.line))
    return findings
