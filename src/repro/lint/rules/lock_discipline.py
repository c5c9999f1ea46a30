"""lock-discipline: static lock-order + guarded-write analysis.

The repo has one canonical lock order — outermost first — defined in
:data:`repro.concurrency.sanitizer.LOCK_ORDER` (the runtime sanitizer
checks the same table, so static and dynamic analysis cannot drift).
This rule rebuilds the acquisition graph *statically*:

1. **Lock recognition.**  ``with`` items are matched syntactically:
   ``with self._gate.read_locked():``, ``with self._meta:``,
   ``with self._leaf_locks.locked(n):``, a local alias bound from
   ``lock_for(...)``, a module-level ``with _lock:``, and the
   ``exclusive()`` escape hatch.  Known attributes map to canonical
   lock ids via :data:`CANONICAL`; unknown lock-shaped attributes get a
   synthetic ``<module>.<attr>`` id and still participate in cycle
   detection.

2. **Inter-procedural summaries.**  Each function's *acquisition
   summary* (every lock it may take, transitively) is propagated to its
   callers through a fixpoint over resolvable calls, using the shared
   :mod:`repro.lint.callgraph` machinery (:class:`~repro.lint.callgraph.
   CallResolver` with :data:`ATTR_TYPES` as the facade-typing table):
   ``self.method()`` through base classes, attribute chains
   (``self.durable.wal.sync`` → ``WriteAheadLog.sync``), class-name
   receivers (``DurableTree.recover``), the ``faults`` module
   alias, and bare-name calls to module-level functions.  Unresolvable
   calls are skipped — the analysis under-approximates rather than
   cry wolf.

3. **Checks.**  Every nesting edge (lexical ``with`` nesting *and*
   call-under-lock edges) is checked: two ranked locks must nest in
   canonical order; acquiring a lock already held is flagged; edges
   touching unranked locks feed a cycle detector (Tarjan SCC) so fixture
   or future locks without a rank still can't deadlock silently.

4. **Guarded writes.**  Writes to fields the concurrency design says
   are lock-protected (:data:`GUARDED_FIELDS`) must occur inside *some*
   lock scope; :data:`STRICT_CLASSES` extends that to every ``self.*``
   write outside ``__init__``.  Two escape hatches exist for methods
   whose callers hold the lock: the ``*_locked`` name suffix (assumed
   to run under the owning class's primary lock, see
   :data:`PRIMARY_LOCK`) and an explicit ``# holds: <lock-id>`` pragma
   comment anywhere in the function body.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ...concurrency.sanitizer import LOCK_ORDER
from ..callgraph import (
    CallResolver,
    ClassMap,
    FuncKey,
    FunctionInfo,
    collect_functions,
    fixpoint,
    module_function_index,
)
from ..engine import Finding, Project, SourceFile, register

RULE = "lock-discipline"

RANK: Dict[str, int] = {name: i for i, name in enumerate(LOCK_ORDER)}

# (module stem, attribute) -> canonical lock id.  Single place that ties
# source attributes to the sanitizer's lock names.
CANONICAL: Dict[Tuple[str, str], str] = {
    ("concurrent_tree", "_structure"): "concurrent.structure",
    ("concurrent_tree", "_meta"): "concurrent.meta",
    ("concurrent_tree", "_leaf_locks"): "concurrent.leaf",
    ("durable", "_gate"): "durable.gate",
    ("wal", "_lock"): "wal.append",
    ("wal", "_group_lock"): "wal.group.queue",
    ("replica", "_lock"): "repl.replica",
    ("primary", "_meta_lock"): "repl.primary.meta",
    ("coordinator", "_lock"): "repl.epoch",
    ("faults", "_lock"): "faults",
    ("health", "_lock"): "health",
    ("scrubber", "_lock"): "scrub.cycle",
    # The scrubber verifies under the owning tree's checkpoint gate.
    ("scrubber", "_gate"): "durable.gate",
}

# `with <name>():` calls that acquire a lock without naming it.
NAME_CALL_LOCKS: Dict[str, str] = {"exclusive": "concurrent.structure"}

# Facade attribute typing for call resolution: (class, attr) -> class.
ATTR_TYPES: Dict[Tuple[str, str], str] = {
    ("DurableTree", "tree"): "ConcurrentTree",
    ("DurableTree", "wal"): "WriteAheadLog",
    ("Primary", "durable"): "DurableTree",
    ("Primary", "wal"): "WriteAheadLog",
    ("Primary", "registry"): "EpochRegistry",
    ("Replica", "durable"): "DurableTree",
    ("Replica", "transport"): "Primary",
    ("FailoverCoordinator", "registry"): "EpochRegistry",
    ("FailoverCoordinator", "primary"): "Primary",
    ("DurableTree", "health"): "HealthMonitor",
    ("WriteAheadLog", "health"): "HealthMonitor",
}

# Module aliases whose attribute calls resolve to module-level functions.
MODULE_ALIASES: FrozenSet[str] = frozenset({"faults"})

# `*_locked` methods are assumed to run under their class's primary lock.
PRIMARY_LOCK: Dict[str, str] = {
    "WriteAheadLog": "wal.append",
    "Replica": "repl.replica",
    "ConcurrentTree": "concurrent.structure",
    "DurableTree": "durable.gate",
    "Primary": "repl.primary.meta",
    "EpochRegistry": "repl.epoch",
    "HealthMonitor": "health",
    "Scrubber": "scrub.cycle",
}

# Fields the concurrency design requires a lock around every write to.
GUARDED_FIELDS: Dict[str, FrozenSet[str]] = {
    "WriteAheadLog": frozenset(
        {
            "records_appended",
            "bytes_appended",
            "syncs",
            "rotations",
            "_since_sync",
            "_active_size",
            "_fh",
            "_seq",
            "unsynced_acks",
            "group_batches",
            "group_batch_records",
            "group_batch_max",
            "_group_pending",
            "_group_closing",
            "_group_dead",
        }
    ),
    "DurableTree": frozenset({"checkpoints", "last_checkpoint_position"}),
    "Replica": frozenset({"position", "durable"}),
    "Primary": frozenset({"_base", "_pending_tickets"}),
    "HealthMonitor": frozenset(
        {
            "_state",
            "_last_error",
            "retries",
            "degradations",
            "read_only_trips",
            "recoveries",
        }
    ),
    "Scrubber": frozenset(
        {
            "_cursor_seq",
            "cycles",
            "corruptions",
            "quarantines",
            "repairs",
            "peer_repairs",
        }
    ),
}

# Classes where *every* `self.*` write outside __init__ must be locked.
STRICT_CLASSES: FrozenSet[str] = frozenset({"ConcurrentTree"})

# Lock-primitive internals: their `with self._cond:` etc. is the
# implementation of locking, not a use of it.
EXCLUDED_STEMS: FrozenSet[str] = frozenset({"locks", "sanitizer"})

LOCK_SUFFIXES: Tuple[str, ...] = ("_lock", "_locks", "_mutex", "_gate")

HOLDS_PRAGMA = re.compile(r"#\s*holds:\s*([\w.\-]+)")


@dataclass
class _Edge:
    outer: str
    inner: str
    path: str
    line: int
    via: str  # "with" | "call"


@dataclass
class _FuncFacts:
    key: FuncKey
    src: SourceFile
    node: ast.AST
    class_name: Optional[str]
    assumed_held: List[str] = field(default_factory=list)
    direct: Set[str] = field(default_factory=set)
    calls: List[Tuple[FuncKey, Tuple[str, ...], int]] = field(default_factory=list)
    edges: List[_Edge] = field(default_factory=list)
    unguarded: List[Finding] = field(default_factory=list)


def _lock_attr_id(stem: str, attr: str) -> Optional[str]:
    canonical = CANONICAL.get((stem, attr))
    if canonical is not None:
        return canonical
    if attr.endswith(LOCK_SUFFIXES):
        return f"{stem}.{attr}"
    return None


class _FunctionAnalyzer:
    """Collect facts for one function: acquisitions, edges, calls, writes."""

    def __init__(self, facts: _FuncFacts, resolver: CallResolver) -> None:
        self.facts = facts
        self.stem = facts.src.stem
        self.resolver = resolver
        self.aliases: Dict[str, str] = {}
        self._collect_aliases(facts.node)

    # -- lock expression recognition -----------------------------------

    def _collect_aliases(self, fn: ast.AST) -> None:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign):
                continue
            lock = self._lock_expr_id(node.value, allow_alias=False)
            if lock is None and isinstance(node.value, ast.Call):
                func = node.value.func
                if isinstance(func, ast.Attribute) and func.attr == "lock_for":
                    lock = self._lock_expr_id(func.value, allow_alias=False)
            if lock is not None:
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        self.aliases[tgt.id] = lock

    def _lock_expr_id(self, expr: ast.expr, allow_alias: bool = True) -> Optional[str]:
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "read_locked",
                "write_locked",
                "locked",
            ):
                return self._lock_expr_id(func.value, allow_alias)
            if isinstance(func, ast.Name) and func.id in NAME_CALL_LOCKS:
                return NAME_CALL_LOCKS[func.id]
            return None
        if isinstance(expr, ast.Attribute):
            return _lock_attr_id(self.stem, expr.attr)
        if isinstance(expr, ast.Name):
            if allow_alias and expr.id in self.aliases:
                return self.aliases[expr.id]
            if expr.id.endswith(LOCK_SUFFIXES):
                return _lock_attr_id(self.stem, expr.id)
        return None

    # -- traversal ------------------------------------------------------

    def run(self) -> None:
        body = getattr(self.facts.node, "body", [])
        self._visit_block(body, list(self.facts.assumed_held))

    def _visit_block(self, stmts: Sequence[ast.stmt], held: List[str]) -> None:
        for stmt in stmts:
            self._visit_stmt(stmt, held)

    def _visit_stmt(self, stmt: ast.stmt, held: List[str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are analyzed as their own unit
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in stmt.items:
                lock = self._lock_expr_id(item.context_expr)
                if lock is None:
                    self._scan_expr(item.context_expr, held)
                    continue
                self._record_acquire(lock, held + acquired, stmt.lineno)
                acquired.append(lock)
            self._visit_block(stmt.body, held + acquired)
            return
        # Statements with nested blocks keep the same held set.
        for block in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, block, None)
            if inner:
                self._visit_block(inner, held)
        for handler in getattr(stmt, "handlers", []) or []:
            self._visit_block(handler.body, held)
        # Expressions in this statement (tests, calls, targets).
        for expr in ast.iter_child_nodes(stmt):
            if isinstance(expr, (ast.stmt, ast.ExceptHandler)):
                continue
            self._scan_expr(expr, held)
        self._check_writes(stmt, held)

    def _record_acquire(self, lock: str, held: Sequence[str], line: int) -> None:
        self.facts.direct.add(lock)
        for outer in held:
            self.facts.edges.append(
                _Edge(outer, lock, self.facts.src.display, line, "with")
            )

    def _scan_expr(self, expr: ast.AST, held: List[str]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                key = self.resolver.resolve(node)
                if key is not None:
                    self.facts.calls.append((key, tuple(held), node.lineno))

    # -- guarded writes -------------------------------------------------

    def _check_writes(self, stmt: ast.stmt, held: List[str]) -> None:
        if held or self.facts.assumed_held:
            return
        cls = self.facts.class_name
        if cls is None:
            return
        fn_name = self.facts.key[1]
        if fn_name in ("__init__", "__new__"):
            return
        guarded = GUARDED_FIELDS.get(cls, frozenset())
        strict = cls in STRICT_CLASSES
        if not guarded and not strict:
            return
        if not isinstance(stmt, (ast.Assign, ast.AugAssign)):
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for tgt in targets:
            if not (
                isinstance(tgt, ast.Attribute)
                and isinstance(tgt.value, ast.Name)
                and tgt.value.id == "self"
            ):
                continue
            if tgt.attr in guarded or strict:
                self.facts.unguarded.append(
                    Finding(
                        RULE,
                        self.facts.src.display,
                        stmt.lineno,
                        f"write to {cls}.{tgt.attr} outside any lock scope; "
                        "this field is lock-protected (add the lock, a "
                        "`# holds: <lock>` pragma, or a `_locked` suffix "
                        "if the caller holds it)",
                    )
                )


def _collect_facts(
    project: Project, infos: Sequence["FunctionInfo"]
) -> List[_FuncFacts]:
    """Wrap the shared collector's output, layering on the lock pragmas."""
    out: List[_FuncFacts] = []
    line_cache: Dict[str, List[str]] = {}
    for info in infos:
        lines = line_cache.setdefault(info.src.display, info.src.text.splitlines())
        facts = _FuncFacts(
            key=info.key, src=info.src, node=info.node, class_name=info.class_name
        )
        start = getattr(info.node, "lineno", 1) - 1
        end = getattr(info.node, "end_lineno", start + 1)
        for raw in lines[start:end]:
            m = HOLDS_PRAGMA.search(raw)
            if m:
                facts.assumed_held.append(m.group(1))
        name = info.key[1]
        if name.endswith("_locked") and info.class_name is not None:
            primary = PRIMARY_LOCK.get(info.class_name)
            if primary is not None and primary not in facts.assumed_held:
                facts.assumed_held.append(primary)
        out.append(facts)
    return out


def _summaries(functions: Dict[FuncKey, _FuncFacts]) -> Dict[FuncKey, Set[str]]:
    calls = {
        key: [callee for callee, _held, _line in facts.calls]
        for key, facts in functions.items()
    }
    seed = {key: set(facts.direct) for key, facts in functions.items()}
    return fixpoint(calls, seed)


def _tarjan_sccs(edges: Dict[Tuple[str, str], _Edge]) -> List[Set[str]]:
    graph: Dict[str, Set[str]] = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[Set[str]] = []
    counter = [0]

    def strongconnect(v: str) -> None:
        # Iterative Tarjan: recursion depth is bounded by lock count,
        # but iterative keeps fixture graphs from ever mattering.
        work: List[Tuple[str, List[str]]] = [(v, list(graph[v]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, todo = work[-1]
            if todo:
                w = todo.pop()
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, list(graph[w])))
                elif w in on_stack:
                    low[node] = min(low[node], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    scc: Set[str] = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.add(w)
                        if w == node:
                            break
                    sccs.append(scc)

    for v in graph:
        if v not in index:
            strongconnect(v)
    return sccs


@register(
    RULE,
    "lock nesting must follow the canonical order; guarded fields need a lock",
)
def check(project: Project) -> List[Finding]:
    class_map = ClassMap(project)
    class_names = frozenset(class_map.bases)
    infos = collect_functions(project, excluded_stems=EXCLUDED_STEMS)
    all_facts = _collect_facts(project, infos)
    module_funcs = module_function_index(infos)

    functions: Dict[FuncKey, _FuncFacts] = {}
    for facts in all_facts:
        functions[facts.key] = facts
        resolver = CallResolver(
            class_name=facts.class_name,
            stem=facts.src.stem,
            class_map=class_map,
            module_funcs=module_funcs,
            class_names=class_names,
            attr_types=ATTR_TYPES,
            module_aliases=MODULE_ALIASES,
            skip_names=frozenset(NAME_CALL_LOCKS),
        )
        _FunctionAnalyzer(facts, resolver).run()

    summary = _summaries(functions)

    findings: List[Finding] = []
    edges: Dict[Tuple[str, str], _Edge] = {}

    def add_edge(edge: _Edge) -> None:
        if edge.outer == edge.inner:
            findings.append(
                Finding(
                    RULE,
                    edge.path,
                    edge.line,
                    f"lock {edge.inner!r} acquired while already held "
                    f"(via {edge.via}); locks here are not reentrant",
                )
            )
            return
        edges.setdefault((edge.outer, edge.inner), edge)

    for facts in functions.values():
        for edge in facts.edges:
            add_edge(edge)
        for callee, held, line in facts.calls:
            for inner in summary.get(callee, ()):
                for outer in held:
                    add_edge(
                        _Edge(outer, inner, facts.src.display, line, "call")
                    )

    for (outer, inner), edge in sorted(edges.items()):
        if outer in RANK and inner in RANK and RANK[outer] >= RANK[inner]:
            findings.append(
                Finding(
                    RULE,
                    edge.path,
                    edge.line,
                    f"lock order inversion: {inner!r} (rank {RANK[inner]}) "
                    f"acquired under {outer!r} (rank {RANK[outer]}); "
                    f"canonical order is {' -> '.join(LOCK_ORDER)}",
                )
            )

    for scc in _tarjan_sccs(edges):
        if len(scc) < 2:
            continue
        members = sorted(scc)
        for (outer, inner), edge in sorted(edges.items()):
            if outer in scc and inner in scc:
                findings.append(
                    Finding(
                        RULE,
                        edge.path,
                        edge.line,
                        f"lock cycle among {{{', '.join(members)}}}: "
                        f"{outer!r} nests inside-out with {inner!r} "
                        "(potential deadlock)",
                    )
                )

    for facts in functions.values():
        findings.extend(facts.unguarded)
    return findings
