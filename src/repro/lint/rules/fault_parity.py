"""fault-parity: fault sites and the registry must agree exactly.

``repro.testing.faults`` registers every site in four tuples:
``CONTROL_SITES`` (reached through ``faults.fire("x")``),
``LINK_SITES`` (reached through ``faults.link("repl.transport.x")``)
and ``IO_WRITE_SITES``/``IO_READ_SITES`` (reached through the disk
shims, ``faults.write("io.x", ...)`` and friends).  Three drift modes
rot the fault-injection coverage that registry promises:

* a call whose site is *not* registered can never be armed — the site
  is untestable;
* a registered site that no call of its form carries is dead weight —
  sweeps "cover" a site that no longer exists;
* a call of the wrong form — ``fire`` on an ``io.*`` or link site, or
  a shim on a control-flow site — can never raise the kinds its site
  permits.

All three are checked from the AST alone.  Non-literal site names are
flagged too, since they defeat static coverage accounting.  Shim and
``link`` calls count only when the receiver is literally named ``faults``
(``fh.write`` / ``os.replace`` must not match).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..engine import Finding, Project, SourceFile, register

RULE = "fault-parity"

REGISTRY_STEM = "faults"

#: Registry constant -> the call form its sites are reached through.
REGISTRY_FORMS: Dict[str, str] = {
    "CONTROL_SITES": "fire",
    "LINK_SITES": "link",
    "IO_WRITE_SITES": "shim",
    "IO_READ_SITES": "shim",
}

#: The shim surface: every fault-injectable disk operation.
SHIM_ATTRS = frozenset({"write", "fsync", "replace", "read_bytes"})

_FORM_TEXT = {
    "fire": "faults.fire()",
    "link": "faults.link()",
    "shim": "a faults I/O shim",
}


def _string_constants(node: ast.AST) -> Optional[List[ast.Constant]]:
    """String constants inside a tuple/list/set literal."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [
            elt
            for elt in node.elts
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        ]
    return None


def _find_registry(
    project: Project,
) -> Optional[Tuple[str, Dict[str, Tuple[int, str]]]]:
    """Locate the site tuples -> (file, {site: (lineno, form)})."""
    for src in project.files:
        if src.stem != REGISTRY_STEM:
            continue
        sites: Dict[str, Tuple[int, str]] = {}
        for node in src.tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                form = REGISTRY_FORMS.get(target.id)
                consts = _string_constants(node.value) if form else None
                for const in consts or ():
                    sites[const.value] = (const.lineno, form)
        if sites:
            return src.display, sites
    return None


def _iter_calls(
    project: Project,
) -> Iterator[Tuple[SourceFile, ast.Call, str]]:
    """Every ``fire``/``link``/shim call outside the registry, with its
    form."""
    for src in project.files:
        if src.stem == REGISTRY_STEM:
            continue  # the registry module's own plumbing
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "fire":
                yield src, node, "fire"
            elif isinstance(func, ast.Attribute):
                if func.attr == "fire":
                    yield src, node, "fire"
                elif (
                    isinstance(func.value, ast.Name)
                    and func.value.id == REGISTRY_STEM
                ):
                    if func.attr == "link":
                        yield src, node, "link"
                    elif func.attr in SHIM_ATTRS:
                        yield src, node, "shim"


@register(
    RULE,
    "every faults.fire/link/shim site literal must be registered for its "
    "call form, and every registered site must be reached",
)
def check(project: Project) -> List[Finding]:
    registry = _find_registry(project)
    if registry is None:
        # Linting a subtree without the registry: nothing to compare.
        return []
    registry_file, registered = registry

    findings: List[Finding] = []
    reached = set()
    for src, call, form in _iter_calls(project):
        if not call.args:
            continue
        arg = call.args[0]
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            findings.append(
                Finding(
                    RULE, src.display, call.lineno,
                    "fault site is not a string literal; "
                    "static coverage accounting cannot see it",
                )
            )
            continue
        site = arg.value
        if site not in registered:
            findings.append(
                Finding(
                    RULE, src.display, call.lineno,
                    f'fault site "{site}" is reached here through '
                    f"{_FORM_TEXT[form]} but not registered",
                )
            )
            continue
        expected = registered[site][1]
        if form != expected:
            findings.append(
                Finding(
                    RULE, src.display, call.lineno,
                    f'fault site "{site}" is reached here through '
                    f"{_FORM_TEXT[form]}, but its kinds need "
                    f"{_FORM_TEXT[expected]}",
                )
            )
            continue
        reached.add(site)
    for site, (lineno, form) in registered.items():
        if site not in reached:
            findings.append(
                Finding(
                    RULE, registry_file, lineno,
                    f'fault site "{site}" is registered but no '
                    f"{_FORM_TEXT[form]} call in the scanned tree "
                    "reaches it",
                )
            )
    return findings
