"""Core of the ``quit-check`` linter: file model, rule protocol, runner.

A :class:`Project` is a bag of parsed Python files.  Rules are pure
functions of the project — they never import or execute the code under
analysis, so the linter works on broken checkouts and fixture trees
with seeded violations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific location."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass
class SourceFile:
    """A parsed Python source file."""

    path: Path
    text: str
    tree: ast.Module

    @property
    def stem(self) -> str:
        return self.path.stem

    @property
    def display(self) -> str:
        return str(self.path)


@dataclass
class Project:
    """The set of files a lint run sees, plus parse errors."""

    files: List[SourceFile] = field(default_factory=list)
    parse_errors: List[Finding] = field(default_factory=list)

    @classmethod
    def from_paths(cls, paths: Sequence[Path]) -> "Project":
        project = cls()
        for py in _collect(paths):
            try:
                text = py.read_text(encoding="utf-8")
            except OSError as exc:
                project.parse_errors.append(
                    Finding("parse", str(py), 0, f"unreadable: {exc}")
                )
                continue
            try:
                tree = ast.parse(text, filename=str(py))
            except SyntaxError as exc:
                project.parse_errors.append(
                    Finding("parse", str(py), exc.lineno or 0, f"syntax error: {exc.msg}")
                )
                continue
            project.files.append(SourceFile(path=py, text=text, tree=tree))
        return project


def _collect(paths: Sequence[Path]) -> Iterable[Path]:
    seen = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for py in candidates:
            if "__pycache__" in py.parts:
                continue
            key = py.resolve()
            if key not in seen:
                seen.add(key)
                yield py


@dataclass(frozen=True)
class Rule:
    """A named check over a :class:`Project`."""

    name: str
    description: str
    check: Callable[[Project], List[Finding]]


_REGISTRY: Dict[str, Rule] = {}


def register(name: str, description: str) -> Callable[
    [Callable[[Project], List[Finding]]], Callable[[Project], List[Finding]]
]:
    """Decorator: add a check function to the global rule registry."""

    def deco(fn: Callable[[Project], List[Finding]]) -> Callable[[Project], List[Finding]]:
        if name in _REGISTRY:
            raise ValueError(f"duplicate rule name: {name!r}")
        _REGISTRY[name] = Rule(name=name, description=description, check=fn)
        return fn

    return deco


def all_rules() -> Tuple[Rule, ...]:
    """All registered rules, importing the rule modules on first use."""
    from . import rules as _rules  # noqa: F401  (import registers rules)

    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def run_rules(
    project: Project,
    rule_names: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run the selected rules (default: all) and return sorted findings.

    Parse errors always surface, regardless of rule selection — a file
    the linter cannot read is a finding in itself.
    """
    rules = all_rules()
    if rule_names:
        wanted = set(rule_names)
        known = {r.name for r in rules}
        unknown = wanted - known
        if unknown:
            raise ValueError(
                f"unknown rule(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        rules = tuple(r for r in rules if r.name in wanted)
    findings: List[Finding] = list(project.parse_errors)
    for rule in rules:
        findings.extend(rule.check(project))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings
