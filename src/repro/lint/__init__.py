"""``quit-check``: repo-aware static analysis for the QuIT tree codebase.

The linter parses the source tree with :mod:`ast` (no imports of the
code under analysis are required for the syntactic rules) and runs a
small set of rules that encode *this repository's* invariants rather
than generic style:

``lock-discipline``
    Builds the static lock-acquisition graph from ``with`` blocks and
    inter-procedural call summaries, checks every nesting edge against
    the canonical order in
    :data:`repro.concurrency.sanitizer.LOCK_ORDER`, and flags writes to
    guarded shared fields that happen outside any lock scope.
``no-bare-assert``
    ``assert`` statements in shipped code vanish under ``python -O``;
    invariant checks must raise explicitly.
``fault-parity``
    Every ``faults.fire("name")`` and ``faults`` I/O shim literal must
    be registered in :mod:`repro.testing.faults` for the matching call
    form, and every registered site must be reached somewhere —
    otherwise fault-injection coverage silently rots.
``stats-parity``
    Attribute writes on stats objects must hit declared fields; a typo
    like ``stats.fast_insert += 1`` would otherwise create a fresh
    attribute and under-count forever.
``api-parity``
    Every tree variant / facade must expose the full batched surface
    (``insert_many``, ``get_many``, ``range_iter``, ``scrub``,
    ``check``) so benchmarks and the chaos harness can treat them
    interchangeably.

Entry points: the ``quit-check`` console script, or
``python -m repro.lint [paths...]``.
"""

from .engine import Finding, Project, Rule, SourceFile, all_rules, run_rules

__all__ = [
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "all_rules",
    "run_rules",
]
