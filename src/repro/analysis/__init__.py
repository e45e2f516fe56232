"""repro-verify: repo-specific static analysis (machine-checked invariants).

Five PRs of growth left the serving stack's correctness resting on invariants
that existed only as ROADMAP prose: log-before-apply inside the ordering lock,
reading a replica's incarnation before fetching its view, explicit view invalidation on
template-bypassing mutations, sorted-name all-locks acquisition, never the
salted builtin ``hash`` in placement code, never retrying a non-idempotent
POST.  Each was once a real bug or a reviewed near-miss; nothing but reviewer
memory stopped a later PR from silently reintroducing them.

This package turns that invariant catalog into machine-checked rules, the way
model checkers turn safety properties into proof obligations instead of
documentation: an AST-based pass (stdlib ``ast``, no dependencies) with

* a rule registry (``REP001`` .. ``REP011``, see :mod:`repro.analysis.rules`;
  each rule names the ROADMAP paragraph it enforces),
* per-line suppression comments --
  ``# repro-verify: ignore[REP003] <written justification>`` -- where the
  justification is *mandatory*: a suppression without one is itself reported
  (``REP000``) and fails the run,
* a CLI, ``python -m repro.analysis [paths]``, that exits non-zero on any
  violation and is wired into CI as a required job.

The static pass is paired with a *dynamic* lock-order race detector
(``tests/lockcheck.py``): the analyzer proves lexical discipline, the monitor
observes the cross-thread acquisition graph at runtime and fails on cycles
(potential deadlock) and on locks held across blocking socket I/O.
"""

from .engine import (
    SourceModule,
    Suppression,
    Violation,
    analyze_module,
    analyze_source,
    iter_source_files,
    run_analysis,
)
from .rules import Rule, all_rules, get_rule

__all__ = [
    "Rule",
    "SourceModule",
    "Suppression",
    "Violation",
    "all_rules",
    "analyze_module",
    "analyze_source",
    "get_rule",
    "iter_source_files",
    "run_analysis",
]
