"""reprolint — AST-based static analysis of the repo's ABFT invariants.

The runtime cannot see protocol slips that only manifest as *missing*
protection: a mutated matrix whose checksums were never rebuilt still
detects nothing, a wrong comparison still returns a boolean, and a
swallowed injection error still looks like a clean trial.  This subsystem
closes that gap statically with a pluggable rule registry (a
:class:`repro.registry.Registry`), an initial pack of six ABFT rules (ABFT001-006),
inline ``# reprolint: disable=RULE -- reason`` suppressions, a committed
baseline so pre-existing findings warn instead of fail, and text / JSON /
SARIF reporters.

A second, project-wide generation of rules (ABFT010-012) lives in
:mod:`repro.lint.project`: the whole tree is parsed once into per-file
summaries, linked into a symbol table / import graph / call graph, and
checked for cross-module hazards — interprocedural checksum staleness,
unsynchronized shared state, hot-path allocation — with a content-hash incremental
cache so warm runs re-analyze only changed files and their
reverse-import dependents.

Run it as ``python -m repro.lint src/`` (per-file rules) or
``python -m repro.lint --project src/`` (project rules); see
:mod:`repro.lint.cli` for exit codes.  Programmatic entry points:
:func:`lint_paths` and :func:`analyze_project`.
"""

from repro.lint.baseline import (
    BaselineComparison,
    compare_with_baseline,
    load_baseline,
    render_baseline,
    write_baseline,
)
from repro.lint.engine import LintResult, lint_paths, lint_source
from repro.lint.findings import Finding, fingerprint, fingerprint_all
from repro.lint.project import (
    PROJECT_RULES,
    ProjectContext,
    ProjectResult,
    analyze_project,
)
from repro.lint.registry import (
    BUILTIN_RULES,
    available_rules,
    get_rule,
    register_rule,
    resolve_rules,
    unregister_rule,
)
from repro.lint.reporters import FORMATS, render, render_json, render_sarif, render_text
from repro.lint.rules import ABFT_RULES, LintRule, ModuleContext
from repro.lint.rules.base import ProjectRule
from repro.lint.suppressions import SuppressionIndex, parse_suppressions

for _rule in (*ABFT_RULES, *PROJECT_RULES):
    register_rule(_rule)

__all__ = [
    "Finding",
    "fingerprint",
    "fingerprint_all",
    "LintRule",
    "ProjectRule",
    "ModuleContext",
    "ABFT_RULES",
    "PROJECT_RULES",
    "BUILTIN_RULES",
    "register_rule",
    "unregister_rule",
    "available_rules",
    "get_rule",
    "resolve_rules",
    "LintResult",
    "lint_paths",
    "lint_source",
    "analyze_project",
    "ProjectResult",
    "ProjectContext",
    "SuppressionIndex",
    "parse_suppressions",
    "BaselineComparison",
    "load_baseline",
    "render_baseline",
    "write_baseline",
    "compare_with_baseline",
    "FORMATS",
    "render",
    "render_text",
    "render_json",
    "render_sarif",
]
