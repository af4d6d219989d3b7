"""Project-wide analysis layer for reprolint.

Where :mod:`repro.lint.engine` lints one file at a time, this package
parses the whole tree once and links it: per-file fact **summaries**
(:mod:`~repro.lint.project.summary`), a symbol table / import graph /
call graph (:mod:`~repro.lint.project.graph`), a content-hash
incremental **cache** (:mod:`~repro.lint.project.cache`), and the
cross-module rule pack ABFT010-012 (:mod:`~repro.lint.project.rules`).

Entry point: :func:`analyze_project`, reached from the CLI via
``python -m repro.lint --project``.
"""

from repro.lint.project.cache import (
    CACHE_FILENAME,
    CACHE_VERSION,
    SummaryCache,
    file_digest,
    reverse_dependents,
)
from repro.lint.project.engine import (
    DIAGNOSTIC_RULE,
    ProjectResult,
    analyze_project,
)
from repro.lint.project.graph import FuncId, ModuleRecord, ProjectContext
from repro.lint.project.rules import PROJECT_RULES
from repro.lint.project.summary import Summary, extract_summary

__all__ = [
    "analyze_project",
    "ProjectResult",
    "DIAGNOSTIC_RULE",
    "ProjectContext",
    "ModuleRecord",
    "FuncId",
    "extract_summary",
    "Summary",
    "PROJECT_RULES",
    "SummaryCache",
    "CACHE_FILENAME",
    "CACHE_VERSION",
    "file_digest",
    "reverse_dependents",
]
