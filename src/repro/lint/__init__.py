"""reprolint — AST-based static analysis of the repo's ABFT invariants.

The runtime cannot see protocol slips that only manifest as *missing*
protection: a mutated matrix whose checksums were never rebuilt still
detects nothing, a wrong comparison still returns a boolean, and a
swallowed injection error still looks like a clean trial.  This
subsystem closes that gap statically, one file at a time, with a rule
table (a :class:`repro.registry.Registry`) of the ABFT rule pack
(ABFT001-007, ABFT013 and ABFT014), inline
``# reprolint: disable=RULE -- reason`` suppressions, a committed
baseline so pre-existing findings warn instead of fail, and text / JSON /
SARIF reporters.

Three properties that span modules are pinned by runtime tests instead:
``tests/schemes/test_conformance.py`` checks that no multiply writes the
protected matrix ``A`` or its checksum matrix ``C``,
``tests/perf/test_module_state.py`` that the ``threads`` path writes no
module-level state, and ``tests/perf/test_zero_alloc.py`` that a planned
multiply, serial or threaded, allocates nothing after warmup.

Run it as ``python -m repro.lint src/``; see :mod:`repro.lint.cli` for
exit codes.  Programmatic entry point: :func:`lint_paths`.
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
from repro.lint.registry import (
    BUILTIN_RULES,
    available_rules,
    get_rule,
    resolve_rules,
)
from repro.lint.reporters import FORMATS, render, render_json, render_sarif, render_text
from repro.lint.rules import ABFT_RULES, LintRule, ModuleContext
from repro.lint.suppressions import SuppressionIndex, parse_suppressions

__all__ = [
    "Finding",
    "fingerprint",
    "fingerprint_all",
    "LintRule",
    "ModuleContext",
    "ABFT_RULES",
    "BUILTIN_RULES",
    "available_rules",
    "get_rule",
    "resolve_rules",
    "LintResult",
    "lint_paths",
    "lint_source",
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
