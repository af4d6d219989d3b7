"""File discovery, parsing, rule execution, and suppression filtering."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.lint.findings import Finding
from repro.lint.registry import resolve_rules
from repro.lint.rules.base import LintRule, ModuleContext
from repro.lint.suppressions import Suppression, parse_suppressions

#: Directories never descended into.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".hg", ".venv", "venv", "node_modules"})

#: Rule id reserved for files the parser rejects.
PARSE_ERROR_RULE = "E999"


@dataclass
class LintResult:
    """Outcome of one engine run.

    Attributes:
        findings: surviving findings, sorted by (path, line, column, rule).
        suppressed: count of findings silenced by inline directives.
        reasonless_suppressions: directives lacking a ``-- reason`` string.
        files_checked: number of Python files parsed.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    reasonless_suppressions: List[Tuple[str, Suppression]] = field(default_factory=list)
    files_checked: int = 0


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through as-is)."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            raise ConfigurationError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            if any(part in SKIP_DIRS for part in candidate.parts):
                continue
            yield candidate


def lint_source(
    source: str,
    path: Path,
    rules: Iterable[LintRule],
    display_path: Optional[str] = None,
) -> Tuple[List[Finding], int, List[Suppression]]:
    """Lint one in-memory module.

    Returns ``(findings, suppressed_count, reasonless_suppressions)``.
    """
    display = display_path or path.as_posix()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        finding = Finding(
            path=display,
            line=exc.lineno or 1,
            column=(exc.offset or 0) + 1 if exc.offset is not None else 1,
            rule=PARSE_ERROR_RULE,
            message=f"file does not parse: {exc.msg}",
            snippet=(exc.text or "").strip(),
        )
        return [finding], 0, []

    module = ModuleContext(path, tree, source, display_path=display)
    suppressions = parse_suppressions(source)
    kept: List[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check(module):
            if suppressions.is_suppressed(finding.rule, finding.line):
                suppressed += 1
            else:
                kept.append(finding)
    return kept, suppressed, suppressions.reasonless()


def lint_paths(
    paths: Sequence[Path | str],
    select: Tuple[str, ...] | None = None,
    ignore: Tuple[str, ...] | None = None,
    root: Path | None = None,
) -> LintResult:
    """Lint every Python file under ``paths`` with the rule pack.

    Args:
        paths: files or directories to scan.
        select: restrict the run to these rule ids (all rules when None).
        ignore: rule ids removed from the selection.
        root: base directory findings' paths are reported relative to
            (defaults to the current working directory when possible).

    Raises:
        ConfigurationError: unknown rule ids or missing paths.
    """
    rules = resolve_rules(select, ignore)
    base = (root or Path.cwd()).resolve()
    result = LintResult()
    for path in iter_python_files([Path(p) for p in paths]):
        resolved = path.resolve()
        try:
            display = resolved.relative_to(base).as_posix()
        except ValueError:
            display = resolved.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            result.findings.append(
                Finding(
                    path=display,
                    line=1,
                    column=1,
                    rule=PARSE_ERROR_RULE,
                    message=f"file is not valid UTF-8 ({exc.reason} at byte "
                    f"{exc.start})",
                    snippet="",
                )
            )
            result.files_checked += 1
            continue
        findings, suppressed, reasonless = lint_source(
            source, path, rules, display_path=display
        )
        result.findings.extend(findings)
        result.suppressed += suppressed
        result.reasonless_suppressions.extend(
            (display, directive) for directive in reasonless
        )
        result.files_checked += 1
    result.findings.sort()
    return result
