"""Command-line entry point: ``python -m repro.lint [paths...]``.

Exit codes:

* 0 — no findings beyond the baseline;
* 1 — new findings (or stale baseline entries under ``--strict-baseline``);
* 2 — usage or configuration errors (unknown rules, bad paths, bad
  baseline documents).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.lint.baseline import (
    compare_with_baseline,
    find_default_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.engine import lint_paths
from repro.lint.registry import available_rules, get_rule
from repro.lint.reporters import FORMATS, render

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="reprolint — ABFT-invariant static analysis for this repo",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint"
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text", help="report format"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="write the report to a file"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file (default: nearest .reprolint-baseline.json)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--strict-baseline",
        action="store_true",
        help="also fail when baseline entries no longer match any finding",
    )
    parser.add_argument(
        "--select", default=None, help="comma-separated rule ids to run"
    )
    parser.add_argument(
        "--ignore", default=None, help="comma-separated rule ids to skip"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule pack and exit"
    )
    return parser


def _split_rules(value: Optional[str]) -> Optional[tuple[str, ...]]:
    if value is None:
        return None
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _list_rules() -> str:
    lines = []
    for rule_id in available_rules():
        rule = get_rule(rule_id)
        lines.append(f"{rule_id}  {rule.title}")
    return "\n".join(lines) + "\n"


def _emit(text: str, output: Optional[Path]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, encoding="utf-8")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _emit(_list_rules(), args.output)
        return EXIT_CLEAN

    try:
        result = lint_paths(
            [Path(p) for p in args.paths],
            select=_split_rules(args.select),
            ignore=_split_rules(args.ignore),
        )

        baseline_path = args.baseline
        if baseline_path is None and not args.no_baseline:
            first = Path(args.paths[0]) if args.paths else Path.cwd()
            anchor = first if first.exists() else Path.cwd()
            baseline_path, exists = find_default_baseline(anchor)
            if not exists and not args.write_baseline:
                baseline_path = None

        if args.write_baseline:
            target = baseline_path or Path.cwd() / ".reprolint-baseline.json"
            write_baseline(target, result.findings)
            sys.stderr.write(
                f"wrote baseline with {len(result.findings)} finding(s) to {target}\n"
            )
            return EXIT_CLEAN

        baseline = (
            load_baseline(baseline_path)
            if baseline_path is not None and not args.no_baseline
            else {}
        )
        comparison = compare_with_baseline(result.findings, baseline)
    except ReproError as exc:
        sys.stderr.write(f"repro.lint: error: {exc}\n")
        return EXIT_USAGE

    report = render(
        args.format,
        comparison.new,
        known=comparison.known,
        files_checked=result.files_checked,
        suppressed=result.suppressed,
    )
    _emit(report, args.output)

    if comparison.stale:
        sys.stderr.write(
            f"repro.lint: {len(comparison.stale)} stale baseline entr"
            f"{'y' if len(comparison.stale) == 1 else 'ies'} "
            "(fixed findings — regenerate with --write-baseline)\n"
        )
        if args.strict_baseline:
            return EXIT_FINDINGS
    if comparison.new:
        return EXIT_FINDINGS
    return EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
