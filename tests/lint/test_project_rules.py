"""Fixture corpora for the project-wide rule pack (ABFT010-012).

Each rule has a ``<rule>_bad`` mini-project whose violations are marked
with ``# MARK:<rule>`` comments and a ``<rule>_ok`` mini-project of
protocol-respecting near-misses.  The harness asserts the rule fires on
exactly the marked lines and stays quiet on the ok corpus — both halves
matter: a rule that cannot stay quiet would be suppressed into
uselessness the first week.
"""

from pathlib import Path
from typing import List, Tuple

import pytest

from repro.lint import PROJECT_RULES, analyze_project

FIXTURES = Path(__file__).parent / "fixtures" / "project"

RULE_IDS = tuple(rule.rule_id for rule in PROJECT_RULES)


def marked_lines(directory: Path, rule_id: str) -> List[Tuple[str, int]]:
    """All ``(display_path, line)`` pairs carrying a MARK for ``rule_id``."""
    marks: List[Tuple[str, int]] = []
    for file in sorted(directory.rglob("*.py")):
        display = file.resolve().relative_to(Path.cwd()).as_posix()
        for number, text in enumerate(
            file.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if f"MARK:{rule_id}" in text:
                marks.append((display, number))
    return marks


def run_rule(directory: Path, rule_id: str):
    return analyze_project([directory], select=(rule_id,))


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_corpus_fires_on_every_marked_line(rule_id):
    directory = FIXTURES / f"{rule_id.lower()}_bad"
    result = run_rule(directory, rule_id)
    found = sorted((f.path, f.line) for f in result.findings)
    expected = sorted(marked_lines(directory, rule_id))
    assert expected, f"fixture {directory} has no MARK:{rule_id} lines"
    assert found == expected


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_ok_corpus_stays_quiet(rule_id):
    directory = FIXTURES / f"{rule_id.lower()}_ok"
    result = run_rule(directory, rule_id)
    locations = [f.location() for f in result.findings]
    assert locations == [], f"{rule_id} false positives: {locations}"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rules_carry_metadata(rule_id):
    rule = next(r for r in PROJECT_RULES if r.rule_id == rule_id)
    assert rule.title
    assert rule.rationale


def test_abft010_finding_cites_the_nonrefreshing_caller_as_evidence():
    result = run_rule(FIXTURES / "abft010_bad", "ABFT010")
    (finding,) = result.findings
    assert finding.path.endswith("matrix.py")
    assert any(path.endswith("caller.py") for path in finding.related)


def test_abft010_suppression_at_the_mutation_site_silences_the_finding():
    """Interprocedural finding, per-file suppression: the directive sits on
    the mutation line in matrix.py even though the evidence is in caller.py."""
    result = run_rule(FIXTURES / "abft010_suppressed", "ABFT010")
    assert result.findings == []
    assert result.suppressed == 1
    assert result.reasonless_suppressions == []


def test_project_rules_are_inert_in_per_file_mode():
    from repro.lint import lint_paths

    directory = FIXTURES / "abft010_bad"
    result = lint_paths([directory], select=("ABFT010",))
    assert result.findings == []
