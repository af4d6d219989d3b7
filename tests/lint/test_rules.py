"""Each ABFT rule flags its bad fixture (at the marked lines) and stays
silent on the clean one."""

from pathlib import Path

import pytest

from repro.lint import get_rule, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (bad fixture, clean fixture), relative to FIXTURES.
CORPUS = {
    "ABFT001": ("abft001_bad.py", "abft001_ok.py"),
    "ABFT002": ("kernels/abft002_bad.py", "kernels/abft002_ok.py"),
    "ABFT003": ("abft003_bad.py", "abft003_ok.py"),
    "ABFT004": ("abft004_bad.py", "abft004_ok.py"),
    "ABFT005": ("abft005_bad.py", "abft005_ok.py"),
    "ABFT006": ("abft006_bad.py", "abft006_ok.py"),
    "ABFT013": ("abft013_bad.py", "abft013_ok.py"),
    "ABFT014": ("core/abft014_bad.py", "core/abft014_ok.py"),
}


def run_rule(rule_id: str, relative: str):
    path = FIXTURES / relative
    source = path.read_text(encoding="utf-8")
    display = f"tests/lint/fixtures/{relative}"
    findings, suppressed, _ = lint_source(
        source, path, [get_rule(rule_id)], display_path=display
    )
    return source, display, findings, suppressed


def marked_lines(source: str, rule_id: str):
    return [
        i + 1
        for i, line in enumerate(source.splitlines())
        if f"MARK:{rule_id}" in line
    ]


@pytest.mark.parametrize("rule_id", sorted(CORPUS))
def test_bad_fixture_flags_marked_lines(rule_id):
    bad, _ = CORPUS[rule_id]
    source, display, findings, _ = run_rule(rule_id, bad)
    expected = marked_lines(source, rule_id)
    assert expected, f"fixture {bad} has no MARK:{rule_id} lines"
    assert sorted(f.line for f in findings) == expected
    for finding in findings:
        assert finding.rule == rule_id
        assert finding.path == display
        assert finding.column >= 1
        assert finding.snippet  # fingerprint input must not be empty
        assert finding.message


@pytest.mark.parametrize("rule_id", sorted(CORPUS))
def test_clean_fixture_is_silent(rule_id):
    _, ok = CORPUS[rule_id]
    _, _, findings, suppressed = run_rule(rule_id, ok)
    assert findings == []
    assert suppressed == 0


def run_abft007(relative: str, display: str):
    """ABFT007 is path-gated, so fixtures run under a simulated src path."""
    path = FIXTURES / relative
    source = path.read_text(encoding="utf-8")
    findings, suppressed, _ = lint_source(
        source, path, [get_rule("ABFT007")], display_path=display
    )
    return source, findings, suppressed


def test_abft007_bad_fixture_flags_marked_lines():
    source, findings, _ = run_abft007(
        "abft007_bad.py", "src/repro/analysis/abft007_bad.py"
    )
    expected = marked_lines(source, "ABFT007")
    assert expected, "fixture abft007_bad.py has no MARK:ABFT007 lines"
    assert sorted(f.line for f in findings) == expected
    for finding in findings:
        assert finding.rule == "ABFT007"
        assert finding.message and finding.snippet


def test_abft007_clean_fixture_is_silent():
    _, findings, suppressed = run_abft007(
        "abft007_ok.py", "src/repro/analysis/abft007_ok.py"
    )
    assert findings == []
    assert suppressed == 0


def test_abft007_exempts_registry_and_test_paths():
    for display in (
        "src/repro/schemes/builtins.py",
        "tests/schemes/test_registry.py",
    ):
        _, findings, _ = run_abft007("abft007_bad.py", display)
        assert findings == [], display


def test_abft004_exempts_no_module():
    """No module is a sanctioned home of narrow-dtype construction: the
    path the dtype-policy module had gets every finding."""
    source = (FIXTURES / "abft004_bad.py").read_text(encoding="utf-8")
    findings, _, _ = lint_source(
        source,
        FIXTURES / "abft004_bad.py",
        [get_rule("ABFT004")],
        display_path="src/repro/core/dtypes.py",
    )
    assert sorted(f.line for f in findings) == marked_lines(source, "ABFT004")


def test_abft014_only_applies_to_core_and_kernel_paths():
    source = (FIXTURES / "core/abft014_bad.py").read_text(encoding="utf-8")
    findings, _, _ = lint_source(
        source,
        FIXTURES / "core/abft014_bad.py",
        [get_rule("ABFT014")],
        display_path="src/repro/analysis/not_core.py",
    )
    assert findings == []


def test_abft014_exempts_no_core_module():
    source = (FIXTURES / "core/abft014_bad.py").read_text(encoding="utf-8")
    findings, _, _ = lint_source(
        source,
        FIXTURES / "core/abft014_bad.py",
        [get_rule("ABFT014")],
        display_path="src/repro/core/dtypes.py",
    )
    assert sorted(f.line for f in findings) == marked_lines(source, "ABFT014")


def test_abft002_only_applies_to_kernel_paths():
    source = (FIXTURES / "kernels/abft002_bad.py").read_text(encoding="utf-8")
    findings, _, _ = lint_source(
        source,
        FIXTURES / "kernels/abft002_bad.py",
        [get_rule("ABFT002")],
        display_path="src/repro/analysis/not_a_kernel.py",
    )
    assert findings == []


def test_syntax_error_becomes_e999_finding():
    findings, _, _ = lint_source(
        "def broken(:\n", Path("broken.py"), [get_rule("ABFT003")]
    )
    assert len(findings) == 1
    assert findings[0].rule == "E999"
    assert findings[0].line == 1


def test_non_utf8_file_becomes_e999_finding(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "binary.py").write_bytes(b"\xff\xfe\x00not python\x00")
    result = lint_paths([root], root=tmp_path)
    (finding,) = result.findings
    assert finding.rule == "E999"
    assert "not valid UTF-8" in finding.message
