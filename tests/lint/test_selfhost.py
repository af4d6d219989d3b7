"""Self-hosting gates: the shipped tree passes its own analyzer.

These tests are the in-repo mirror of the CI lint job — if they pass,
``python -m repro.lint src/`` exits 0 against the committed (empty)
baseline, and every suppression in the tree carries a reason.
"""

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def test_src_tree_is_clean():
    result = lint_paths([SRC], root=REPO_ROOT)
    assert result.files_checked > 50
    locations = [f.location() for f in result.findings]
    assert locations == [], f"new findings: {locations}"


def test_every_suppression_has_a_reason():
    result = lint_paths([SRC], root=REPO_ROOT)
    offenders = [
        f"{path}:{directive.line}"
        for path, directive in result.reasonless_suppressions
    ]
    assert offenders == [], f"reasonless suppressions: {offenders}"


def test_lint_package_self_hosts_without_suppressions():
    result = lint_paths([SRC / "repro" / "lint"], root=REPO_ROOT)
    assert result.findings == []
    assert result.suppressed == 0
