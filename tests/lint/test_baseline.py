"""Baseline round trip and line-shift-stable fingerprints."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.lint import (
    Finding,
    compare_with_baseline,
    fingerprint,
    fingerprint_all,
    get_rule,
    lint_source,
    load_baseline,
    render_baseline,
    write_baseline,
)
from repro.lint.baseline import find_default_baseline

SOURCE = (
    "def detect(syndrome, threshold):\n"
    "    if syndrome == 0.0:\n"
    "        return False\n"
    "    return syndrome != threshold\n"
)


def findings_for(source: str):
    findings, _, _ = lint_source(source, Path("mod.py"), [get_rule("ABFT003")])
    return findings


def test_round_trip(tmp_path):
    findings = findings_for(SOURCE)
    assert findings
    path = tmp_path / "baseline.json"
    write_baseline(path, findings)
    baseline = load_baseline(path)
    comparison = compare_with_baseline(findings, baseline)
    assert comparison.new == []
    assert len(comparison.known) == len(findings)
    assert comparison.stale == []


def test_fingerprints_survive_line_shifts(tmp_path):
    path = tmp_path / "baseline.json"
    write_baseline(path, findings_for(SOURCE))
    shifted = "# a new leading comment\n\n\n" + SOURCE
    comparison = compare_with_baseline(findings_for(shifted), load_baseline(path))
    assert comparison.new == []
    assert comparison.stale == []


def test_repeated_identical_lines_get_distinct_fingerprints():
    doubled = SOURCE + "\n\n" + SOURCE.replace("detect", "detect_again")
    findings = findings_for(doubled)
    prints = [p for _, p in fingerprint_all(findings)]
    assert len(prints) == len(set(prints)) == len(findings)


def test_fixed_findings_show_up_as_stale(tmp_path):
    path = tmp_path / "baseline.json"
    write_baseline(path, findings_for(SOURCE))
    remaining = findings_for(SOURCE.splitlines()[0] + "\n    return False\n")
    comparison = compare_with_baseline(remaining, load_baseline(path))
    assert comparison.new == []
    assert comparison.stale  # both old fingerprints are gone


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == {}


def test_malformed_baseline_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_baseline(path)


def test_future_version_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "findings": {}}), encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_baseline(path)


def test_render_is_deterministic():
    findings = findings_for(SOURCE)
    assert render_baseline(findings) == render_baseline(list(findings))


def test_find_default_baseline_walks_upward(tmp_path):
    (tmp_path / ".reprolint-baseline.json").write_text(
        json.dumps({"version": 1, "findings": {}}), encoding="utf-8"
    )
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    found, exists = find_default_baseline(nested)
    assert exists
    assert found == tmp_path / ".reprolint-baseline.json"


def test_committed_repo_baseline_loads_and_is_empty():
    repo_root = Path(__file__).resolve().parents[2]
    baseline = load_baseline(repo_root / ".reprolint-baseline.json")
    assert baseline == {}


def test_fingerprints_keep_their_historical_payload():
    """The fingerprint hashes rule, path, snippet and ordinal, nothing
    else, so committed baselines from earlier revisions stay valid."""
    finding = Finding(
        path="src/a.py",
        line=10,
        column=5,
        rule="ABFT001",
        message="assignment to 'self.data' without a checksum refresh",
        snippet="self.data[0] = v",
    )
    payload = f"{finding.rule}|{finding.path}|{finding.snippet}|0"
    expected = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]
    assert fingerprint(finding) == expected
