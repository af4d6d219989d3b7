"""Project-engine behavior: ingestion hardening, linking, CLI integration.

The invalid-syntax and non-UTF-8 fixtures are generated into ``tmp_path``
at test time (committed fixtures would trip the repo-wide ruff syntax
gate); what matters is that one broken file yields an ABFT000 diagnostic
instead of blinding the whole analysis.
"""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.lint import analyze_project, lint_paths
from repro.lint.cli import main
from repro.lint.project.engine import DIAGNOSTIC_RULE

GOOD = (
    "import threading\n"
    "from concurrent.futures import ThreadPoolExecutor\n"
    "\n"
    "_STATE = {}\n"
    "\n"
    "\n"
    "def record(key):\n"
    "    _STATE[key] = 1\n"
    "\n"
    "\n"
    "def run(items):\n"
    "    with ThreadPoolExecutor() as pool:\n"
    "        for item in items:\n"
    "            pool.submit(record, item)\n"
)


def write_project(tmp_path: Path) -> Path:
    root = tmp_path / "proj"
    root.mkdir()
    (root / "good.py").write_text(GOOD, encoding="utf-8")
    (root / "broken.py").write_text("def broken(:\n    pass\n", encoding="utf-8")
    (root / "binary.py").write_bytes(b"\xff\xfe\x00not python\x00")
    return root


def test_broken_files_become_diagnostics_not_crashes(tmp_path):
    root = write_project(tmp_path)
    result = analyze_project([root], base=tmp_path)
    assert result.files_checked == 3
    diagnostics = [f for f in result.findings if f.rule == DIAGNOSTIC_RULE]
    assert sorted(f.path for f in diagnostics) == [
        "proj/binary.py",
        "proj/broken.py",
    ]
    messages = {f.path: f.message for f in diagnostics}
    assert "not valid UTF-8" in messages["proj/binary.py"]
    assert "does not parse" in messages["proj/broken.py"]


def test_healthy_files_are_still_analyzed_alongside_diagnostics(tmp_path):
    root = write_project(tmp_path)
    result = analyze_project([root], base=tmp_path)
    abft011 = [f for f in result.findings if f.rule == "ABFT011"]
    assert [f.path for f in abft011] == ["proj/good.py"]


def test_per_file_mode_survives_non_utf8_files(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "binary.py").write_bytes(b"\xff\xfe\x00not python\x00")
    result = lint_paths([root], root=tmp_path)
    (finding,) = result.findings
    assert finding.rule == "E999"
    assert "not valid UTF-8" in finding.message


def test_missing_path_still_raises(tmp_path):
    with pytest.raises(ConfigurationError):
        analyze_project([tmp_path / "nope"])


def test_package_trees_get_dotted_module_names(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "sub" / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "sub" / "mod.py").write_text(
        "class Widget:\n    def ping(self):\n        return 1\n", encoding="utf-8"
    )
    (pkg / "use.py").write_text(
        "from pkg.sub.mod import Widget\n"
        "\n"
        "\n"
        "def make():\n"
        "    return Widget()\n",
        encoding="utf-8",
    )
    # Resolution across the package boundary proves the module names and
    # import tables line up; no findings expected, just no blow-ups.
    result = analyze_project([tmp_path], base=tmp_path)
    assert result.files_checked == 4
    assert result.findings == []


def test_cli_project_mode_reports_cache_stats_in_json(tmp_path, capsys, monkeypatch):
    root = write_project(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "--project",
            "--no-cache",
            "--no-baseline",
            "--format",
            "json",
            str(root),
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1  # diagnostics + the ABFT011 finding
    assert payload["project"] == {"cache_hits": 0, "reanalyzed": 3}
    rules = {entry["rule"] for entry in payload["findings"]}
    assert DIAGNOSTIC_RULE in rules and "ABFT011" in rules
    related = {
        entry["rule"]: entry["related"] for entry in payload["findings"]
    }
    assert related["ABFT011"] == []  # spawn site is the finding's own module


def test_cli_list_rules_includes_the_project_pack(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("ABFT010", "ABFT011", "ABFT012"):
        assert rule_id in out
