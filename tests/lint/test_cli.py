"""CLI exit codes, baseline workflow, and report plumbing."""

import json

import pytest

from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

BAD = (
    "def detect(syndrome, threshold):\n"
    "    return syndrome == 0.0\n"
)
CLEAN = "def detect(syndrome, threshold):\n    return abs(syndrome) > threshold\n"


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return path


def test_clean_file_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "mod.py", CLEAN)
    assert main([str(path), "--no-baseline"]) == EXIT_CLEAN
    assert "0 new finding(s)" in capsys.readouterr().out


def test_findings_exit_one(tmp_path, capsys):
    path = write(tmp_path, "mod.py", BAD)
    assert main([str(path), "--no-baseline"]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "ABFT003" in out and "mod.py:2:" in out


def test_unknown_rule_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "mod.py", CLEAN)
    assert main([str(path), "--select", "TYPO001"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "absent")]) == EXIT_USAGE


def test_select_and_ignore_narrow_the_run(tmp_path):
    path = write(tmp_path, "mod.py", BAD)
    assert main([str(path), "--no-baseline", "--select", "ABFT005"]) == EXIT_CLEAN
    assert main([str(path), "--no-baseline", "--ignore", "ABFT003"]) == EXIT_CLEAN


def test_write_baseline_then_rerun_is_clean(tmp_path, capsys):
    path = write(tmp_path, "mod.py", BAD)
    baseline = tmp_path / "baseline.json"
    assert main([str(path), "--write-baseline", "--baseline", str(baseline)]) == EXIT_CLEAN
    assert "wrote baseline with 1 finding(s)" in capsys.readouterr().err
    assert main([str(path), "--baseline", str(baseline)]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "[baseline]" in out and "1 baselined" in out


def test_stale_baseline_warns_and_strict_fails(tmp_path, capsys):
    path = write(tmp_path, "mod.py", BAD)
    baseline = tmp_path / "baseline.json"
    assert main([str(path), "--write-baseline", "--baseline", str(baseline)]) == EXIT_CLEAN
    path.write_text(CLEAN, encoding="utf-8")
    assert main([str(path), "--baseline", str(baseline)]) == EXIT_CLEAN
    assert "stale baseline" in capsys.readouterr().err
    assert (
        main([str(path), "--baseline", str(baseline), "--strict-baseline"])
        == EXIT_FINDINGS
    )


def test_sarif_output_to_file(tmp_path):
    path = write(tmp_path, "mod.py", BAD)
    report = tmp_path / "report.sarif"
    code = main(
        [str(path), "--no-baseline", "--format", "sarif", "--output", str(report)]
    )
    assert code == EXIT_FINDINGS
    document = json.loads(report.read_text(encoding="utf-8"))
    assert document["version"] == "2.1.0"
    assert document["runs"][0]["results"]


def test_list_rules_prints_exactly_the_rule_pack(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == [
        "ABFT001", "ABFT002", "ABFT003", "ABFT004", "ABFT005", "ABFT006",
        "ABFT007", "ABFT013", "ABFT014",
    ]


@pytest.mark.parametrize("rule_id", ["ABFT008", "ABFT009", "ABFT010", "ABFT011", "ABFT012"])
def test_retired_rule_ids_are_unknown(tmp_path, capsys, rule_id):
    path = write(tmp_path, "mod.py", CLEAN)
    assert main([str(path), "--no-baseline", "--select", rule_id]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown lint rule" in err and rule_id in err


def test_module_entry_point(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    path = write(tmp_path, "mod.py", CLEAN)
    repo_src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(path), "--no-baseline"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == EXIT_CLEAN, proc.stderr
