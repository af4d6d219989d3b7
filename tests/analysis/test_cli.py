"""Unit tests for the experiment CLI (``python -m repro``)."""

import pytest

from repro.cli import build_parser, main


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])


def test_parser_defaults():
    args = build_parser().parse_args(["fig5"])
    assert args.experiment == "fig5"
    assert not args.quick
    assert args.seed == 0
    assert args.output is None


def test_table1_quick(capsys):
    assert main(["table1", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "nos3" in out


def test_fig4_quick(capsys):
    assert main(["fig4", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    assert "minimum at block size" in out


def test_fig5_quick_writes_output(tmp_path, capsys):
    assert main(["fig5", "--quick", "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    saved = (tmp_path / "fig5.txt").read_text()
    assert "dense check" in saved


def test_fig6_quick(capsys):
    assert main(["fig6", "--quick", "--trials", "2"]) == 0
    assert "Figure 6" in capsys.readouterr().out


def test_fig7_quick(capsys):
    assert main(["fig7", "--quick"]) == 0
    assert "Figure 7" in capsys.readouterr().out


def test_pcg_quick_with_custom_rates(capsys):
    assert main(["pcg", "--quick", "--rates", "1e-8", "--runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8" in out and "Figure 9" in out


def test_ablations_quick(capsys):
    assert main(["ablations", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "bound family" in out
    assert "stream overlap" in out
    assert "redundant execution" in out


def test_env_reports_each_selector_and_its_source(monkeypatch, capsys):
    from repro.core.config import selectors

    for selector in selectors():
        monkeypatch.delenv(selector.env_var, raising=False)
    monkeypatch.setenv("REPRO_FORMAT", "bsr")
    assert main(["env"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert {row[0]: (row[2], row[3]) for row in rows} == {
        "telemetry": ("off", "default"),
        "scheme": ("abft", "default"),
        "parallel": ("serial", "default"),
        "sparse_format": ("bsr", "env"),
    }
