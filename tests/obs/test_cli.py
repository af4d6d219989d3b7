"""End-to-end: JSONL exporter → ``python -m repro.obs summarize``."""

import numpy as np
import pytest

from repro.obs import JsonlExporter, Telemetry
from repro.obs.cli import EXIT_OK, EXIT_USAGE, main
from repro.obs.summary import aggregate_events, read_events, render_summary
from repro.solvers.ft_pcg import run_pcg
from repro.sparse import banded_spd


@pytest.fixture
def event_log(tmp_path):
    """JSONL log of one injected-fault protected solve."""
    path = tmp_path / "events.jsonl"
    tel = Telemetry(exporter=JsonlExporter(path))
    matrix = banded_spd(300, half_bandwidth=3, seed=0)
    result = run_pcg(
        matrix, np.ones(matrix.n_rows), scheme="abft", error_rate=1e-6, seed=3,
        telemetry=tel,
    )
    tel.close()
    assert result.detections >= 1  # the campaign must actually trip the scheme
    return path, result


def test_summarize_reports_the_protocol(event_log, capsys):
    path, result = event_log
    assert main(["summarize", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "== counters ==" in out
    assert "abft.detections" in out
    assert "abft.corrections" in out
    assert "== histograms ==" in out
    assert "abft.syndrome_margin" in out
    assert "== spans ==" in out
    assert "pcg.iteration" in out and "abft.multiply" in out


def test_summary_is_consistent_with_the_run(event_log):
    path, result = event_log
    summary = aggregate_events(read_events(path))
    assert summary.counters["abft.detections"] == result.detections
    assert summary.counters["abft.corrections"] >= result.corrections
    assert summary.span_count("pcg.iteration") == result.iterations
    assert summary.span_count("pcg.solve") == 1
    assert summary.histogram_values["abft.syndrome_margin"]


def test_summarize_missing_file(tmp_path, capsys):
    assert main(["summarize", str(tmp_path / "nope.jsonl")]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_summarize_skips_malformed_lines_with_warning(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"type": "counter", "name": "abft.checks", "value": 2.0}\n'
        "not json\n"
        "[1, 2, 3]\n"
        '{"type": "counter", "name": "abft.checks", "value": 1.0}\n'
    )
    assert main(["summarize", str(bad)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "skipped 2 corrupt line(s)" in captured.err
    assert "abft.checks" in captured.out  # the good lines still aggregate
    assert "3" in captured.out


def test_summarize_tolerates_mid_line_truncation(tmp_path, capsys):
    """A crashed writer leaves a torn final line; the log must still read."""
    log = tmp_path / "truncated.jsonl"
    full = '{"type": "counter", "name": "abft.detections", "value": 1.0}\n'
    log.write_text(full + '{"type": "hist", "name": "abft.syndro')
    assert main(["summarize", str(log)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "skipped 1 corrupt line(s)" in captured.err
    assert "abft.detections" in captured.out


def test_summarize_json_output(event_log, capsys):
    import json as json_module

    path, result = event_log
    assert main(["summarize", str(path), "--json"]) == EXIT_OK
    payload = json_module.loads(capsys.readouterr().out)
    assert payload["counters"]["abft.detections"] == result.detections
    assert payload["skipped_lines"] == 0
    assert "abft.syndrome_margin" in payload["histogram_values"]
    assert payload["spans"]["pcg.solve"]["count"] == 1


def test_report_renders_markdown(event_log, tmp_path, capsys):
    path, result = event_log
    out = tmp_path / "report.md"
    assert main(["report", str(path), "--output", str(out)]) == EXIT_OK
    text = out.read_text()
    assert "# Telemetry campaign report" in text
    assert f"## {path.name}" in text
    assert "abft.detections" in text
    assert "### Span breakdown" in text
    assert "abft.syndrome_margin" in text
    # Without --output the report prints to stdout.
    assert main(["report", str(path)]) == EXIT_OK
    assert "# Telemetry campaign report" in capsys.readouterr().out


def test_expose_renders_openmetrics(event_log, capsys):
    path, result = event_log
    assert main(["expose", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "# TYPE abft_detections counter" in out
    assert f"abft_detections_total {result.detections}" in out
    assert 'abft_syndrome_margin_bucket{le="+Inf"}' in out
    assert out.rstrip().endswith("# EOF")


def test_exporters_subcommand_lists_builtins(capsys):
    assert main(["exporters"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    for builtin in ("off", "memory", "jsonl", "text"):
        assert builtin in out


def test_render_summary_empty_stream():
    assert render_summary([]) == "(no events)"


def test_render_summary_survives_extreme_histogram_values():
    """Margins near the float64 extremes must not overflow the bucket edges."""
    events = [
        {"type": "hist", "name": "abft.syndrome_margin", "value": v, "attrs": {}}
        for v in (1e-310, 1e-9, 1.0, 1e308, float("inf"), float("nan"))
    ]
    text = render_summary(events)
    assert "abft.syndrome_margin" in text
    assert "inf" not in text.split("nan=")[0].split("max=")[0]  # edges stayed finite


def test_env_selected_jsonl_round_trip(tmp_path, monkeypatch):
    """REPRO_OBS=jsonl + REPRO_OBS_PATH: the acceptance-path selection."""
    from repro.obs import reset_telemetry_cache, resolve_telemetry

    path = tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_OBS", "jsonl")
    monkeypatch.setenv("REPRO_OBS_PATH", str(path))
    reset_telemetry_cache()  # pick up the patched environment
    tel = resolve_telemetry(None)
    try:
        tel.count("abft.detections")
        tel.flush()
        events = read_events(path)
    finally:
        reset_telemetry_cache()
    assert events[0]["name"] == "abft.detections"
