"""Markdown campaign reports (:mod:`repro.obs.report`)."""

from repro.obs import (
    InMemoryExporter,
    Telemetry,
    aggregate_events,
    render_report,
)


def _campaign_summary():
    """A summary with counters, histograms and spans."""
    tel = Telemetry(exporter=InMemoryExporter())
    tel.count("abft.checks", 4.0)
    tel.count("abft.detections")
    tel.observe_many("abft.syndrome_margin", [1e-6, 1e-4, 1e-2, 0.5])
    tel.observe("abft.block_recompute_fraction", 0.125)
    with tel.span("abft.multiply"):
        with tel.span("abft.detect"):
            pass
    return aggregate_events(tel.events())


def test_report_renders_every_section():
    summary = _campaign_summary()
    text = render_report([("ours.jsonl", summary)])
    assert text.startswith("# Telemetry campaign report")
    assert "## ours.jsonl" in text
    assert "### Protocol counters" in text
    assert "| abft.checks | 4 |" in text
    assert "### Distributions" in text
    assert "abft.syndrome_margin" in text
    assert "abft.block_recompute_fraction" in text
    assert "### Span breakdown" in text
    assert "abft.multiply" in text


def test_report_headline_counters_lead():
    summary = _campaign_summary()
    text = render_report([("run.jsonl", summary)])
    counters = text.split("### Protocol counters")[1]
    assert counters.index("abft.checks") < counters.index("abft.detections")


def test_report_multiple_sections_and_skipped_lines():
    summary = _campaign_summary()
    summary.skipped_lines = 3
    text = render_report([("a.jsonl", summary), ("b.jsonl", summary)])
    assert "## a.jsonl" in text and "## b.jsonl" in text
    assert "3 corrupt line(s) skipped" in text


def test_report_empty_summary_renders_header_only():
    text = render_report([("empty.jsonl", aggregate_events([]))])
    assert "## empty.jsonl" in text
    assert "0 events" in text
    assert "### " not in text
