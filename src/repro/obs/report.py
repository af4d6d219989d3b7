"""Markdown campaign reports from telemetry event logs.

``python -m repro.obs report events.jsonl [more.jsonl ...]`` renders one
markdown document summarizing a protection campaign: protocol counter
totals, the span time breakdown, percentiles of the protocol's key
distributions (syndrome margins, block recompute fractions, kernel and
span wall times).

Each input log becomes one section, so a campaign that ran the same
workload under several schemes (one log per scheme) reads as a
side-by-side comparison.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.obs.summary import (
    EventSummary,
    _percentile,
)

#: Counter names leading the report (the protocol's headline numbers);
#: any other counters follow alphabetically.
HEADLINE_COUNTERS = (
    "abft.checks",
    "abft.detections",
    "abft.corrections",
    "abft.blocks_recomputed",
    "abft.false_positive_candidates",
    "obs.events_dropped",
)


def _fmt(value: object) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        return f"{value:.4g}"
    return str(value)


def _table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(" --- " for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(cell) for cell in row) + " |")
    return lines


def _counter_rows(summary: EventSummary) -> List[Sequence[object]]:
    rows: List[Sequence[object]] = []
    seen = set()
    for name in HEADLINE_COUNTERS:
        if name in summary.counters:
            rows.append((name, f"{summary.counters[name]:g}"))
            seen.add(name)
    for name in sorted(summary.counters):
        if name not in seen:
            rows.append((name, f"{summary.counters[name]:g}"))
    return rows


def _distribution_rows(summary: EventSummary) -> List[Sequence[object]]:
    """Exact order statistics for every distribution the log carries."""
    rows: List[Sequence[object]] = []
    for name in sorted(summary.histogram_values):
        values = summary.histogram_values[name]
        finite = sorted(v for v in values if math.isfinite(v))
        if not finite:
            continue
        rows.append(
            (
                name,
                len(values),
                _percentile(finite, 0.5),
                _percentile(finite, 0.9),
                _percentile(finite, 0.99),
                finite[-1],
            )
        )
    return rows


def _span_rows(summary: EventSummary) -> List[Sequence[object]]:
    ordered = sorted(
        summary.spans.items(), key=lambda kv: (kv[1].depth, -kv[1].total, kv[0])
    )
    return [
        (name, stats.count, stats.total, stats.mean, stats.max)
        for name, stats in ordered
    ]


def render_report(sections: Sequence[Tuple[str, EventSummary]]) -> str:
    """Render labeled summaries as one markdown campaign report."""
    lines: List[str] = ["# Telemetry campaign report", ""]
    for label, summary in sections:
        lines += [f"## {label}", ""]
        meta = f"{summary.n_events} events"
        if summary.skipped_lines:
            meta += f", {summary.skipped_lines} corrupt line(s) skipped"
        lines += [meta, ""]
        if summary.counters:
            lines += ["### Protocol counters", ""]
            lines += _table(("counter", "total"), _counter_rows(summary))
            lines.append("")
        distributions = _distribution_rows(summary)
        if distributions:
            lines += ["### Distributions", ""]
            lines += _table(
                ("metric", "n", "p50", "p90", "p99", "max"), distributions
            )
            lines.append("")
        if summary.spans:
            lines += ["### Span breakdown", ""]
            lines += _table(
                ("span", "count", "total [s]", "mean [s]", "max [s]"),
                _span_rows(summary),
            )
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"
