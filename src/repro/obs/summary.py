"""Aggregate and render telemetry event streams.

Consumes the event dicts produced by :class:`repro.obs.telemetry.Telemetry`
(live from an in-memory exporter, or replayed from a JSONL log) and
renders the human-readable protocol summary: counter totals, log-bucketed
histogram tables and a span time breakdown drawn with the same
``|####    |`` bar aesthetic as :func:`repro.machine.trace.render_gantt`.
``hist`` events carry the observed value(s) — scalar ``"value"`` or
batched ``"values"`` — and aggregate into
:attr:`EventSummary.histogram_values`.

JSONL logs from crashed or concurrently-written runs may end mid-line;
:func:`load_events` skips unparseable lines and counts them instead of
refusing the whole log (:func:`read_events` keeps the strict contract).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.exporters import Event


@dataclass
class SpanStats:
    """Aggregate of all completed spans sharing one name."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    depth: int = 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def add(self, duration: float, depth: int) -> None:
        if self.count == 0 or depth < self.depth:
            self.depth = depth
        self.count += 1
        self.total += duration
        self.min = min(self.min, duration)
        self.max = max(self.max, duration)


@dataclass
class EventSummary:
    """Aggregated view of one event stream."""

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histogram_values: Dict[str, List[float]] = field(default_factory=dict)
    spans: Dict[str, SpanStats] = field(default_factory=dict)
    n_events: int = 0
    skipped_lines: int = 0

    def span_count(self, name: str) -> int:
        """Completed spans named ``name`` (0 when never entered)."""
        stats = self.spans.get(name)
        return stats.count if stats is not None else 0


def load_events(
    path: Union[str, Path], strict: bool = False
) -> Tuple[List[Event], int]:
    """Load a JSONL event log, tolerating truncated or corrupt lines.

    A crashed process, a torn write or a half-synced file leaves trailing
    garbage; refusing the whole log would make exactly those runs — the
    ones worth diagnosing — unreadable.  Unparseable lines and non-object
    JSON values are skipped and counted.

    Args:
        path: the events.jsonl file.
        strict: raise :class:`~repro.errors.ConfigurationError` on the
            first bad line instead of skipping.

    Returns:
        ``(events, skipped)`` — the parsed events and the number of
        skipped lines (always 0 under ``strict``).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"event log {path} does not exist")
    events: List[Event] = []
    skipped = 0
    with open(path, encoding="utf-8", errors="replace") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                if strict:
                    raise ConfigurationError(
                        f"{path}:{lineno}: not a JSON event: {error}"
                    ) from None
                skipped += 1
                continue
            if not isinstance(event, dict):
                if strict:
                    raise ConfigurationError(
                        f"{path}:{lineno}: event must be a JSON object, "
                        f"got {type(event).__name__}"
                    )
                skipped += 1
                continue
            events.append(event)
    return events, skipped


def read_events(path: Union[str, Path]) -> List[Event]:
    """Load a JSONL event log, rejecting any malformed line (strict)."""
    return load_events(path, strict=True)[0]


def aggregate_events(events: Sequence[Event]) -> EventSummary:
    """Fold an event stream into per-instrument aggregates."""
    summary = EventSummary()
    for event in events:
        kind = event.get("type")
        name = event.get("name")
        if not isinstance(name, str):
            continue
        summary.n_events += 1
        if kind == "counter":
            value = float(event.get("value", 1.0))  # type: ignore[arg-type]
            summary.counters[name] = summary.counters.get(name, 0.0) + value
        elif kind == "gauge":
            summary.gauges[name] = float(event.get("value", math.nan))  # type: ignore[arg-type]
        elif kind == "hist":
            bucket = summary.histogram_values.setdefault(name, [])
            values = event.get("values")
            if isinstance(values, (list, tuple)):
                bucket.extend(float(v) for v in values)
            else:
                bucket.append(float(event.get("value", math.nan)))  # type: ignore[arg-type]
        elif kind == "span":
            start = float(event.get("start", 0.0))  # type: ignore[arg-type]
            end = float(event.get("end", start))  # type: ignore[arg-type]
            depth = int(event.get("depth", 0))  # type: ignore[arg-type]
            summary.spans.setdefault(name, SpanStats()).add(end - start, depth)
    return summary


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a pre-sorted sequence."""
    if not ordered:
        return math.nan
    rank = max(int(math.ceil(q * len(ordered))) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


def summary_as_dict(summary: EventSummary) -> Dict[str, object]:
    """JSON-ready view of a summary (``summarize --json``, CI asserts).

    Histograms are reported as order statistics rather than value lists
    (a campaign log holds millions of margins).
    """
    histogram_values: Dict[str, object] = {}
    for name, values in sorted(summary.histogram_values.items()):
        finite = sorted(v for v in values if math.isfinite(v))
        histogram_values[name] = {
            "count": len(values),
            "nan_count": sum(1 for v in values if math.isnan(v)),
            "min": finite[0] if finite else None,
            "p50": _percentile(finite, 0.5) if finite else None,
            "p90": _percentile(finite, 0.9) if finite else None,
            "p99": _percentile(finite, 0.99) if finite else None,
            "max": finite[-1] if finite else None,
        }
    return {
        "n_events": summary.n_events,
        "skipped_lines": summary.skipped_lines,
        "counters": dict(sorted(summary.counters.items())),
        "gauges": dict(sorted(summary.gauges.items())),
        "histogram_values": histogram_values,
        "spans": {
            name: {
                "count": stats.count,
                "total": stats.total,
                "mean": stats.mean,
                "min": stats.min,
                "max": stats.max,
                "depth": stats.depth,
            }
            for name, stats in sorted(summary.spans.items())
        },
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_seconds(seconds: float) -> str:
    if not math.isfinite(seconds):
        return str(seconds)
    if abs(seconds) >= 1.0:
        return f"{seconds:.3f}s"
    if abs(seconds) >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def _bucket_edges(values: Sequence[float]) -> Tuple[float, ...]:
    """Log-spaced edges spanning the positive observations (one per decade).

    Exponents are clamped to the float64 decade range so observations near
    the representable extremes never produce infinite (non-increasing)
    edges.
    """
    positive = [v for v in values if math.isfinite(v) and v > 0.0]
    if not positive:
        return ()
    lo_exp = max(math.floor(math.log10(min(positive))), -307)
    hi_exp = min(math.ceil(math.log10(max(positive))), 308)
    if hi_exp <= lo_exp:
        hi_exp = lo_exp + 1
    return tuple(10.0 ** e for e in range(lo_exp, hi_exp + 1))


def _bucket_label(edges: Sequence[float], index: int) -> str:
    if index == 0:
        return f"< {edges[0]:.0e}"
    if index == len(edges):
        return f">= {edges[-1]:.0e}"
    return f"[{edges[index - 1]:.0e}, {edges[index]:.0e})"


def _render_bucket_rows(
    edges: Sequence[float], counts: Sequence[int], width: int
) -> List[str]:
    peak = max(counts)
    bar_width = max(8, width // 2)
    lines: List[str] = []
    for index, count in enumerate(counts):
        if count == 0:
            continue
        bar = "#" * max(1, round(bar_width * count / peak))
        lines.append(
            f"  {_bucket_label(edges, index):<20s} {bar:<{bar_width}s} {count}"
        )
    return lines


def _render_histogram(name: str, values: Sequence[float], width: int) -> List[str]:
    finite = [v for v in values if math.isfinite(v)]
    nans = sum(1 for v in values if math.isnan(v))
    lines = [f"{name}  n={len(values)}"]
    if finite:
        ordered = sorted(finite)
        p50 = ordered[len(ordered) // 2]
        lines[0] += (
            f"  min={min(finite):.3g}  p50={p50:.3g}  max={max(finite):.3g}"
        )
    if nans:
        lines[0] += f"  nan={nans}"
    edges = _bucket_edges(finite)
    if not edges:
        return lines
    counts = [0] * (len(edges) + 1)
    for value in finite:
        index = 0
        while index < len(edges) and value >= edges[index]:
            index += 1
        counts[index] += 1
    return lines + _render_bucket_rows(edges, counts, width)


def render_summary(
    events: Sequence[Event], width: int = 48, skipped: int = 0
) -> str:
    """Render an event stream as the full text summary.

    Sections: counters, gauges, histograms, and the span breakdown whose
    per-name totals are drawn as Gantt-style ``|####    |`` bars scaled to the largest
    total.  ``skipped`` (corrupt JSONL lines dropped by
    :func:`load_events`) is surfaced in the header.
    """
    if width < 16:
        raise ConfigurationError(f"width must be >= 16, got {width}")
    summary = aggregate_events(events)
    summary.skipped_lines = skipped
    if summary.n_events == 0:
        if skipped:
            return f"(no events; {skipped} corrupt line(s) skipped)"
        return "(no events)"
    header = f"telemetry summary — {summary.n_events} events"
    if skipped:
        header += f" ({skipped} corrupt line(s) skipped)"
    lines: List[str] = [header]

    if summary.counters:
        lines += ["", "== counters =="]
        name_width = max(len(name) for name in summary.counters)
        for name in sorted(summary.counters):
            total = summary.counters[name]
            rendered = f"{total:g}"
            lines.append(f"{name:<{name_width}s}  {rendered:>12s}")

    if summary.gauges:
        lines += ["", "== gauges =="]
        name_width = max(len(name) for name in summary.gauges)
        for name in sorted(summary.gauges):
            lines.append(f"{name:<{name_width}s}  {summary.gauges[name]:>12.6g}")

    if summary.histogram_values:
        lines += ["", "== histograms =="]
        for name in sorted(summary.histogram_values):
            lines += _render_histogram(name, summary.histogram_values[name], width)

    if summary.spans:
        lines += ["", "== spans =="]
        ordered = sorted(
            summary.spans.items(), key=lambda kv: (kv[1].depth, -kv[1].total, kv[0])
        )
        name_width = max(len(name) for name, _ in ordered)
        peak = max(stats.total for _, stats in ordered)
        header = (
            f"{'name':<{name_width}s} {'count':>6s} {'total':>10s} {'mean':>10s}"
        )
        lines.append(header)
        for name, stats in ordered:
            if peak > 0:
                bar = "#" * max(1, round(width * stats.total / peak))
            else:
                bar = ""
            indent = "  " * stats.depth
            lines.append(
                f"{name:<{name_width}s} {stats.count:>6d} "
                f"{_format_seconds(stats.total):>10s} "
                f"{_format_seconds(stats.mean):>10s} "
                f"|{indent}{bar:<{width - min(len(indent), width)}s}|"
            )
    return "\n".join(lines)
