"""Metrics exposition: render a registry in OpenMetrics text format.

Bridges the process-local instrument :class:`~repro.obs.instruments.Registry`
to the Prometheus/OpenMetrics text exposition format, either live (pass a
registry) or post-hoc (replay a JSONL event log through
:func:`registry_from_events` first — the path taken by
``python -m repro.obs expose events.jsonl``).

Only the format's stable core is produced: ``# TYPE`` metadata, counter
``_total`` samples, gauge samples, and histograms as cumulative
``_bucket{le="..."}`` series with ``_sum``/``_count``, terminated by
``# EOF``.  Instrument names are sanitized to the metric charset
(``[a-zA-Z0-9_:]``), so ``abft.syndrome_margin`` exposes as
``abft_syndrome_margin``.
"""

from __future__ import annotations

import math
import re
from typing import List, Sequence

from repro.obs.exporters import Event
from repro.obs.instruments import (
    DEFAULT_FRACTION_BUCKETS,
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
)

_METRIC_CHARSET = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str) -> str:
    """Sanitize an instrument name to the OpenMetrics charset."""
    sanitized = _METRIC_CHARSET.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return sanitized


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:.17g}" if value != int(value) else str(int(value))


def _render_histogram(name: str, hist: Histogram) -> List[str]:
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    for index, edge in enumerate(hist.edges):
        cumulative += hist.counts[index]
        lines.append(
            f'{name}_bucket{{le="{_format_value(edge)}"}} {cumulative}'
        )
    cumulative += hist.counts[-1]
    lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
    lines.append(f"{name}_sum {_format_value(hist.sum)}")
    lines.append(f"{name}_count {hist.count}")
    return lines


def render_openmetrics(registry: Registry) -> str:
    """Render every instrument in ``registry`` as OpenMetrics text."""
    lines: List[str] = []
    for name in registry.names():
        instrument = registry.get(name)
        exposed = metric_name(name)
        if isinstance(instrument, Counter):
            lines.append(f"# TYPE {exposed} counter")
            lines.append(f"{exposed}_total {_format_value(instrument.value)}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {exposed} gauge")
            lines.append(f"{exposed} {_format_value(instrument.value)}")
        elif isinstance(instrument, Histogram):
            lines += _render_histogram(exposed, instrument)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _default_buckets(name: str) -> Sequence[float]:
    """Edge heuristic for raw ``hist`` events (which don't carry edges):
    wall-time series end in ``.seconds``, fraction-valued series mention
    ``fraction``, everything else is ratio-like — mirroring the bucket
    choices of the emitting hot paths."""
    if name.endswith(".seconds"):
        return DEFAULT_TIME_BUCKETS
    if "fraction" in name:
        return DEFAULT_FRACTION_BUCKETS
    return DEFAULT_RATIO_BUCKETS


def registry_from_events(events: Sequence[Event]) -> Registry:
    """Replay an event stream into a fresh instrument registry.

    ``hist`` events take the :func:`_default_buckets` edges of their
    name; spans rebuild their ``span.<name>.seconds`` wall-time
    histograms.
    """
    registry = Registry()
    for event in events:
        kind = event.get("type")
        name = event.get("name")
        if not isinstance(name, str):
            continue
        if kind == "counter":
            registry.counter(name).add(float(event.get("value", 1.0)))  # type: ignore[arg-type]
        elif kind == "gauge":
            registry.gauge(name).set(float(event.get("value", math.nan)))  # type: ignore[arg-type]
        elif kind == "hist":
            hist = registry.histogram(name, _default_buckets(name))
            values = event.get("values")
            if isinstance(values, (list, tuple)):
                hist.observe_many(values)
            else:
                hist.observe(float(event.get("value", math.nan)))  # type: ignore[arg-type]
        elif kind == "span":
            start = float(event.get("start", 0.0))  # type: ignore[arg-type]
            end = float(event.get("end", start))  # type: ignore[arg-type]
            registry.histogram(
                f"span.{name}.seconds", DEFAULT_TIME_BUCKETS
            ).observe(end - start)
    return registry

