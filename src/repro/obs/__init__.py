"""repro.obs — ABFT protocol telemetry: counters, histograms, span tracing.

The paper's value proposition is quantitative (syndromes against
analytical bounds, partial instead of full recomputation); this subsystem
records the numbers the protected hot paths would otherwise discard:

* typed instruments in a process-local :class:`Registry` — monotonic
  :class:`Counter`\\ s (``abft.detections``, ``abft.corrections``,
  ``abft.blocks_recomputed``, ``abft.false_positive_candidates``,
  ``pcg.rollbacks``, ``faults.injections``), :class:`Gauge`\\ s and
  fixed log-bucket :class:`Histogram`\\ s (``abft.syndrome_margin``,
  ``abft.block_recompute_fraction``, per-span wall time);
* a :meth:`Telemetry.span` context-manager tracer with nesting and an
  injectable monotonic clock (deterministic event streams under test);
* a fixed table of exporters — off, in-memory, JSONL event log, ring
  buffer — selected via ``AbftConfig.telemetry`` or the ``REPRO_OBS``
  environment override, with the registry contract of
  :mod:`repro.registry`;
* ``python -m repro.obs`` tooling: ``summarize`` (text or ``--json``)
  renders a recorded run, ``report`` writes a markdown campaign report.

Telemetry is off by default and the disabled path costs a single
``if telemetry.enabled`` guard per update site (verified by
``benchmarks/bench_obs_overhead.py``).
"""

from repro.obs.exporters import (
    BUILTIN_EXPORTERS,
    DEFAULT_EXPORTER,
    DEFAULT_FLUSH_EVERY,
    DEFAULT_RING_CAPACITY,
    EVENTS_DROPPED_COUNTER,
    OBS_ENV_VAR,
    OBS_PATH_ENV_VAR,
    Event,
    Exporter,
    InMemoryExporter,
    JsonlExporter,
    NullExporter,
    RingBufferExporter,
    available_exporters,
    make_exporter,
)
from repro.obs.instruments import (
    DEFAULT_FRACTION_BUCKETS,
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    log_buckets,
)
from repro.obs.report import render_report
from repro.obs.summary import (
    EventSummary,
    SpanStats,
    aggregate_events,
    load_events,
    read_events,
    render_summary,
    summary_as_dict,
)
from repro.obs.telemetry import (
    Span,
    Telemetry,
    reset_telemetry_cache,
    resolve_telemetry,
)
from repro.obs.timing import TimedKernels

__all__ = [
    # selection
    "OBS_ENV_VAR",
    "OBS_PATH_ENV_VAR",
    "DEFAULT_EXPORTER",
    "BUILTIN_EXPORTERS",
    "resolve_telemetry",
    "reset_telemetry_cache",
    # facade
    "Telemetry",
    "Span",
    "TimedKernels",
    # instruments
    "Registry",
    "Counter",
    "Gauge",
    "Histogram",
    "log_buckets",
    "DEFAULT_RATIO_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_FRACTION_BUCKETS",
    # exporters
    "Event",
    "Exporter",
    "NullExporter",
    "InMemoryExporter",
    "JsonlExporter",
    "RingBufferExporter",
    "DEFAULT_RING_CAPACITY",
    "DEFAULT_FLUSH_EVERY",
    "EVENTS_DROPPED_COUNTER",
    "available_exporters",
    "make_exporter",
    # summaries
    "EventSummary",
    "SpanStats",
    "aggregate_events",
    "load_events",
    "read_events",
    "render_summary",
    "summary_as_dict",
    # reports
    "render_report",
]
