"""OpenMetrics exposition and event-log replay (:mod:`repro.obs.expose`)."""

import math

from repro.obs import (
    DEFAULT_FRACTION_BUCKETS,
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Registry,
    metric_name,
    registry_from_events,
    render_openmetrics,
)


def test_metric_name_sanitizes_to_charset():
    assert metric_name("abft.syndrome_margin") == "abft_syndrome_margin"
    assert metric_name("span.plan.shard.seconds") == "span_plan_shard_seconds"
    assert metric_name("9lives") == "_9lives"
    assert metric_name("a:b") == "a:b"


def test_render_openmetrics_counter_gauge_histogram():
    registry = Registry()
    registry.counter("abft.detections").add(3.0)
    registry.gauge("abft.n_blocks").set(12.0)
    hist = registry.histogram("margin", (1.0, 10.0))
    for value in (0.5, 2.0, 20.0):
        hist.observe(value)
    text = render_openmetrics(registry)
    lines = text.splitlines()
    assert "# TYPE abft_detections counter" in lines
    assert "abft_detections_total 3" in lines
    assert "# TYPE abft_n_blocks gauge" in lines
    assert "abft_n_blocks 12" in lines
    assert "# TYPE margin histogram" in lines
    # Cumulative buckets: <=1 holds the underflow, +Inf everything.
    assert 'margin_bucket{le="1"} 1' in lines
    assert 'margin_bucket{le="10"} 2' in lines
    assert 'margin_bucket{le="+Inf"} 3' in lines
    assert "margin_count 3" in lines
    assert lines[-1] == "# EOF"


def test_render_openmetrics_nan_gauge():
    registry = Registry()
    registry.gauge("g").set(math.nan)
    assert "g NaN" in render_openmetrics(registry)


def test_registry_from_events_replays_all_kinds():
    events = [
        {"type": "counter", "name": "abft.checks", "value": 2.0, "attrs": {}},
        {"type": "gauge", "name": "pcg.residual", "value": 0.5, "attrs": {}},
        {"type": "hist", "name": "abft.syndrome_margin", "value": 1e-4, "attrs": {}},
        {"type": "hist", "name": "kernel.spmv.seconds", "values": [1e-3, 2e-3],
         "attrs": {}},
        {"type": "span", "name": "abft.multiply", "start": 1.0, "end": 1.25,
         "depth": 0, "parent": None, "attrs": {}},
    ]
    registry = registry_from_events(events)
    assert registry.counter("abft.checks").value == 2.0
    assert registry.gauge("pcg.residual").value == 0.5
    margin = registry.get("abft.syndrome_margin")
    assert margin.count == 1
    assert margin.edges == DEFAULT_RATIO_BUCKETS  # ratio heuristic
    spmv = registry.get("kernel.spmv.seconds")
    assert spmv.count == 2
    assert spmv.edges == DEFAULT_TIME_BUCKETS  # .seconds heuristic
    span = registry.get("span.abft.multiply.seconds")
    assert span.count == 1 and span.sum == 0.25


def test_bucket_heuristic_fraction_names():
    events = [
        {"type": "hist", "name": "abft.block_recompute_fraction", "value": 0.25,
         "attrs": {}},
    ]
    registry = registry_from_events(events)
    hist = registry.get("abft.block_recompute_fraction")
    assert hist.edges == DEFAULT_FRACTION_BUCKETS
