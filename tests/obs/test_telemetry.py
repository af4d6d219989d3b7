"""Telemetry facade: spans, resolution, disabled path, kernel wrapping."""

import pytest

from repro.errors import ConfigurationError
from repro.kernels import VectorizedKernels
from repro.obs import (
    InMemoryExporter,
    Telemetry,
    TimedKernels,
    resolve_telemetry,
)


# ----------------------------------------------------------------------
# Instrument updates + events
# ----------------------------------------------------------------------
def test_updates_aggregate_and_emit(fake_clock):
    tel = Telemetry(exporter=InMemoryExporter(), clock=fake_clock)
    tel.count("c", 2.0, where="here")
    tel.gauge("g", 1.5)
    tel.observe("h", 0.25)
    assert tel.registry.counter("c").value == 2.0
    assert tel.registry.gauge("g").value == 1.5
    assert tel.registry.histogram("h").count == 1
    kinds = [event["type"] for event in tel.events()]
    assert kinds == ["counter", "gauge", "hist"]
    assert tel.events()[0]["attrs"] == {"where": "here"}


def test_span_nesting_depth_and_parent(fake_clock):
    tel = Telemetry(exporter=InMemoryExporter(), clock=fake_clock)
    with tel.span("outer", n=4):
        with tel.span("inner"):
            pass
        with tel.span("inner"):
            pass
    spans = [event for event in tel.events() if event["type"] == "span"]
    assert [s["name"] for s in spans] == ["inner", "inner", "outer"]
    inner, _, outer = spans
    assert inner["depth"] == 1 and inner["parent"] == "outer"
    assert outer["depth"] == 0 and outer["parent"] is None
    assert outer["attrs"] == {"n": 4}
    assert outer["end"] > outer["start"]
    # Durations also land in the span.<name>.seconds histogram.
    assert tel.registry.histogram("span.inner.seconds").count == 2


def test_observe_many_emits_one_event_with_values(fake_clock):
    tel = Telemetry(exporter=InMemoryExporter(), clock=fake_clock)
    tel.observe_many("h", [0.25, 0.5, 4.0], shard=1)
    hist = tel.registry.histogram("h")
    assert hist.count == 3
    events = tel.events()
    assert len(events) == 1
    assert events[0]["type"] == "hist"
    assert events[0]["values"] == [0.25, 0.5, 4.0]
    assert events[0]["attrs"] == {"shard": 1}
    tel.observe_many("h", [])  # empty batch: nothing recorded or emitted
    assert hist.count == 3 and len(tel.events()) == 1


def test_observe_many_disabled_is_inert():
    tel = Telemetry.disabled()
    tel.observe_many("h", [1.0])
    assert tel.registry.names() == ()


def test_events_requires_buffering_exporter():
    from repro.obs import NullExporter

    tel = Telemetry(exporter=NullExporter())
    with pytest.raises(ConfigurationError, match="does not buffer"):
        tel.events()


# ----------------------------------------------------------------------
# Disabled path
# ----------------------------------------------------------------------
def test_disabled_telemetry_is_inert():
    tel = Telemetry.disabled()
    assert tel is Telemetry.disabled()  # singleton
    assert not tel.enabled
    tel.count("c")
    tel.gauge("g", 1.0)
    tel.observe("h", 1.0)
    with tel.span("s"):
        pass
    assert tel.registry.names() == ()


def test_disabled_span_is_reused():
    tel = Telemetry.disabled()
    assert tel.span("a") is tel.span("b")


def test_wrap_kernels_disabled_returns_input_unchanged():
    kernels = VectorizedKernels()
    assert Telemetry.disabled().wrap_kernels(kernels) is kernels


def test_wrap_kernels_enabled_times_dispatch():
    tel = Telemetry(exporter=InMemoryExporter())
    kernels = VectorizedKernels()
    wrapped = tel.wrap_kernels(kernels)
    assert isinstance(wrapped, TimedKernels)
    assert wrapped.name == kernels.name
    # Re-wrapping passes through; wrapping a wrapper does not stack.
    assert tel.wrap_kernels(wrapped) is wrapped
    rewrapped = Telemetry(exporter=InMemoryExporter()).wrap_kernels(wrapped)
    assert not isinstance(rewrapped.inner, TimedKernels)


def test_timed_kernels_record_per_op_histograms():
    import numpy as np

    from repro.core.blocking import BlockPartition

    tel = Telemetry(exporter=InMemoryExporter())
    wrapped = tel.wrap_kernels(VectorizedKernels())
    partition = BlockPartition(8, 4)
    weights = np.ones(8)
    wrapped.result_checksums(weights, np.arange(8.0), partition)
    hist = tel.registry.histogram("kernel.result_checksums.seconds")
    assert hist.count == 1
    event = tel.events()[-1]
    assert event["name"] == "kernel.result_checksums.seconds"
    assert event["attrs"]["kernel"] == "vectorized"


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def test_resolve_instance_passes_through(monkeypatch):
    tel = Telemetry(exporter=InMemoryExporter())
    monkeypatch.setenv("REPRO_OBS", "jsonl")
    assert resolve_telemetry(tel) is tel  # env never overrides instances


def test_resolve_none_defaults_to_disabled():
    assert resolve_telemetry(None) is Telemetry.disabled()
    assert resolve_telemetry("off") is Telemetry.disabled()


def test_resolve_name_is_cached_and_shared():
    a = resolve_telemetry("memory")
    b = resolve_telemetry("memory")
    assert a is b
    assert a.enabled


def test_resolve_env_overrides_name(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "memory")
    tel = resolve_telemetry("off")
    assert tel.enabled
    assert isinstance(tel.exporter, InMemoryExporter)


def test_resolve_rejects_unknown_types():
    with pytest.raises(ConfigurationError):
        resolve_telemetry(42)


def test_resolve_unknown_name_raises():
    with pytest.raises(ConfigurationError, match="unknown exporter"):
        resolve_telemetry("nope")

