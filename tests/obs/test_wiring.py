"""Telemetry wired through the protected hot paths.

These tests drive the real protocol — protected multiplies, corrections,
fault injection — against an in-memory exporter and assert the advertised
instruments fire (and that the "off" path emits nothing at all).
"""

import numpy as np
import pytest

import repro.core.detector
from repro.core import AbftConfig, BlockAbftDetector, FaultTolerantSpMV
from repro.faults.injector import FaultInjector
from repro.obs import InMemoryExporter, Telemetry
from repro.sparse import banded_spd


@pytest.fixture
def matrix():
    return banded_spd(256, half_bandwidth=3, seed=7)


def corrupt_result_once(index=5, magnitude=1e8):
    """Tamper hook corrupting one result element on the first call."""
    state = {"done": False}

    def tamper(stage, data, work):
        if stage == "result" and not state["done"]:
            data[index] += magnitude
            state["done"] = True

    return tamper


def event_names(tel, kind):
    return [event["name"] for event in tel.events() if event["type"] == kind]


# ----------------------------------------------------------------------
# Protected multiply
# ----------------------------------------------------------------------
def test_clean_multiply_emits_checks_margins_and_spans(matrix):
    tel = Telemetry(exporter=InMemoryExporter())
    operator = FaultTolerantSpMV(matrix, block_size=32, telemetry=tel)
    assert operator.telemetry is tel
    result = operator.multiply(np.ones(matrix.n_rows))
    assert result.clean

    counters = event_names(tel, "counter")
    assert "abft.checks" in counters
    assert "abft.detections" not in counters  # nothing flagged
    margin_events = [
        event
        for event in tel.events()
        if event["type"] == "hist" and event["name"] == "abft.syndrome_margin"
    ]
    assert len(margin_events) == 1  # one batched event per invariant check
    margins = margin_events[0]["values"]
    assert len(margins) == operator.detector.n_blocks
    assert all(0.0 <= m < 1.0 for m in margins)  # clean run: all below bound

    spans = event_names(tel, "span")
    assert "checksum.build" in spans
    assert "abft.multiply" in spans and "abft.detect" in spans
    assert "abft.correct" not in spans
    assert tel.registry.gauge("abft.n_blocks").value == operator.detector.n_blocks


def test_corrected_multiply_counts_corrections(matrix):
    tel = Telemetry(exporter=InMemoryExporter())
    operator = FaultTolerantSpMV(matrix, block_size=32, telemetry=tel)
    result = operator.multiply(np.ones(matrix.n_rows), tamper=corrupt_result_once())
    assert result.corrected_blocks  # the fault was caught and fixed

    registry = tel.registry
    assert registry.counter("abft.detections").value >= 1
    assert registry.counter("abft.corrections").value >= 1
    assert registry.counter("abft.blocks_recomputed").value >= 1
    fraction = registry.histogram("abft.block_recompute_fraction")
    assert fraction.count >= 1
    assert 0.0 < fraction.max <= 1.0
    assert "abft.correct" in event_names(tel, "span")


def test_off_telemetry_emits_nothing(matrix):
    operator = FaultTolerantSpMV(matrix, block_size=32)  # default: off
    tel = operator.telemetry
    assert not tel.enabled
    operator.multiply(np.ones(matrix.n_rows), tamper=corrupt_result_once())
    assert tel.registry.names() == ()


# ----------------------------------------------------------------------
# Near misses
# ----------------------------------------------------------------------
def test_near_miss_counter_tracks_candidates(matrix, monkeypatch):
    # Fraction 0.0 makes every clean finite-margin block a near miss.
    monkeypatch.setattr(repro.core.detector, "NEAR_MISS_FRACTION", 0.0)
    tel = Telemetry(exporter=InMemoryExporter())
    detector = BlockAbftDetector(matrix, AbftConfig(block_size=32), telemetry=tel)
    b = np.ones(matrix.n_rows)
    detector.detect(b, matrix.matvec(b))
    candidates = tel.registry.counter("abft.false_positive_candidates").value
    assert candidates == detector.n_blocks


def test_clean_syndromes_are_no_near_misses(matrix):
    tel = Telemetry(exporter=InMemoryExporter())
    detector = BlockAbftDetector(matrix, AbftConfig(block_size=32), telemetry=tel)
    b = np.ones(matrix.n_rows)
    detector.detect(b, matrix.matvec(b))
    # Clean syndromes sit far below 0.9 of the bound.
    assert "abft.false_positive_candidates" not in tel.registry.names()
    assert "abft.checks" in tel.registry.names()


# ----------------------------------------------------------------------
# Injector counters
# ----------------------------------------------------------------------
def test_injector_counts_attempts_and_injections():
    tel = Telemetry(exporter=InMemoryExporter())
    injector = FaultInjector.seeded(0, telemetry=tel)
    vec = np.ones(16)
    injector.corrupt_element(vec, 3, target="result")
    injector.corrupt_scalar(1.0, target="detection")
    registry = tel.registry
    assert registry.counter("faults.injection_attempts").value == 2
    assert registry.counter("faults.injections").value == 2
    targets = {
        event["attrs"]["target"]
        for event in tel.events()
        if event["name"] == "faults.injections"
    }
    assert targets == {"result", "detection"}


def test_injector_without_telemetry_stays_silent():
    injector = FaultInjector.seeded(0)
    injector.corrupt_element(np.ones(4), 0)
    assert injector.telemetry is None  # no stream attached, nothing to emit
