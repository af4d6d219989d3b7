"""Telemetry determinism: identical runs produce identical event streams.

With a fake clock injected, two seeded ``run_pcg`` executions must emit
bit-identical events — the property that makes event logs diffable across
machines and usable as regression artifacts.
"""

import numpy as np
import pytest

from repro.obs import InMemoryExporter, Telemetry
from repro.solvers.ft_pcg import run_pcg
from repro.sparse import banded_spd

from tests.obs.conftest import FakeClock


def run_instrumented(seed=3, error_rate=1e-6):
    matrix = banded_spd(300, half_bandwidth=3, seed=0)
    b = np.ones(matrix.n_rows)
    tel = Telemetry(exporter=InMemoryExporter(), clock=FakeClock())
    result = run_pcg(
        matrix, b, scheme="abft", error_rate=error_rate, seed=seed, telemetry=tel
    )
    return result, tel.events()


def test_identical_runs_emit_identical_event_streams():
    result_a, events_a = run_instrumented()
    result_b, events_b = run_instrumented()
    assert result_a.iterations == result_b.iterations
    assert events_a == events_b  # full structural equality, timestamps included
    assert events_a  # and the stream is non-trivial


def test_different_seeds_diverge():
    _, events_a = run_instrumented(seed=3)
    _, events_b = run_instrumented(seed=4)
    assert events_a != events_b


def test_event_stream_matches_solver_accounting():
    result, events = run_instrumented(error_rate=1e-6)
    iteration_spans = [
        e for e in events if e["type"] == "span" and e["name"] == "pcg.iteration"
    ]
    assert len(iteration_spans) == result.iterations
    detections = sum(
        float(e["value"])
        for e in events
        if e["type"] == "counter" and e["name"] == "abft.detections"
    )
    assert detections == result.detections
    solves = [e for e in events if e["type"] == "span" and e["name"] == "pcg.solve"]
    assert len(solves) == 1
    assert solves[0]["depth"] == 0
    # Iteration spans nest directly under the solve span.
    assert all(span["parent"] == "pcg.solve" for span in iteration_spans)


def test_residual_gauge_tracks_convergence():
    result, events = run_instrumented(error_rate=0.0)
    residuals = [
        float(e["value"])
        for e in events
        if e["type"] == "gauge" and e["name"] == "pcg.residual_relative"
    ]
    assert len(residuals) == result.iterations
    assert result.converged
    assert residuals[-1] == pytest.approx(min(residuals))
