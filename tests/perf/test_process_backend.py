"""Robustness and lifecycle tests for the ``processes`` plan backend.

Failure semantics under test: a killed worker surfaces as
:class:`~repro.errors.WorkerCrashError`, a wedged one as
:class:`~repro.errors.WorkerTimeoutError` — typed errors within the
timeout, never a hang — after which the pool respawns lazily and keeps
producing the same bits.  Lifecycle: ``close()`` (and the atexit sweep)
unlinks the SharedMemory arena, so no segment outlives its plan; the
resource tracker never reports a leak.  Determinism: repeated seeded
runs emit bit-identical telemetry event streams.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import AbftConfig, FaultTolerantSpMV
from repro.errors import (
    ConfigurationError,
    ParallelBackendError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.obs import InMemoryExporter, Telemetry
from repro.perf import ProtectedPlan
from repro.perf.process_backend import DEFAULT_SERIAL_CUTOFF, ProcessBackend
from repro.sparse import random_spd

N = 96
NNZ = 900
BLOCK = 16
N_SHARDS = 4

SRC = str(Path(__file__).resolve().parents[2] / "src")


class FakeClock:
    """Deterministic monotonic clock: each reading advances by ``step``."""

    def __init__(self, step: float = 0.001) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


def make_plan(telemetry=None, timeout=None, **config_kwargs):
    matrix = random_spd(N, NNZ, seed=7)
    operator = FaultTolerantSpMV(
        matrix,
        config=AbftConfig(block_size=BLOCK, **config_kwargs),
        telemetry=telemetry,
    )
    options = {"serial_cutoff": 0}
    if timeout is not None:
        options["timeout"] = timeout
    return ProtectedPlan(
        operator, n_shards=N_SHARDS, parallel="processes", backend_options=options
    )


def operand():
    return np.random.default_rng(123).standard_normal(N)


def segment_path(backend):
    name = backend.arena_name
    assert name is not None
    return Path("/dev/shm") / name.lstrip("/")


# ----------------------------------------------------------------------
# Crash / timeout surfacing
# ----------------------------------------------------------------------
def test_killed_worker_raises_typed_error_not_hang():
    with make_plan(timeout=30.0) as plan:
        b = operand()
        reference = [float(v).hex() for v in plan.multiply(b.copy()).value]
        backend = plan.backend
        assert isinstance(backend, ProcessBackend)
        victim = backend._pool.workers[1].process
        victim.kill()
        victim.join(timeout=10.0)
        started = time.monotonic()
        with pytest.raises(WorkerCrashError):
            plan.multiply(b.copy())
        assert time.monotonic() - started < 30.0  # typed error, not a hang
        # The pool respawns lazily and the bits are unchanged.
        assert [float(v).hex() for v in plan.multiply(b.copy()).value] == reference


def test_wedged_worker_raises_timeout_error():
    with make_plan(timeout=1.0) as plan:
        b = operand()
        plan.multiply(b.copy())
        backend = plan.backend
        victim_pid = backend._pool.workers[0].process.pid
        os.kill(victim_pid, signal.SIGSTOP)
        try:
            started = time.monotonic()
            with pytest.raises(WorkerTimeoutError):
                plan.multiply(b.copy())
            elapsed = time.monotonic() - started
            assert elapsed < 15.0  # bounded: timeout + pool teardown
        finally:
            try:
                os.kill(victim_pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
        # Recovery after the wedged pool is reaped.
        result = plan.multiply(b.copy())
        assert result.value.shape == (N,)


def test_worker_exception_is_marshalled_with_traceback():
    with make_plan() as plan:
        b = operand()
        plan.multiply(b.copy())
        backend = plan.backend
        # An unknown pool command makes the worker raise.
        generation = backend._next_generation()
        with pytest.raises(ParallelBackendError) as excinfo:
            backend._dispatch(
                backend._ensure_pool(), generation, {0: ("bogus", generation, False)}
            )
        assert "worker 0 raised" in str(excinfo.value)
        # The pool survives an in-worker exception (no respawn needed).
        assert backend._pool is not None and backend._pool.alive
        plan.multiply(b.copy())


def test_errors_are_configuration_error_family():
    assert issubclass(WorkerCrashError, ConfigurationError)
    assert issubclass(WorkerTimeoutError, ConfigurationError)
    assert issubclass(ParallelBackendError, ConfigurationError)


# ----------------------------------------------------------------------
# SharedMemory lifecycle: no zombies, no tracker leaks
# ----------------------------------------------------------------------
def test_close_unlinks_segment_and_is_idempotent():
    plan = make_plan()
    backend = plan.backend
    path = segment_path(backend)
    plan.multiply(operand())
    assert path.exists()
    plan.close()
    assert not path.exists()
    assert backend.closed and not backend.parallel_active
    plan.close()  # idempotent
    with pytest.raises(ParallelBackendError):
        backend.run_detect(operand(), Telemetry(enabled=False))


def test_crash_leaves_no_zombie_segment_after_close():
    plan = make_plan(timeout=30.0)
    backend = plan.backend
    path = segment_path(backend)
    plan.multiply(operand())
    backend._pool.workers[0].process.kill()
    with pytest.raises(WorkerCrashError):
        plan.multiply(operand())
    assert path.exists()  # arena survives the crash for lazy respawn
    plan.close()
    assert not path.exists()


_SUBPROCESS_PROLOGUE = textwrap.dedent(
    """
    import numpy as np
    from repro.core import AbftConfig, FaultTolerantSpMV
    from repro.perf import ProtectedPlan
    from repro.sparse import random_spd

    op = FaultTolerantSpMV(random_spd(96, 900, seed=7),
                           config=AbftConfig(block_size=16))
    plan = ProtectedPlan(op, n_shards=4, parallel="processes",
                         backend_options={"serial_cutoff": 0})
    b = np.random.default_rng(123).standard_normal(96)
    plan.multiply(b)
    print("SEGMENT", plan.backend.arena_name)
    """
)


def _run_subprocess(epilogue):
    result = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_PROLOGUE + textwrap.dedent(epilogue)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    segment = None
    for line in result.stdout.splitlines():
        if line.startswith("SEGMENT "):
            segment = line.split(" ", 1)[1].strip()
    assert segment
    return segment, result.stderr


@pytest.mark.parametrize("epilogue", ["plan.close()", ""], ids=["close", "atexit"])
def test_no_tracker_leak_warnings_and_no_segment_left(epilogue):
    """Both explicit close and interpreter-exit cleanup leave nothing:
    no /dev/shm segment, no resource_tracker 'leaked' warning, no
    KeyError noise from double-unregistration."""
    segment, stderr = _run_subprocess(epilogue)
    assert not (Path("/dev/shm") / segment.lstrip("/")).exists()
    assert "leaked shared_memory" not in stderr
    assert "resource_tracker" not in stderr
    assert "Traceback" not in stderr


# ----------------------------------------------------------------------
# Dormancy below the cutoff
# ----------------------------------------------------------------------
def test_backend_stays_dormant_below_cutoff():
    matrix = random_spd(N, NNZ, seed=7)
    operator = FaultTolerantSpMV(matrix, config=AbftConfig(block_size=BLOCK))
    plan = ProtectedPlan(operator, n_shards=N_SHARDS, parallel="processes")
    backend = plan.backend
    assert matrix.nnz + matrix.n_rows < DEFAULT_SERIAL_CUTOFF
    assert not backend.parallel_active
    assert backend.arena_name is None
    # Sequential semantics, no workers ever spawned.
    result = plan.multiply(operand())
    assert backend._pool is None
    reference = FaultTolerantSpMV(
        matrix, config=AbftConfig(block_size=BLOCK)
    ).multiply(operand())
    assert [float(v).hex() for v in result.value] == [
        float(v).hex() for v in reference.value
    ]


# ----------------------------------------------------------------------
# Telemetry determinism
# ----------------------------------------------------------------------
def _seeded_event_stream():
    telemetry = Telemetry(exporter=InMemoryExporter(), clock=FakeClock())
    with make_plan(telemetry=telemetry) as plan:
        b = operand()
        for _ in range(3):
            plan.multiply(b.copy())
    return telemetry.events()


def _normalized(event):
    """Strip worker wall-clock payloads; keep everything deterministic.

    ``delta`` events carry real worker timings (bucket placement, sums,
    extrema vary run to run) but their *shape* — worker order, instrument
    names, observation counts — must be bit-identical.
    """
    if event.get("type") != "delta":
        return event
    return {
        "type": "delta",
        "worker": event["worker"],
        "counters": event["counters"],
        "gauges": sorted(event["gauges"]),
        "hists": {name: hist["count"] for name, hist in event["hists"].items()},
        "t": event["t"],
    }


def test_repeated_seeded_runs_emit_bit_identical_event_streams():
    first = _seeded_event_stream()
    second = _seeded_event_stream()
    assert [_normalized(e) for e in first] == [_normalized(e) for e in second]
    # Non-delta events (parent-side, fake-clocked) stay bit-identical.
    assert [e for e in first if e["type"] != "delta"] == [
        e for e in second if e["type"] != "delta"
    ]
    deltas = [e for e in first if e["type"] == "delta"]
    # 4 workers per multiply, 3 multiplies, merged in ascending worker id.
    assert [e["worker"] for e in deltas] == [0, 1, 2, 3] * 3
    for event in deltas:
        hists = event["hists"]
        assert hists["kernel.detect_shard.seconds"]["count"] == 1
        assert hists["span.plan.shard.seconds"]["count"] == 1


def test_worker_deltas_merge_into_parent_registry():
    telemetry = Telemetry(exporter=InMemoryExporter())
    with make_plan(telemetry=telemetry) as plan:
        plan.multiply(operand())
        detect = telemetry.registry.get("kernel.detect_shard.seconds")
        assert detect.count == N_SHARDS
        assert detect.sum > 0.0
        shard_spans = telemetry.registry.get("span.plan.shard.seconds")
        assert shard_spans.count == N_SHARDS


def test_disabled_telemetry_ships_no_deltas():
    with make_plan() as plan:
        result = plan.multiply(operand())
        assert result.clean
        backend = plan.backend
        assert backend._pool is not None  # engaged, yet nothing recorded
