"""tracemalloc regression: the planned steady-state loop stops allocating.

The plan's whole reason to exist is that after warmup a protected
multiply touches only preallocated buffers.  These tests pin that with
tracemalloc at a size where any per-call array temporary (160 KB for an
n-vector, ~1 MB for an nnz workspace at this shape) dwarfs the thresholds.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import FaultTolerantSpMV
from repro.machine import ExecutionMeter
from repro.obs import Telemetry
from repro.perf import ProtectedPlan
from repro.sparse import random_spd

N = 20_000
NNZ = 120_000
BLOCK = 256

#: Net retained growth allowed across the measured calls (python object
#: churn only — any leaked array at this size is orders beyond this).
NET_BUDGET = 16 * 1024
#: Transient peak allowed over the baseline — far below one n-vector.
PEAK_BUDGET = 64 * 1024


@pytest.fixture(scope="module")
def operator():
    # Telemetry is pinned off regardless of REPRO_OBS: enabled telemetry
    # allocates event dicts (and the JSONL exporter buffers pending
    # batches) by design, which this test would misread as a leak in the
    # numeric buffer discipline.  Telemetry cost has its own budget in
    # benchmarks/bench_obs_overhead.py.
    return FaultTolerantSpMV(
        random_spd(N, NNZ, seed=5),
        block_size=BLOCK,
        telemetry=Telemetry(enabled=False),
    )


@pytest.fixture(scope="module")
def b():
    return np.random.default_rng(5).standard_normal(N)


def _traced(callable_, repeats):
    """(net growth, transient peak) in bytes over ``repeats`` calls."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(repeats):
            callable_()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current - before, peak - before


def _assert_steady_state_allocates_nothing(multiply):
    for _ in range(3):  # warmup: buffers built, caches resolved
        multiply()
    net, peak = _traced(multiply, repeats=5)
    assert net < NET_BUDGET, f"steady-state loop retained {net} bytes"
    assert peak < PEAK_BUDGET, f"steady-state loop transiently allocated {peak} bytes"


def test_planned_multiply_allocates_nothing_after_warmup(operator, b):
    # Budgets are calibrated against CSR shard buffers; pin the format so
    # a REPRO_FORMAT override doesn't change the storage under test.
    plan = operator.planned(sparse_format="csr")
    meter = ExecutionMeter(machine=operator.machine)
    _assert_steady_state_allocates_nothing(lambda: plan.multiply(b, meter=meter))


def _noop(stage, data, work):
    """A fault hook that corrupts nothing (a fault-free solve's hook)."""


def test_planned_multiply_with_noop_hook_allocates_nothing(operator, b):
    plan = operator.planned(sparse_format="csr")
    meter = ExecutionMeter(machine=operator.machine)
    _assert_steady_state_allocates_nothing(
        lambda: plan.multiply(b, tamper=_noop, meter=meter)
    )


def test_planned_multiply_without_meter_allocates_nothing(operator, b):
    plan = operator.planned(sparse_format="csr")
    _assert_steady_state_allocates_nothing(lambda: plan.multiply(b))


def test_float32_one_shard_plan_allocates_nothing(b):
    """C b and beta read the plan's float64 copy of the operand instead
    of widening it into a fresh array on every call."""
    operator = FaultTolerantSpMV(
        random_spd(N, NNZ, seed=5, dtype=np.float32),
        block_size=BLOCK,
        telemetry=Telemetry(enabled=False),
    )
    plan = ProtectedPlan(operator, n_shards=1, parallel="serial", sparse_format="csr")
    meter = ExecutionMeter(machine=operator.machine)
    b32 = b.astype(np.float32)
    _assert_steady_state_allocates_nothing(lambda: plan.multiply(b32, meter=meter))


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("sparse_format", ["csr", "bsr"])
def test_threaded_plan_allocates_nothing(sparse_format, dtype, b):
    """The fused multi-shard path: ``_detect_fused`` stages the operand
    and fans ``FusedShardBuffers.detect_shard`` out on the thread pool,
    one task per shard, each writing only its slices of the plan's
    buffers.  The serial legs above never run that code."""
    operator = FaultTolerantSpMV(
        random_spd(N, NNZ, seed=5, dtype=dtype),
        block_size=BLOCK,
        telemetry=Telemetry(enabled=False),
    )
    plan = ProtectedPlan(
        operator, n_shards=3, parallel="threads", sparse_format=sparse_format
    )
    assert plan.spmv.n_shards == 3
    meter = ExecutionMeter(machine=operator.machine)
    operand = b.astype(dtype)
    _assert_steady_state_allocates_nothing(lambda: plan.multiply(operand, meter=meter))


def test_operator_multiply_allocates_the_value_copy(operator, b):
    """Sanity check that the assertion above has teeth: ``op.multiply``
    runs the same kind of plan but hands back a copy of its result
    buffer, so every call allocates at least one result vector."""
    meter = ExecutionMeter(machine=operator.machine)
    for _ in range(2):
        operator.multiply(b, meter=meter)
    _, peak = _traced(lambda: operator.multiply(b, meter=meter), repeats=1)
    assert peak > N * 8


def test_planned_result_bits_survive_the_buffer_discipline(operator, b):
    """Zero allocation must not come at the price of drift: after many
    reuses the planned product still equals a fresh matvec bitwise."""
    plan = operator.planned(sparse_format="csr")
    for _ in range(10):
        value = plan.multiply(b).value
    np.testing.assert_array_equal(value, operator.matrix.matvec(b))
