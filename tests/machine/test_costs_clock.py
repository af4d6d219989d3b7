"""Unit tests for kernel cost builders and the execution meter."""

import pytest

from repro.errors import ConfigurationError
from repro.machine import (
    DeviceParams,
    ExecutionMeter,
    KernelCost,
    Machine,
    TaskGraph,
    axpy_cost,
    blocked_checksum_cost,
    checkpoint_restore_cost,
    checkpoint_store_cost,
    checksum_matvec_cost,
    dense_check_cost,
    dot_cost,
    log2ceil,
    norm_cost,
    partial_spmv_cost,
    spmv_cost,
)


def test_log2ceil():
    assert log2ceil(1) == 1.0
    assert log2ceil(2) == 1.0
    assert log2ceil(3) == 2.0
    assert log2ceil(32) == 5.0
    assert log2ceil(33) == 6.0


def test_kernel_cost_rejects_negative():
    with pytest.raises(ConfigurationError):
        KernelCost(-1.0, 0.0)


def test_kernel_cost_fusion_adds():
    fused = KernelCost(10.0, 2.0) + KernelCost(5.0, 3.0)
    assert fused == KernelCost(15.0, 5.0)


def test_spmv_cost_counts_two_flops_per_entry():
    cost = spmv_cost(nnz=1000, max_row_nnz=16)
    assert cost.work == 2000.0
    assert cost.span == 4.0


def test_partial_spmv_cheaper_than_full():
    assert partial_spmv_cost(100, 16).work < spmv_cost(1000, 16).work


def test_dot_cost_two_pass_reduction():
    assert dot_cost(1024).span == 2 * 10.0
    assert dot_cost(1024).work == 2048.0


def test_norm_adds_sqrt():
    assert norm_cost(64).work == dot_cost(64).work + 1.0


def test_axpy_unit_span():
    assert axpy_cost(100) == KernelCost(200.0, 1.0)


def test_blocked_checksum_span_tracks_block_size():
    small = blocked_checksum_cost(n_rows=1024, block_size=4, n_blocks=256)
    large = blocked_checksum_cost(n_rows=1024, block_size=512, n_blocks=2)
    assert small.span < large.span
    assert small.work > large.work  # more blocks -> more syndrome entries


def test_blocked_checksum_rejects_bad_block():
    with pytest.raises(ConfigurationError):
        blocked_checksum_cost(10, 0, 10)


def test_dense_check_deeper_than_blocked():
    n = 4096
    dense = dense_check_cost(n)
    blocked = blocked_checksum_cost(n, 32, n // 32)
    assert dense.span > blocked.span


def test_checksum_matvec_is_spmv_shaped():
    assert checksum_matvec_cost(500, 30) == spmv_cost(500, 30)


def test_checkpoint_costs_symmetric():
    assert checkpoint_store_cost(100) == checkpoint_restore_cost(100)


def test_meter_advance_and_snapshot():
    meter = ExecutionMeter()
    meter.advance(1.5, flops=10.0)
    meter.advance(0.5)
    assert meter.snapshot() == (2.0, 10.0)


def test_meter_rejects_negative():
    with pytest.raises(ConfigurationError):
        ExecutionMeter().advance(-1.0)


def test_meter_run_kernel_matches_solo_model():
    params = DeviceParams(throughput=100.0, launch_overhead=1.0, sync_time=0.5)
    meter = ExecutionMeter(machine=Machine(params))
    duration = meter.run_kernel(KernelCost(work=200.0, span=2.0))
    assert duration == pytest.approx(1.0 + max(2.0, 1.0))
    assert meter.flops == 200.0


def test_meter_run_graph_charges_makespan_and_work():
    params = DeviceParams(
        throughput=10.0, launch_overhead=0.0, sync_time=0.0, concurrency_boost=0.0
    )
    meter = ExecutionMeter(machine=Machine(params))
    g = TaskGraph()
    g.add("a", work=50.0)
    g.add("b", work=50.0)
    makespan = meter.run_graph(g)
    assert makespan == pytest.approx(10.0)
    assert meter.seconds == pytest.approx(10.0)
    assert meter.flops == 100.0


def test_meter_fork_shares_machine_but_not_counters():
    meter = ExecutionMeter()
    meter.advance(5.0, 5.0)
    fork = meter.fork()
    assert fork.machine is meter.machine
    assert fork.snapshot() == (0.0, 0.0)
