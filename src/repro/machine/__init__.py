"""Simulated heterogeneous machine: task graphs, scheduler, kernel costs.

This package replaces the paper's CPU+GPU testbed with a deterministic
performance model (see DESIGN.md).  Runtime-overhead experiments are
*modeled* on this substrate; the real measured-time path is exercised by
the pytest-benchmark suite.
"""

from repro.machine.clock import ExecutionMeter
from repro.machine.costs import (
    BLOCKING_SYNC_SPAN,
    FLAG_SYNC_SPAN,
    HOST_SYNC_SPAN,
    blocking_norm_cost,
    KernelCost,
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
    pointwise_cost,
    probe_cost,
    spmv_cost,
)
from repro.machine.graph import TaskGraph
from repro.machine.params import TESLA_K80, TESLA_K80_NO_OVERLAP, DeviceParams
from repro.machine.scheduler import Machine, Schedule, TaskTiming
from repro.machine.task import Task
from repro.machine.trace import render_gantt, utilization

__all__ = [
    "DeviceParams",
    "TESLA_K80",
    "TESLA_K80_NO_OVERLAP",
    "Task",
    "TaskGraph",
    "Machine",
    "Schedule",
    "TaskTiming",
    "ExecutionMeter",
    "render_gantt",
    "utilization",
    "KernelCost",
    "HOST_SYNC_SPAN",
    "BLOCKING_SYNC_SPAN",
    "FLAG_SYNC_SPAN",
    "blocking_norm_cost",
    "log2ceil",
    "spmv_cost",
    "partial_spmv_cost",
    "probe_cost",
    "dot_cost",
    "norm_cost",
    "axpy_cost",
    "pointwise_cost",
    "blocked_checksum_cost",
    "checksum_matvec_cost",
    "dense_check_cost",
    "checkpoint_store_cost",
    "checkpoint_restore_cost",
]
