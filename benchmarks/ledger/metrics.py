"""Metric declarations: names, units, better direction and bounds.

``BENCHMARK.json`` at the repository root declares the same lists; the
self-tests keep the two in step.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the reference median by which the metric may worsen
    #: before a change counts as a regression (end-to-end metrics only).
    #: README.md records the run-to-run spreads these bounds must hold.
    bound: float = 0.0


END_TO_END: Tuple[Metric, ...] = (
    Metric("overhead_p50", "ratio", "lower", 0.20),
    Metric("overhead_p95", "ratio", "lower", 0.24),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("mem_mb", "MB", "lower", 0.05),
)

PER_LAYER: Tuple[Metric, ...] = (
    Metric("perf.multiply_us", "us", "lower"),
    Metric("perf.dispatch_us", "us", "lower"),
    Metric("perf.dispatch_frac", "fraction", "lower"),
    Metric("sparse.spmv_us", "us", "lower"),
    Metric("sparse.spmv_gbs", "GB/s", "higher"),
    Metric("core.checksum_cb_us", "us", "lower"),
    Metric("core.result_checksum_us", "us", "lower"),
    Metric("core.beta_us", "us", "lower"),
    Metric("core.compare_us", "us", "lower"),
    Metric("core.checksum_nnz_ratio", "ratio", "lower"),
    Metric("core.correct_us", "us", "lower"),
    Metric("core.recheck_us", "us", "lower"),
    Metric("core.rounds_mean", "count", "lower"),
    Metric("core.recompute_waste_frac", "fraction", "lower"),
    Metric("core.false_positive_frac", "fraction", "lower"),
    Metric("core.build_ms", "ms", "lower"),
    Metric("perf.plan_build_ms", "ms", "lower"),
    Metric("formats.select_ms", "ms", "lower"),
    Metric("formats.bsr_share", "fraction", "higher"),
    Metric("machine.meter_us", "us", "lower"),
    Metric("machine.model_ratio", "ratio", "lower"),
    Metric("schemes.result_us", "us", "lower"),
    Metric("solvers.iterations", "count", "lower"),
    Metric("solvers.loop_us", "us", "lower"),
    Metric("solvers.precondition_us", "us", "lower"),
    Metric("faults.injected", "count", "higher"),
    Metric("faults.detected_frac", "fraction", "higher"),
    Metric("trace.overhead", "ratio", "lower"),
)
