"""Span arithmetic, and phases that add up to the traced multiply."""

import numpy as np

from repro.core.protected import FaultTolerantSpMV
from repro.perf.plan import ProtectedPlan
from repro.sparse.generators import random_spd

from benchmarks.ledger.spans import (
    MULTIPLY_PHASES,
    TAMPER,
    InjectionRecord,
    MultiplyRecord,
    Span,
    Tracer,
    fault_metrics,
    identity_residuals,
    op_breakdown,
    self_times,
)
from benchmarks.ledger.workloads import Faults


def test_self_time_arithmetic_on_nested_spans():
    spans = [
        Span("perf.multiply", 0, 100, -1, 0),
        Span("sparse.spmv", 10, 40, 0, 0),
        Span("core.correct", 50, 90, 0, 0),
        Span(TAMPER, 60, 70, 2, 0),
        Span("core.build", 200, 230, -1, -1),
    ]
    assert self_times(spans) == [30, 30, 30, 10, 30]
    totals = op_breakdown(spans)[0]
    assert totals["multiply_total"] == 90
    assert totals["perf.multiply"] + totals["sparse.spmv"] + totals["core.correct"] == 90
    assert identity_residuals(spans) == [0]


def test_fault_metrics_on_hand_built_records():
    multiplies = [
        MultiplyRecord(0, 0, 100, 4, 32, 1, (1,), True, 2, (1, 3)),
        MultiplyRecord(1, 5, 100, 4, 32, 0, (), False, 0, ()),
    ]
    injections = [InjectionRecord(0, 0, "result", 40, 100)]
    metrics = fault_metrics(multiplies, injections)
    assert metrics["core.rounds_mean"] == 0.5
    assert metrics["core.recompute_waste_frac"] == 0.5
    assert metrics["core.false_positive_frac"] == 0.0
    assert metrics["faults.injected"] == 0.5
    assert metrics["faults.detected_frac"] == 1.0


def _tracer_covers(tracer, names):
    recorded = {span.name for span in tracer.spans}
    assert set(names) <= recorded, set(names) - recorded
    for span in tracer.spans:
        if span.parent >= 0 and tracer.spans[span.parent].name in MULTIPLY_PHASES:
            assert span.name == TAMPER, "a phase was recorded inside another phase"


def test_phases_plus_dispatch_equal_planned_multiply_under_faults():
    original = ProtectedPlan.multiply
    workload = Faults(seed=1)
    tracer = Tracer()
    with tracer.installed():
        for i in range(workload.size):
            workload.targets[i] = workload.build(i)
        for k in range(4):
            for i in range(workload.size):
                tracer.op = k * workload.size + i
                result, _ = workload.protected(i, k, tracer)
                tracer.op = -1
                assert not workload.check(i, k, result).failed
    assert ProtectedPlan.multiply is original
    residuals = identity_residuals(tracer.spans)
    assert len(residuals) == 4 * workload.size
    assert all(residual == 0 for residual in residuals)
    _tracer_covers(
        tracer,
        ("perf.multiply", "sparse.spmv", "core.checksum_cb", "core.beta",
         "core.result_checksum", "core.compare", "core.correct", "core.recheck",
         "machine.meter", "schemes.result", TAMPER, "core.build", "perf.plan_build"),
    )


def test_phases_plus_dispatch_equal_unplanned_multiply():
    matrix = random_spd(300, 3000, seed=2)
    operator = FaultTolerantSpMV(matrix)
    b = np.random.default_rng(0).standard_normal(matrix.n_cols)
    tracer = Tracer()

    def tamper(stage, data, work):
        with tracer.span(TAMPER):
            if stage == "result":
                data[5] += 1e3

    with tracer.installed():
        for op in range(3):
            tracer.op = op
            result = operator.multiply(b, tamper=tamper if op else None)
            tracer.op = -1
            assert np.allclose(result.value, matrix.matvec(b))
    assert all(residual == 0 for residual in identity_residuals(tracer.spans))
    _tracer_covers(tracer, ("sparse.spmv", "core.checksum_cb", "core.correct", "core.recheck"))
