"""Integration tests: cross-module scenarios exercised end to end."""

import io

import numpy as np
import pytest

from repro.baselines import CompleteRecomputationSpMV, PartialRecomputationSpMV
from repro.core import AbftConfig, BlockAbftDetector, FaultTolerantSpMV
from repro.faults import ErrorProcess, FaultInjector, make_fault_model
from repro.machine import ExecutionMeter, Machine, render_gantt
from repro.solvers import JacobiPreconditioner, pcg, run_pcg
from repro.sparse import (
    matrix_market_string,
    poisson2d,
    read_matrix_market,
    reverse_cuthill_mckee,
    suite_matrix,
    symmetric_permute,
)


def test_matrix_market_round_trip_preserves_abft_behaviour(tmp_path):
    """Serialize a matrix, reload it, and verify the detector still works."""
    original = suite_matrix("nos3")
    reloaded = read_matrix_market(io.StringIO(matrix_market_string(original)))
    assert reloaded == original
    detector = BlockAbftDetector(reloaded)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(reloaded.n_cols)
    r = reloaded.matvec(b)
    assert detector.detect(b, r).clean
    r[100] += 1.0
    assert 100 // 32 in detector.detect(b, r).flagged


def test_rcm_then_protected_pcg_pipeline():
    """Reorder a scattered system, then solve it fault-tolerantly."""
    from repro.sparse import random_permutation

    grid = poisson2d(20)
    scrambled = symmetric_permute(grid, random_permutation(grid.n_rows, seed=1))
    restored = symmetric_permute(scrambled, reverse_cuthill_mckee(scrambled))
    rng = np.random.default_rng(1)
    x_true = rng.standard_normal(restored.n_rows)
    b = restored.matvec(x_true)
    result = run_pcg(restored, b, scheme="abft", error_rate=1e-6, seed=2)
    assert result.correct
    np.testing.assert_allclose(result.x, x_true, rtol=1e-3, atol=1e-5)


def test_all_spmv_schemes_agree_on_corrected_value():
    """Under the same injected error every scheme must deliver A b."""
    matrix = suite_matrix("nos3")
    rng = np.random.default_rng(3)
    b = rng.standard_normal(matrix.n_cols)
    reference = matrix.matvec(b)
    magnitude = 100.0 * float(np.linalg.norm(b))

    def make_hook():
        state = {"armed": True}

        def hook(stage, data, work):
            if stage == "result" and state["armed"]:
                data[500] += magnitude
                state["armed"] = False

        return hook

    ours = FaultTolerantSpMV(matrix).multiply(b, tamper=make_hook())
    partial = PartialRecomputationSpMV(matrix).multiply(b, tamper=make_hook())
    complete = CompleteRecomputationSpMV(matrix).multiply(b, tamper=make_hook())
    for result in (ours, partial, complete):
        np.testing.assert_array_equal(result.value, reference)


def test_protected_pcg_under_faults_is_correct():
    matrix = poisson2d(12)
    rng = np.random.default_rng(4)
    b = matrix.matvec(rng.standard_normal(matrix.n_rows))
    result = run_pcg(matrix, b, scheme="abft", error_rate=1e-6, seed=5)
    assert result.correct


def test_fault_model_sweep_through_protected_spmv():
    """Every registered fault model flows through the full multiply."""
    matrix = suite_matrix("nos3")
    rng = np.random.default_rng(6)
    b = rng.standard_normal(matrix.n_cols)
    reference = matrix.matvec(b)
    ft = FaultTolerantSpMV(matrix)
    for model_name in ("burst", "single-bit", "exponent", "mantissa"):
        injector = FaultInjector(
            rng=np.random.default_rng(7), model=make_fault_model(model_name)
        )
        state = {"armed": True}

        def hook(stage, data, work):
            if stage == "result" and state["armed"]:
                injector.corrupt_random_element(data, sigma=1e-8)
                state["armed"] = False

        result = ft.multiply(b, tamper=hook)
        assert not result.exhausted, model_name
        np.testing.assert_array_equal(result.value, reference)


def test_error_process_drives_detection_statistics():
    """With λ > 0 the number of detections tracks the number of injections."""
    matrix = suite_matrix("nos3")
    rng = np.random.default_rng(8)
    b = rng.standard_normal(matrix.n_cols)
    ft = FaultTolerantSpMV(matrix)
    injector = FaultInjector.seeded(9)
    process = ErrorProcess(5e-6, injector.rng)

    def tamper(stage, data, work):
        for _ in range(process.events_in(work)):
            if data.size:
                injector.corrupt_random_element(data, target=stage)

    detections = 0
    for _ in range(40):
        result = ft.multiply(b, tamper=tamper)
        detections += sum(len(flags) for flags in result.detected)
    assert len(injector.log) > 0
    assert detections > 0


def test_meter_accounts_full_solver_run():
    """Simulated seconds/flops accumulate consistently across a solve."""
    matrix = poisson2d(15)
    rng = np.random.default_rng(10)
    b = matrix.matvec(rng.standard_normal(matrix.n_rows))
    result = run_pcg(matrix, b, scheme="abft", error_rate=0.0, seed=11)
    assert result.seconds > 0
    assert result.flops > 2.0 * matrix.nnz * result.iterations  # at least the SpMVs


def test_schedule_trace_of_real_workload_renders():
    detector = BlockAbftDetector(suite_matrix("bcsstk13"), AbftConfig(block_size=32))
    schedule = Machine().schedule(detector.detection_graph())
    text = render_gantt(schedule, width=50)
    assert text.count("\n") >= 4


def test_plain_pcg_matches_protected_pcg_solution():
    matrix = poisson2d(14)
    rng = np.random.default_rng(12)
    x_true = rng.standard_normal(matrix.n_rows)
    b = matrix.matvec(x_true)
    plain = pcg(matrix, b, JacobiPreconditioner(matrix), tol=1e-10)
    protected = run_pcg(matrix, b, scheme="abft", error_rate=0.0, seed=13)
    np.testing.assert_allclose(plain.x, x_true, rtol=1e-6)
    np.testing.assert_allclose(protected.x, x_true, rtol=1e-3, atol=1e-6)


def test_setup_cost_amortizes_over_reuse():
    """Section III-E: reuse amortizes the checksum construction."""
    matrix = suite_matrix("bcsstk13")
    ft = FaultTolerantSpMV(matrix)
    meter = ExecutionMeter()
    rng = np.random.default_rng(14)
    n_multiplies = 50
    for _ in range(n_multiplies):
        ft.multiply(rng.standard_normal(matrix.n_cols), meter=meter)
    setup_seconds = meter.machine.params.launch_overhead + (
        ft.setup_cost.work / meter.machine.params.throughput
    )
    assert setup_seconds < 0.05 * meter.seconds
