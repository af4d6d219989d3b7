"""Precision study: float32 storage throughput and the ``vabft`` win.

Three legs, one results file (``results/BENCH_precision.json``):

* **throughput** — the planned protected multiply (detect+multiply) on a
  FEM-style 16x16-tile matrix in BSR storage, float64 vs float32.  BSR
  amortizes index traffic across dense tiles, so the data dtype sets the
  memory-bound roofline: float32 halves it (~2x expected).  Floor: the
  float32 detect+multiply loop must reach >= 1.3x over float64.
* **f1** — the fig7 coverage harness per storage precision.  On float64
  the analytical bound is tight and ``abft`` ~= ``vabft``; on float32
  the worst-case bound overshoots the observed rounding noise by orders
  of magnitude, and the variance-adaptive thresholds must win:
  ``vabft`` F1 > ``abft`` F1 at every float32 sigma.  Paper sigmas
  (1e-8..1e-12) sit below the float32 noise floor, so the float32 sweep
  uses proportionally larger significance levels.
* **fp_rate** — ``vabft`` false-positive rate over multiply streams at
  the paper's λ sweep (Figure 8 error rates).  Flagged blocks never
  enter the noise model, so the FP rate must stay at zero no matter how
  often real errors fire.

Floors that cannot be asserted on a run (``REPRO_BENCH_SMOKE=1``) are
recorded under ``skip_reasons`` as in ``bench_formats``.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import COVERAGE_TRIALS, bench_env, write_json, write_result
from repro.analysis import run_coverage_campaign
from repro.analysis.metrics import ConfusionCounts
from repro.analysis.sweeps import FIGURE7_SIGMAS, PCG_ERROR_RATES
from repro.core import AbftConfig
from repro.faults import FaultInjector
from repro.schemes import make_scheme
from repro.sparse import banded_spd, block_stencil_spd, random_spd

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

BLOCK_SIZE = 64
MULTIPLIES = 3 if SMOKE else 5
REPEATS = 3 if SMOKE else 4
MIN_F32_SPEEDUP = 1.3  # float32 over float64, planned detect+multiply loop
MAX_FP_RATE = 0.01  # vabft false positives per clean multiply, any λ

#: Coverage-campaign significance sweeps per storage precision.  The
#: paper's float64 sigmas are below the float32 rounding noise (a
#: 1e-12-relative burst does not survive the float32 write), so float32
#: sweeps proportionally larger errors.
SIGMA_SWEEPS = {
    "float64": FIGURE7_SIGMAS,
    "float32": (1e-2, 1e-3, 1e-4, 1e-5),
}
F1_TRIALS = 20 if SMOKE else COVERAGE_TRIALS
FP_STEPS = 40 if SMOKE else 300
FP_INJECTION_SIGMA = 1e-3  # visibly significant on float32 storage

if SMOKE:
    THROUGHPUT_MATRIX = lambda: block_stencil_spd(512, 16, seed=42)  # noqa: E731
else:
    THROUGHPUT_MATRIX = lambda: block_stencil_spd(12_000, 16, seed=42)  # noqa: E731


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Leg 1: float32 vs float64 planned detect+multiply throughput
# ----------------------------------------------------------------------
def _bench_throughput():
    from repro.core import FaultTolerantSpMV

    m64 = THROUGHPUT_MATRIX()
    m32 = m64.astype(np.float32)
    config = AbftConfig(block_size=BLOCK_SIZE, kernel="vectorized")
    plans, operands, staged = {}, {}, {}
    for tag, matrix in (("float64", m64), ("float32", m32)):
        plan = FaultTolerantSpMV(matrix, config=config).planned(sparse_format="bsr")
        b = np.random.default_rng(7).standard_normal(matrix.n_cols)
        operands[tag] = np.asarray(b, dtype=matrix.data.dtype)
        plans[tag] = plan
        staged[tag] = plan.spmv.prepare_operand(operands[tag])
    # float32 must agree with float64 to storage precision (correctness
    # gate even in smoke runs).
    reference = plans["float64"].multiply(operands["float64"]).value
    got = plans["float32"].multiply(operands["float32"]).value
    scale = float(np.abs(reference).max())
    np.testing.assert_allclose(got, reference, atol=1e-4 * max(scale, 1.0))

    best_loop = {tag: float("inf") for tag in plans}
    best_raw = {tag: float("inf") for tag in plans}
    for _ in range(REPEATS):
        # interleave the dtypes so clock drift hits both equally
        for tag in ("float64", "float32"):
            plan, b = plans[tag], operands[tag]
            loop = _timed(lambda: [plan.multiply(b) for _ in range(MULTIPLIES)])
            best_loop[tag] = min(best_loop[tag], loop)
            raw = _timed(
                lambda s=staged[tag]: [plan.spmv.execute(s) for _ in range(MULTIPLIES)]
            )
            best_raw[tag] = min(best_raw[tag], raw)
    return {
        "suite": "fem_bs16",
        "storage_format": "bsr",
        "n_rows": m64.n_rows,
        "nnz": m64.nnz,
        "float64": {
            "loop_ms": 1e3 * best_loop["float64"],
            "raw_spmv_ms": 1e3 * best_raw["float64"],
        },
        "float32": {
            "loop_ms": 1e3 * best_loop["float32"],
            "raw_spmv_ms": 1e3 * best_raw["float32"],
        },
        "speedup": {
            "detect_multiply": best_loop["float64"] / best_loop["float32"],
            "raw_spmv": best_raw["float64"] / best_raw["float32"],
        },
    }


# ----------------------------------------------------------------------
# Leg 2: fig7 F1 per storage precision, abft vs vabft
# ----------------------------------------------------------------------
def _f1_matrices(dtype_leg):
    base = (
        random_spd(512, 5_000, seed=3),
        banded_spd(768, half_bandwidth=6, seed=5),
    )
    return tuple(m.astype(dtype_leg) for m in base)


def _bench_f1():
    legs = {}
    for dtype_leg, sigmas in SIGMA_SWEEPS.items():
        matrices = _f1_matrices(dtype_leg)
        rows = {"sigmas": list(sigmas), "abft": [], "vabft": []}
        for sigma in sigmas:
            for scheme_name in ("abft", "vabft"):
                counts = ConfusionCounts()
                for seed, matrix in enumerate(matrices):
                    result = run_coverage_campaign(
                        matrix,
                        scheme_name,
                        trials=F1_TRIALS,
                        sigma=sigma,
                        seed=seed,
                        block_size=32,
                    )
                    counts = counts.merge(result.counts)
                rows[scheme_name].append(counts.f1)
        legs[dtype_leg] = rows
    return legs


# ----------------------------------------------------------------------
# Leg 3: vabft false-positive rate at the paper's λ sweep
# ----------------------------------------------------------------------
def _bench_fp_rate():
    matrix = random_spd(512, 5_000, seed=3, dtype=np.float32)
    flops = 2.0 * matrix.nnz
    cells = []
    for lam in PCG_ERROR_RATES:
        scheme = make_scheme("vabft", matrix, config=AbftConfig(block_size=32))
        injector = FaultInjector.seeded(11)
        rng = np.random.default_rng(13)
        p_error = min(1.0, lam * flops)
        clean = false_positives = injected = detected = 0
        for _ in range(FP_STEPS):
            b = np.asarray(
                rng.standard_normal(matrix.n_cols) * 10.0 ** rng.integers(-2, 3),
                dtype=np.float32,
            )
            fired = {"hit": False}

            def tamper(stage, data, work, fired=fired):
                if stage == "result" and not fired["hit"] and rng.random() < p_error:
                    injector.corrupt_random_element(data, sigma=FP_INJECTION_SIGMA)
                    fired["hit"] = True

            result = scheme.multiply(b, tamper=tamper)
            if fired["hit"]:
                injected += 1
                detected += int(any(result.detections))
            else:
                clean += 1
                false_positives += int(any(result.detections))
        cells.append(
            {
                "lambda": lam,
                "p_error_per_multiply": p_error,
                "clean_multiplies": clean,
                "false_positives": false_positives,
                "fp_rate": false_positives / clean if clean else None,
                "injected": injected,
                "detection_rate": detected / injected if injected else None,
            }
        )
    return {"steps": FP_STEPS, "injection_sigma": FP_INJECTION_SIGMA, "cells": cells}


def test_precision_benchmarks():
    throughput = _bench_throughput()
    f1 = _bench_f1()
    fp = _bench_fp_rate()

    f32_gap = min(
        v - a for v, a in zip(f1["float32"]["vabft"], f1["float32"]["abft"])
    )
    skip_reasons = {}
    if SMOKE:
        skip_reasons["f32_detect_multiply_speedup"] = (
            "smoke=1 (problem below full scale)"
        )
        skip_reasons["vabft_minus_abft_f1_float32"] = (
            "smoke=1 (trials below statistical floor)"
        )
        skip_reasons["vabft_fp_rate"] = "smoke=1 (stream below statistical floor)"

    lines = [
        "Precision study: float32 storage vs float64, abft vs vabft",
        "",
        f"throughput ({throughput['suite']}, bsr, n={throughput['n_rows']}, "
        f"nnz={throughput['nnz']}, {MULTIPLIES} multiplies x {REPEATS} repeats)",
        f"  {'dtype':<8} {'loop [ms]':>11} {'raw spmv [ms]':>14}",
    ]
    for tag in ("float64", "float32"):
        row = throughput[tag]
        lines.append(
            f"  {tag:<8} {row['loop_ms']:>11.3f} {row['raw_spmv_ms']:>14.3f}"
        )
    speedup = throughput["speedup"]
    lines += [
        f"  f32 speedup: detect+multiply {speedup['detect_multiply']:.2f}x"
        f"  raw spmv {speedup['raw_spmv']:.2f}x  (floor {MIN_F32_SPEEDUP}x"
        + (
            ")"
            if "f32_detect_multiply_speedup" not in skip_reasons
            else f", not asserted: {skip_reasons['f32_detect_multiply_speedup']})"
        ),
        "",
        "coverage F1 (fig7 harness, merged over 2 matrices, "
        f"{F1_TRIALS} trials each)",
    ]
    for dtype_leg, rows in f1.items():
        lines.append(f"  {dtype_leg}")
        lines.append(f"    {'sigma':>8} {'abft':>7} {'vabft':>7}")
        for sigma, abft_f1, vabft_f1 in zip(
            rows["sigmas"], rows["abft"], rows["vabft"]
        ):
            lines.append(f"    {sigma:>8.0e} {abft_f1:>7.3f} {vabft_f1:>7.3f}")
    lines += [
        f"  float32: min(vabft - abft) = {f32_gap:+.3f}"
        + (
            "  (must be > 0)"
            if "vabft_minus_abft_f1_float32" not in skip_reasons
            else f"  (not asserted: {skip_reasons['vabft_minus_abft_f1_float32']})"
        ),
        "",
        f"vabft false positives over {FP_STEPS}-multiply float32 streams "
        f"(injection sigma {FP_INJECTION_SIGMA:.0e})",
        f"    {'lambda':>8} {'clean':>6} {'fp':>4} {'injected':>9} {'detected':>9}",
    ]
    for cell in fp["cells"]:
        lines.append(
            f"    {cell['lambda']:>8.0e} {cell['clean_multiplies']:>6}"
            f" {cell['false_positives']:>4} {cell['injected']:>9}"
            f" {cell['detection_rate'] if cell['detection_rate'] is not None else '-':>9}"
        )
    write_result("bench_precision", "\n".join(lines))
    write_json(
        "precision",
        {
            "benchmark": "precision",
            "config": {
                "block_size": BLOCK_SIZE,
                "multiplies_per_run": MULTIPLIES,
                "repeats": REPEATS,
                "f1_trials": F1_TRIALS,
                "fp_steps": FP_STEPS,
                "sigma_sweeps": {k: list(v) for k, v in SIGMA_SWEEPS.items()},
                "lambda_sweep": list(PCG_ERROR_RATES),
                "smoke": SMOKE,
            },
            "throughput": throughput,
            "f1": f1,
            "f32_f1_gap": f32_gap,
            "fp_rate": fp,
            "floors": {
                "f32_detect_multiply_speedup": MIN_F32_SPEEDUP,
                "vabft_minus_abft_f1_float32": 0.0,
                "vabft_fp_rate": MAX_FP_RATE,
            },
            "asserted": {
                "f32_detect_multiply_speedup": not SMOKE,
                "vabft_minus_abft_f1_float32": not SMOKE,
                "vabft_fp_rate": not SMOKE,
            },
            "skip_reasons": skip_reasons,
            "env": bench_env(),
        },
    )

    if SMOKE:
        pytest.skip(
            "smoke run: harness + correctness only, floors not asserted "
            "(see skip_reasons in results/BENCH_precision.json)"
        )
    assert speedup["detect_multiply"] >= MIN_F32_SPEEDUP, (
        f"float32 reached only {speedup['detect_multiply']:.2f}x over float64 "
        f"on the planned detect+multiply loop (floor {MIN_F32_SPEEDUP}x)"
    )
    assert f32_gap > 0.0, (
        "vabft failed to beat the analytical bound on float32: "
        f"min F1 gap {f32_gap:+.3f} over sigmas {SIGMA_SWEEPS['float32']}"
    )
    # On float64 the analytical bound is already tight; vabft must not
    # regress coverage there (small statistical slack).
    for abft_f1, vabft_f1 in zip(f1["float64"]["abft"], f1["float64"]["vabft"]):
        assert vabft_f1 >= abft_f1 - 0.02
    for cell in fp["cells"]:
        if cell["clean_multiplies"] >= 50:
            assert cell["fp_rate"] <= MAX_FP_RATE, (
                f"vabft flagged {cell['false_positives']} clean multiplies "
                f"at lambda={cell['lambda']:.0e}"
            )
        if cell["injected"] >= 20:
            assert cell["detection_rate"] >= 0.9
