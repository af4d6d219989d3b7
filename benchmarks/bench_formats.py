"""Storage-format shootout for the planned protected SpMV.

Three suites, one per structural regime:

* ``fem_bs8``   — FEM-style block-structured SPD (``block_stencil_spd``,
  dense 8x8 tiles, BSR fill 1.0): the regime BSR exists for;
* ``banded``    — near-regular row lengths but low tile fill: auto keeps
  CSR;
* ``hostile``   — unstructured random scatter (low fill): auto-selection
  must keep CSR and stay within noise of it.

Each suite times the steady-state planned protected multiply loop under
``sparse_format`` in {csr, bsr, auto} plus the raw plan SpMV
(format pipeline without detection), and records what ``auto`` chose and
why.

Acceptance floors (failed, not warned, outside smoke runs):

* ``fem_bs8``: BSR >= 1.15x over CSR on the planned protected multiply —
  the tile pipeline has to pay for the abstraction;
* ``hostile``: auto >= 0.95x of CSR — auto-selection must never lose
  more than 5% by picking (or probing) a format on hostile inputs.

Floors that cannot be asserted on a run are recorded under
``skip_reasons`` (as in ``bench_parallel_plan``).  Results go to
``results/bench_formats.txt`` and ``results/BENCH_formats.json``;
``REPRO_BENCH_SMOKE=1`` shrinks the suites to CI-smoke sizes where only
correctness is asserted.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import bench_env, write_json, write_result
from repro.core import AbftConfig, FaultTolerantSpMV
from repro.sparse import banded_spd, block_stencil_spd, random_spd

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

BLOCK_SIZE = 64
FORMATS = ("csr", "bsr", "auto")
MULTIPLIES = 3 if SMOKE else 10
REPEATS = 3 if SMOKE else 5
MIN_BSR_SPEEDUP = 1.15  # fem_bs8: BSR over CSR, planned multiply loop
MIN_AUTO_RATIO = 0.95  # hostile: auto over CSR (never lose > 5%)

if SMOKE:
    SUITES = {
        "fem_bs8": lambda: block_stencil_spd(500, 8, seed=42),
        "banded": lambda: banded_spd(4_000, half_bandwidth=8, seed=43),
        "hostile": lambda: random_spd(4_000, 48_000, seed=44),
    }
else:
    SUITES = {
        "fem_bs8": lambda: block_stencil_spd(12_000, 8, seed=42),
        "banded": lambda: banded_spd(120_000, half_bandwidth=8, seed=43),
        "hostile": lambda: random_spd(100_000, 1_200_000, seed=44),
    }


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _bench_suite(matrix):
    """Time every format's planned loop on one matrix; return the rows."""
    b = np.random.default_rng(7).standard_normal(matrix.n_cols)
    config = AbftConfig(block_size=BLOCK_SIZE, kernel="vectorized")
    rows = {}
    reference = matrix.matvec(b)
    scale = float(np.abs(reference).max())
    plans = {}
    for sparse_format in FORMATS:
        operator = FaultTolerantSpMV(matrix, config=config)
        plan = operator.planned(sparse_format=sparse_format)
        value = plan.multiply(b).value
        # Formats re-associate row sums: bound-level, never asserted
        # bit-exact here (tests/schemes/test_format_differential.py pins
        # the exactness contract).
        np.testing.assert_allclose(
            value, reference, atol=1e-9 * max(scale, 1.0),
            err_msg=f"{sparse_format} planned multiply diverged",
        )
        plans[sparse_format] = plan
    # Interleave the formats round-robin so clock drift and cache state
    # hit every contender equally — the floors compare formats against
    # each other, not against the wall clock.  csr and auto run back to
    # back: the hostile floor compares exactly those two, and the forced
    # bsr leg that precedes them in a naive order can thrash the cache
    # for seconds on unstructured inputs.
    timing_order = ("csr", "auto", "bsr")
    best_loop = {fmt: float("inf") for fmt in FORMATS}
    best_raw = {fmt: float("inf") for fmt in FORMATS}
    staged = {
        fmt: plans[fmt].spmv.prepare_operand(b) for fmt in FORMATS
    }
    for _ in range(REPEATS):
        for fmt in timing_order:
            plan = plans[fmt]
            loop = _timed(lambda p=plan: [p.multiply(b) for _ in range(MULTIPLIES)])
            best_loop[fmt] = min(best_loop[fmt], loop)
            raw = _timed(
                lambda p=plan, s=staged[fmt]: [
                    p.spmv.execute(s) for _ in range(MULTIPLIES)
                ]
            )
            best_raw[fmt] = min(best_raw[fmt], raw)
    for sparse_format in FORMATS:
        choice = plans[sparse_format].format_choice
        rows[sparse_format] = {
            "loop_ms": 1e3 * best_loop[sparse_format],
            "raw_spmv_ms": 1e3 * best_raw[sparse_format],
            "resolved_format": choice.format,
            "reason": choice.reason,
            "fill_ratio": None if np.isnan(choice.fill_ratio) else choice.fill_ratio,
            "block_shape": (
                list(choice.block_shape) if choice.block_shape else None
            ),
        }
    return rows


def test_format_speedups():
    suites = {}
    for name, make in SUITES.items():
        matrix = make()
        suites[name] = {
            "n_rows": matrix.n_rows,
            "nnz": matrix.nnz,
            "formats": _bench_suite(matrix),
        }

    def loop_ms(suite, fmt):
        return suites[suite]["formats"][fmt]["loop_ms"]

    speedups = {
        "fem_bsr_vs_csr": loop_ms("fem_bs8", "csr") / loop_ms("fem_bs8", "bsr"),
        "fem_auto_vs_csr": loop_ms("fem_bs8", "csr") / loop_ms("fem_bs8", "auto"),
        "hostile_auto_vs_csr": (
            loop_ms("hostile", "csr") / loop_ms("hostile", "auto")
        ),
    }

    skip_reasons = {}
    if SMOKE:
        skip_reasons["fem_bsr_vs_csr"] = "smoke=1 (problem below full scale)"
        skip_reasons["hostile_auto_vs_csr"] = "smoke=1 (problem below full scale)"

    lines = [
        "Storage-format shootout: planned protected multiply, "
        f"block size {BLOCK_SIZE}, {MULTIPLIES} multiplies per run",
        "",
    ]
    for name, suite in suites.items():
        lines.append(
            f"{name} (n={suite['n_rows']}, nnz={suite['nnz']})"
        )
        lines.append(
            f"  {'format':<6} {'loop [ms]':>11} {'raw spmv [ms]':>14}  resolved"
        )
        for fmt, row in suite["formats"].items():
            lines.append(
                f"  {fmt:<6} {row['loop_ms']:>11.3f} {row['raw_spmv_ms']:>14.3f}"
                f"  {row['resolved_format']}"
                + (
                    f" ({row['reason']})" if fmt == "auto" else ""
                )
            )
        lines.append("")
    lines += [
        f"fem_bs8: bsr vs csr     {speedups['fem_bsr_vs_csr']:.2f}x"
        f"  (floor {MIN_BSR_SPEEDUP}x"
        + (
            ")"
            if "fem_bsr_vs_csr" not in skip_reasons
            else f", not asserted: {skip_reasons['fem_bsr_vs_csr']})"
        ),
        f"fem_bs8: auto vs csr    {speedups['fem_auto_vs_csr']:.2f}x",
        f"hostile: auto vs csr    {speedups['hostile_auto_vs_csr']:.2f}x"
        f"  (floor {MIN_AUTO_RATIO}x"
        + (
            ")"
            if "hostile_auto_vs_csr" not in skip_reasons
            else f", not asserted: {skip_reasons['hostile_auto_vs_csr']})"
        ),
    ]
    write_result("bench_formats", "\n".join(lines))
    write_json(
        "formats",
        {
            "benchmark": "formats",
            "config": {
                "block_size": BLOCK_SIZE,
                "formats": list(FORMATS),
                "multiplies_per_run": MULTIPLIES,
                "repeats": REPEATS,
                "smoke": SMOKE,
            },
            "suites": suites,
            "speedups": speedups,
            "floors": {
                "fem_bsr_vs_csr": MIN_BSR_SPEEDUP,
                "hostile_auto_vs_csr": MIN_AUTO_RATIO,
            },
            "asserted": {
                "fem_bsr_vs_csr": not SMOKE,
                "hostile_auto_vs_csr": not SMOKE,
            },
            "skip_reasons": skip_reasons,
            "env": bench_env(),
        },
    )

    # Structural sanity holds at every scale, smoke included.
    fem_auto = suites["fem_bs8"]["formats"]["auto"]
    assert fem_auto["resolved_format"] == "bsr", fem_auto["reason"]
    hostile_auto = suites["hostile"]["formats"]["auto"]
    assert hostile_auto["resolved_format"] == "csr", hostile_auto["reason"]

    if SMOKE:
        pytest.skip(
            "smoke run: harness + correctness only, floors not asserted "
            "(see skip_reasons in results/BENCH_formats.json)"
        )
    assert speedups["fem_bsr_vs_csr"] >= MIN_BSR_SPEEDUP, (
        f"BSR reached only {speedups['fem_bsr_vs_csr']:.2f}x over CSR on "
        f"fem_bs8 (floor {MIN_BSR_SPEEDUP}x)"
    )
    assert speedups["hostile_auto_vs_csr"] >= MIN_AUTO_RATIO, (
        f"auto lost {1 - speedups['hostile_auto_vs_csr']:.1%} vs CSR on "
        f"hostile input (floor {MIN_AUTO_RATIO}x)"
    )
