"""Figures 8 and 9 — the PCG case study: runtime overhead and success rate.

Full PCG solves under an exponential error process (λ errors per
arithmetic operation) for the three protected schemes.  Paper results:

* Figure 8 (overhead vs fault-free unprotected PCG, correct runs only):
  ours 39.8 % → 52.3 % as λ goes 1e-8 → 1e-4 (+31.3 % relative), partial
  58.4 % → 87.4 %, checkpointing 62.9 % → 162.9 %.
* Figure 9 (success rate): ~100 % for everyone at 1e-8, diverging with λ;
  at the high end ours is 1.61x partial and 3.6x checkpointing.

Our reduced-scale systems execute fewer arithmetic operations per solve
than the paper's, so a given λ sits further left on the stress axis; the
orderings and trends are the reproduction target (see EXPERIMENTS.md).
The timed unit is a single protected PCG solve.
"""

import numpy as np
import pytest
from conftest import PCG_MAX_ITERATION_FACTOR, PCG_RUNS_PER_CELL, write_result

from repro.analysis import PCG_ERROR_RATES, render_pcg_cells, sweep_pcg
from repro.solvers import FtPcgOptions, run_pcg

SCHEMES = ("abft", "bisection", "checkpoint")


@pytest.fixture(scope="module")
def pcg_cells(pcg_suite):
    options = FtPcgOptions(max_iteration_factor=PCG_MAX_ITERATION_FACTOR)
    return sweep_pcg(
        pcg_suite,
        schemes=SCHEMES,
        error_rates=PCG_ERROR_RATES,
        runs=PCG_RUNS_PER_CELL,
        seed=0,
        options=options,
    )


def test_fig8_pcg_overhead(benchmark, pcg_suite, pcg_cells):
    report = render_pcg_cells(pcg_cells, schemes=SCHEMES, rates=PCG_ERROR_RATES)
    low, high = PCG_ERROR_RATES[0], PCG_ERROR_RATES[-1]
    ours_low = pcg_cells[("abft", low)].mean_overhead
    paper_note = (
        "paper Fig. 8: ours 39.8%->52.3%, partial 58.4%->87.4%, "
        "checkpoint 62.9%->162.9% (1e-8 -> 1e-4) | "
        f"measured at 1e-8: ours {ours_low:.1%}, "
        f"partial {pcg_cells[('bisection', low)].mean_overhead:.1%}, "
        f"checkpoint {pcg_cells[('checkpoint', low)].mean_overhead:.1%}"
    )
    write_result("fig8_pcg_overhead", f"{report}\n{paper_note}")

    # Low-rate ordering: ours < partial and ours < checkpoint (Fig. 8 left).
    assert ours_low < pcg_cells[("bisection", low)].mean_overhead
    assert ours_low < pcg_cells[("checkpoint", low)].mean_overhead
    # Ours stays cheap as the rate scales four orders of magnitude.
    ours_high = pcg_cells[("abft", high)].mean_overhead
    assert ours_high is not None, "ours must still produce correct runs at 1e-4"
    assert ours_high < 4.0 * max(ours_low, 0.2)

    matrix, b = _one_system(pcg_suite)
    benchmark.pedantic(
        lambda: run_pcg(matrix, b, scheme="abft", error_rate=1e-7, seed=5),
        rounds=1,
        iterations=1,
    )


def test_fig9_pcg_success(benchmark, pcg_suite, pcg_cells):
    report = render_pcg_cells(pcg_cells, schemes=SCHEMES, rates=PCG_ERROR_RATES)
    low, high = PCG_ERROR_RATES[0], PCG_ERROR_RATES[-1]
    paper_note = (
        "paper Fig. 9: ~100% for all at 1e-8; at the high end ours is 1.61x "
        "partial and 3.6x checkpointing | measured at "
        f"{high:g}: ours {pcg_cells[('abft', high)].success_rate:.0%}, "
        f"partial {pcg_cells[('bisection', high)].success_rate:.0%}, "
        f"checkpoint {pcg_cells[('checkpoint', high)].success_rate:.0%}"
    )
    write_result("fig9_pcg_success", f"{report}\n{paper_note}")
    # Everyone succeeds at the lowest rate (paper: "roughly 100 %").
    for scheme in SCHEMES:
        assert pcg_cells[(scheme, low)].success_rate == 1.0
    # At the highest rate the proposed scheme dominates both baselines.
    ours = pcg_cells[("abft", high)].success_rate
    partial = pcg_cells[("bisection", high)].success_rate
    checkpoint = pcg_cells[("checkpoint", high)].success_rate
    assert ours >= partial
    assert ours >= checkpoint
    # Our reduced-scale systems execute fewer ops per solve, so 1e-4 is a
    # harsher stress point than on the paper's testbed; the paper's
    # "1.61x / 3.6x more successes" comparison is checked one decade lower,
    # where the stress is comparable.
    stress = PCG_ERROR_RATES[-2]
    ours_stress = pcg_cells[("abft", stress)].success_rate
    assert ours_stress > 0.8
    assert ours_stress >= 1.5 * max(pcg_cells[("bisection", stress)].success_rate, 1e-9)
    assert ours_stress >= 2.0 * max(
        pcg_cells[("checkpoint", stress)].success_rate, 1e-9
    )
    # Success is non-increasing in the error rate for the baselines.
    partial_rates = [pcg_cells[("bisection", r)].success_rate for r in PCG_ERROR_RATES]
    assert partial_rates[0] >= partial_rates[-1]

    matrix, b = _one_system(pcg_suite)
    benchmark.pedantic(
        lambda: run_pcg(matrix, b, scheme="checkpoint", error_rate=1e-7, seed=6),
        rounds=1,
        iterations=1,
    )


def _one_system(pcg_suite):
    matrix = pcg_suite[0][1]
    rng = np.random.default_rng(9)
    return matrix, matrix.matvec(rng.standard_normal(matrix.n_rows))
