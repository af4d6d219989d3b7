"""Ablation — rounding-error bound choice (DESIGN.md decision 1).

Swaps the bound family of the *same* block detector: the paper's per-block
sparse analytical bound vs the whole-matrix dense analytical bound
(Roy-Chowdhury & Banerjee) vs the norm heuristic ``tau = ||b||_2`` of
Sloan et al.  Coverage ordering expected: sparse > dense-analytical > norm,
which is exactly the argument of Section III-C.
"""

from conftest import write_result

from repro.analysis import run_coverage_campaign
from repro.analysis.ablations import ablate_bounds, render_bound_ablation
from repro.sparse import QUICK_SUITE

SIGMA = 1e-12
TRIALS = 120


def test_bound_ablation(benchmark, full_suite):
    subset = [(s, m) for s, m in full_suite if s.name in QUICK_SUITE]
    ablation = ablate_bounds(subset, trials=TRIALS, sigma=SIGMA)
    write_result("ablation_bounds", render_bound_ablation(ablation))

    # Section III-C's claim: tighter bounds -> better coverage.
    assert ablation.average("sparse") > ablation.average("dense") > ablation.average("norm")

    matrix = subset[0][1]
    benchmark.pedantic(
        lambda: run_coverage_campaign(
            matrix, "abft", trials=30, sigma=SIGMA, seed=12, bound="sparse"
        ),
        rounds=1,
        iterations=1,
    )
